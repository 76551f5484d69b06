"""The per-cluster forest builder that `build_cluster_tree` replaced.

Test-only reference: one net-tree per cluster (its own `np.unique`, greedy
nets and recursive materialisation), fragments glued by offset arithmetic,
and a rel fill that decides every candidate by the scalar norm. The
production builder must give the same arrays.
"""

import numpy as np
from scipy.spatial import cKDTree

from scalenets.forest import (
    REL_COEF,
    TAU,
    NetForest,
    build_net,
    build_root_rel,
    root_level,
)
from scalenets.geometry import ExactNearNeighbours, PointCloud


def greedy_net(pts, candidates, seeds, scale):
    """Seeds kept, then candidates in order, each kept when no kept point is within scale."""
    kept = list(seeds)
    kept_pts = [pts[s] for s in seeds]
    seed_set = set(seeds)
    for c in candidates:
        if c in seed_set:
            continue
        if kept_pts:
            d = np.linalg.norm(np.asarray(kept_pts) - pts[c], axis=1)
            if float(d.min()) <= scale:
                continue
        kept.append(c)
        kept_pts.append(pts[c])
    return kept


def cluster_tree(cloud: PointCloud, members: np.ndarray, rep: int, rl: int):
    """Net-tree of one cluster as (parent, level, rep) over local ids, DFS preorder."""
    members = np.sort(np.asarray(members, dtype=np.intp))
    pts = cloud.points
    _, first, inverse = np.unique(pts[members], axis=0, return_index=True, return_inverse=True)
    site_members: dict[int, list[int]] = {}
    for m, s in zip(members.tolist(), members[first[inverse.ravel()]].tolist()):
        site_members.setdefault(s, []).append(m)
    sites = sorted(site_members)
    assert rep in site_members, "a representative is the lowest index of its duplicates"

    parent, level, reps = [], [], []

    def new_node(rep_idx, lev, par):
        parent.append(par)
        level.append(lev)
        reps.append(rep_idx)
        return len(parent) - 1

    def attach_site(site, lev, par):
        nid = new_node(site, lev, par)
        dups = site_members[site]
        if len(dups) > 1:
            for p in dups:
                new_node(p, lev - 1, nid)

    if len(sites) == 1:
        attach_site(rep, rl, -1)
        return parent, level, reps

    nets = {rl: [rep]}
    parent_net = {}
    lev = rl
    while len(nets[lev]) < len(sites):
        nxt = lev - 1
        net = greedy_net(pts, sites, nets[lev], float(TAU) ** nxt)
        coarse = nets[lev]
        coarse_pts = pts[np.asarray(coarse, dtype=np.intp)]
        parent_net[nxt] = {
            w: coarse[int(np.argmin(np.linalg.norm(coarse_pts - pts[w], axis=1)))] for w in net
        }
        nets[nxt] = net
        lev = nxt
    bottom = lev

    children_at: dict[tuple[int, int], list[int]] = {}
    for j in range(bottom, rl):
        for w, u in parent_net[j].items():
            children_at.setdefault((u, j + 1), []).append(w)
    for key in children_at:
        children_at[key].sort()

    def materialize(u, top, par):
        j = top
        while j > bottom and children_at.get((u, j), [u]) == [u]:
            j -= 1
        if j == bottom:
            attach_site(u, top, par)
            return
        nid = new_node(u, j, par)
        for w in children_at[(u, j)]:
            materialize(w, j - 1, nid)

    root = new_node(rep, rl, -1)
    for w in children_at.get((rep, rl), [rep]):
        materialize(w, rl - 1, root)
    return parent, level, reps


def rel_fill(forest: NetForest, cloud: PointCloud) -> None:
    """Every non-root rel list by one radius query per level and a scalar norm per hit."""
    pts = cloud.points
    rep = forest.rep
    owner = np.repeat(np.arange(forest.n_nodes), np.diff(forest.rel_ptr))
    at_root = forest.parent[owner] < 0
    rows, cols = owner[at_root].tolist(), forest.rel_ids[at_root].tolist()
    non_root = forest.parent >= 0
    for lev in np.unique(forest.level[non_root]).tolist():
        members = np.flatnonzero(non_root & (forest.level == lev))
        cells = np.flatnonzero((forest.low <= lev) & (lev < forest.high))
        threshold = REL_COEF * float(TAU) ** lev
        cell_pts = pts[rep[cells]]
        near = cKDTree(cell_pts).query_ball_point(pts[rep[members]], threshold * (1 + 1e-9))
        for u, hits in zip(members.tolist(), near):
            for j in hits:
                if np.linalg.norm(pts[rep[u]] - cell_pts[j]) <= threshold:
                    rows.append(u)
                    cols.append(int(cells[j]))
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    forest.rel_ids = cols[np.lexsort((cols, rows))]
    forest.rel_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=forest.n_nodes))))


def reference_forest(cloud: PointCloud, t: float) -> NetForest:
    """The exact-primitive forest, built cluster by cluster."""
    netpoint, nets = build_net(cloud, t, ExactNearNeighbours(cloud.points, t))
    net_pts = cloud.points[np.asarray(nets, dtype=np.intp)]
    root_rel = build_root_rel(net_pts, t, ExactNearNeighbours(net_pts, 7.0 * t))
    rl = root_level(t)
    fragments = [cluster_tree(cloud, np.flatnonzero(netpoint == p), p, rl) for p in nets]
    parent, level, rep = (np.concatenate([f[k] for f in fragments]) for k in range(3))
    sizes = [len(f[0]) for f in fragments]
    roots = np.cumsum([0] + sizes[:-1])
    parent = np.where(parent >= 0, parent + np.repeat(roots, sizes), -1)
    rel_owner = np.repeat(roots, [len(r) for r in root_rel])
    rel_ptr = np.concatenate(([0], np.cumsum(np.bincount(rel_owner, minlength=parent.size))))
    forest = NetForest(parent, level, rep, rel_ptr, roots[np.concatenate(root_rel)], t)
    rel_fill(forest, cloud)
    return forest
