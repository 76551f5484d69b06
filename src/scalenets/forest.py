"""Net-forests: hierarchies of nested nets truncated at a scale cap t.

A forest is a collection of trees whose roots form a (t,t)-net of the input
and whose root point sets partition it. Every tree node carries a
representative point, an integer level, and the covering/packing guarantees

    covering:  all points of the node lie within 2.2 * 11^level of its rep,
    packing:   all points of the node's tree within (6/220) * 11^(parent
               level) of the rep belong to the node,

with the exception of roots, whose covering radius is the cap t itself (the
integer root level rounds down, so the cluster can be wider than
2.2 * 11^root_level). Packing is a within-tree guarantee: points of other
trees can sit arbitrarily close to a cluster boundary, so no cross-tree
packing statement can hold.

Each node also carries a `rel` list: the close-by nodes of comparable level
(same-or-lower level, parent level above, representative distance at most
14 * 11^level). Root rel lists come from a near-neighbour pass at radius 7t
with the selected primitive; all other levels are filled one level at a
time from that definition with exact radius queries.

`NetForest` holds all of this as arrays over node ids, which are a DFS
preorder: a subtree is an id range, and its point set is the reps of the
leaves in that range, so no node stores its points.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .geometry import ExactNearNeighbours, PointCloud, row_distances

__all__ = [
    "TAU",
    "COVER_COEF",
    "PACK_COEF",
    "REL_COEF",
    "NetForest",
    "root_level",
    "build_net",
    "build_root_rel",
    "build_cluster_tree",
    "build_forest",
    "augment_rel",
    "brute_force_rel",
    "extract_net",
    "nodes_at_level",
    "descend_to_level",
    "vcell",
    "check_forest",
    "write_forest",
    "read_forest",
]

TAU = 11
COVER_COEF = 2.0 * TAU / (TAU - 1.0)          # 2.2
PACK_COEF = (TAU - 5.0) / (2.0 * TAU * (TAU - 1.0))  # 6/220
REL_COEF = 14.0

# floors of logarithms get nudged so exact powers land on the right integer
_LOG_RTOL = 1e-12


def _csr_ptr(owner: np.ndarray, size: int) -> np.ndarray:
    """CSR offsets of entries grouped by `owner` (ids in [0, size))."""
    return np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=size)))).astype(np.intp)


class NetForest:
    """A net-forest as arrays over node ids, which are a DFS preorder.

    Made from `parent` (-1 at roots), `level`, `rep` and the rel lists in
    CSR form (node v's list is `rel_ids[rel_ptr[v]:rel_ptr[v + 1]]`).
    Everything else is derived:

        roots                 root ids, ascending
        child_ptr, child_ids  children of every node, ascending, in CSR form
        size                  the subtree of v is the id range [v, v + size[v])
        is_leaf               no children; the leaf reps are exactly the
                              points 0..n-1, each once
        leaf_of               point -> its leaf
        low, high             level interval: v is the cell of its branch at
                              level L when low[v] <= L < high[v]; leaves reach
                              down to -inf, roots up to +inf
        cover                 covering radius: 0 at leaves, t at roots,
                              2.2 * 11^level elsewhere

    Raises ValueError when the arrays do not describe such a forest.
    """

    def __init__(self, parent, level, rep, rel_ptr, rel_ids, t: float, rl: int):
        self.parent = np.asarray(parent, dtype=np.intp)
        self.level = np.asarray(level, dtype=np.int64)
        self.rep = np.asarray(rep, dtype=np.intp)
        self.rel_ptr = np.asarray(rel_ptr, dtype=np.intp)
        self.rel_ids = np.asarray(rel_ids, dtype=np.intp)
        self.t = float(t)
        self.root_level = int(rl)
        m = self.parent.size
        if np.any((self.rel_ids < 0) | (self.rel_ids >= m)):
            raise ValueError("rel id out of range")
        if np.any((self.parent < -1) | (self.parent >= np.arange(m))):
            raise ValueError("every parent id must be below its child's")

        size = [1] * m
        for v, p in zip(range(m - 1, -1, -1), reversed(self.parent.tolist())):
            if p >= 0:
                size[p] += size[v]
        self.size = np.array(size, dtype=np.intp)

        # roots, then each node's children, ascending; in a preorder each one
        # starts where its previous sibling's subtree ends or after its parent
        order = np.argsort(self.parent, kind="stable")
        group = self.parent[order]
        prev = np.concatenate(([-1], order))[:-1]
        first = group != np.concatenate(([-2], group))[:-1]
        start = np.where(first, group + 1, prev + self.size[prev])
        if not np.array_equal(order, start):
            raise ValueError("node ids are not a preorder")
        n_roots = int(np.count_nonzero(self.parent < 0))
        self.roots = order[:n_roots]
        self.child_ids = order[n_roots:]
        self.child_ptr = _csr_ptr(self.parent[self.child_ids], m)

        self.is_leaf = np.diff(self.child_ptr) == 0
        leaves = np.flatnonzero(self.is_leaf)
        if np.any((self.rep < 0) | (self.rep >= leaves.size)):
            raise ValueError("rep out of range")
        self.leaf_of = np.full(leaves.size, -1, dtype=np.intp)
        self.leaf_of[self.rep[leaves]] = leaves
        if np.any(self.leaf_of < 0):
            raise ValueError("leaf reps are not the points 0..n-1, each once")

        self.low = np.where(self.is_leaf, -np.inf, self.level)
        self.high = np.where(self.parent < 0, np.inf, self.level[self.parent])
        levels, where = np.unique(self.level, return_inverse=True)
        scale = np.array([COVER_COEF * float(TAU) ** lev for lev in levels.tolist()])
        self.cover = np.where(self.is_leaf, 0.0, np.where(self.parent < 0, self.t, scale[where]))

    @property
    def n(self) -> int:
        """Number of points (one leaf each)."""
        return self.leaf_of.size

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    def children_of(self, v: int) -> list[int]:
        return self.child_ids[self.child_ptr[v] : self.child_ptr[v + 1]].tolist()

    def rel_of(self, v: int) -> list[int]:
        return self.rel_ids[self.rel_ptr[v] : self.rel_ptr[v + 1]].tolist()

    def points(self, v: int) -> np.ndarray:
        """Sorted point set of node v: the reps of the leaves of its subtree."""
        sub = slice(v, v + self.size[v])
        return np.sort(self.rep[sub][self.is_leaf[sub]])

    def root_of(self, v: int) -> int:
        return int(self.roots[np.searchsorted(self.roots, v, side="right") - 1])

    def roots_within_7t(self, cloud: PointCloud) -> dict[int, list[int]]:
        """Per-root ids of roots with representative distance <= 7t.

        These lists seed cross-tree searches (WSPD, WSSD) whose reach must
        not depend on how far the root level was rounded down. One exact
        radius query over the root representatives, for built and loaded
        forests alike.
        """
        roots = self.roots.tolist()
        reps = cloud.points[self.rep[self.roots]]
        near = ExactNearNeighbours(reps, 7.0 * self.t).near_rows(reps)
        return {r: [roots[j] for j in hits] for r, hits in zip(roots, near)}


def root_level(t: float) -> int:
    """floor(log_11((10/22) t)), nudged so exact powers round correctly."""
    if t <= 0:
        raise ValueError("scale cap t must be positive")
    x = (TAU - 1.0) / (2.0 * TAU) * t
    lev = math.floor(math.log(x, TAU))
    while TAU ** (lev + 1) <= x * (1 + _LOG_RTOL):
        lev += 1
    while TAU**lev > x * (1 + _LOG_RTOL):
        lev -= 1
    return lev


def build_net(cloud: PointCloud, t: float, nn) -> tuple[np.ndarray, list[int]]:
    """Greedy (t,t)-net with closest-net-point assignment.

    Returns the assigned net point N(p) of every input point and the net
    points in scan order. Scans points in ascending index order; each
    unassigned point becomes a net point and claims every point within t
    that is unassigned or strictly closer to it than to its current net
    point. `nn` maps a point index to the indices within distance t.
    """
    if t <= 0:
        raise ValueError("scale cap t must be positive")
    pts = cloud.points
    netpoint = np.full(cloud.n, -1, dtype=np.intp)
    nets: list[int] = []
    for p in range(cloud.n):
        if netpoint[p] != -1:
            continue
        netpoint[p] = p
        nets.append(p)
        qs = np.asarray(nn(p), dtype=np.intp)
        qs = qs[qs != p]
        if qs.size == 0:
            continue
        unassigned = qs[netpoint[qs] == -1]
        netpoint[unassigned] = p
        rest = qs[netpoint[qs] != p]
        if rest.size:
            d_new = np.linalg.norm(pts[rest] - pts[p], axis=1)
            d_cur = np.linalg.norm(pts[rest] - pts[netpoint[rest]], axis=1)
            netpoint[rest[d_new < d_cur]] = p
    return netpoint, nets


def build_root_rel(net_points: np.ndarray, t: float, nn7t) -> list[list[int]]:
    """Rel lists for the roots, as local positions.

    `net_points` are the root representatives (one row each); `nn7t` is a
    radius-7t primitive over exactly these rows, read through its
    `all_near_pairs`. Two roots are related when their representatives are
    within 14 * 11^root_level; that threshold is at most 7t, so the 7t pass
    suffices. All pairs are measured in one batch; those within a 1e-9
    relative band of the threshold are decided by the scalar norm.
    """
    net_points = np.asarray(net_points, dtype=np.float64)
    m = net_points.shape[0]
    threshold = REL_COEF * float(TAU) ** root_level(t)
    pairs = np.asarray(nn7t.all_near_pairs() if m > 1 else [], dtype=np.intp).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    dist = row_distances(net_points[i], net_points[j])
    keep = dist <= threshold
    for k in np.flatnonzero(np.abs(dist - threshold) <= 1e-9 * threshold):
        keep[k] = np.linalg.norm(net_points[i[k]] - net_points[j[k]]) <= threshold
    own = np.arange(m, dtype=np.intp)
    rows = np.concatenate((own, i[keep], j[keep]))
    cols = np.concatenate((own, j[keep], i[keep]))
    ends = np.cumsum(np.bincount(rows, minlength=m))
    return [c.tolist() for c in np.split(cols[np.lexsort((cols, rows))], ends)[:-1]]


# ---------------------------------------------------------------------------
# per-cluster tree construction
# ---------------------------------------------------------------------------


def _greedy_net(pts: np.ndarray, candidates: list[int], seeds: list[int], scale: float) -> list[int]:
    """Greedy subset with pairwise separation > scale, covering within scale.

    Seeds are kept unconditionally (they are already separated); remaining
    candidates are scanned in order.
    """
    kept: list[int] = list(seeds)
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


def build_cluster_tree(
    cloud: PointCloud, members: np.ndarray, rep: int, rl: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Net-tree of one cluster, rooted at `rep` with level `rl`.

    Nested greedy nets are built cluster-wide one level at a time (scale
    11^level); each net point attaches to the closest coarser net point.
    Chains of single-child cells are compressed away, so child levels may
    jump. Exactly-coincident points can never separate by distance and are
    split into sibling leaves directly below their site's node.

    Returns the fragment as `parent` (-1 at the root, node 0), `level` and
    `rep` arrays over local ids, in DFS preorder with children ascending.
    """
    members = np.sort(np.asarray(members, dtype=np.intp))
    pts = cloud.points
    if not np.any(members == rep):
        raise ValueError("cluster representative must belong to the cluster")

    # collapse exact duplicates onto sites (keyed by their lowest member
    # index); trees are built over sites
    _, first, inverse = np.unique(
        pts[members], axis=0, return_index=True, return_inverse=True
    )
    site_members: dict[int, list[int]] = {}
    for m, s in zip(members.tolist(), members[first[inverse.ravel()]].tolist()):
        site_members.setdefault(s, []).append(m)
    sites = sorted(site_members)
    if rep not in site_members:
        # rep coincides with a lower-indexed point; promote its site to rep
        s = next(s for s, ms in site_members.items() if rep in ms)
        site_members[rep] = site_members.pop(s)
        sites[sites.index(s)] = rep

    parent: list[int] = []
    level: list[int] = []
    reps: list[int] = []

    def new_node(rep_idx: int, lev: int, par: int) -> int:
        parent.append(par)
        level.append(lev)
        reps.append(rep_idx)
        return len(parent) - 1

    def attach_site(site: int, lev: int, par: int) -> None:
        """Node for a site cell: a leaf, or a split of coincident duplicates."""
        nid = new_node(site, lev, par)
        dups = site_members[site]
        if len(dups) > 1:
            for p in dups:
                new_node(p, lev - 1, nid)

    if len(sites) == 1:
        attach_site(rep, rl, -1)
        return tuple(np.array(a, dtype=np.intp) for a in (parent, level, reps))

    # nested nets from root level downward until every site is a net point
    nets: dict[int, list[int]] = {rl: [rep]}
    parent_net: dict[int, dict[int, int]] = {}
    lev = rl
    while len(nets[lev]) < len(sites):
        nxt = lev - 1
        scale = float(TAU) ** nxt
        net = _greedy_net(pts, sites, nets[lev], scale)
        # each net point attaches to the closest coarser net point
        coarse = nets[lev]
        coarse_pts = pts[np.asarray(coarse, dtype=np.intp)]
        attach: dict[int, int] = {}
        for w in net:
            d = np.linalg.norm(coarse_pts - pts[w], axis=1)
            attach[w] = coarse[int(np.argmin(d))]
        nets[nxt] = net
        parent_net[nxt] = attach
        lev = nxt
    bottom = lev

    # children of a net point u at level j are the level j-1 net points
    # attached to it; u is always one of them (the nets are nested)
    children_at: dict[tuple[int, int], list[int]] = {}
    for j in range(bottom, rl):
        for w, u in parent_net[j].items():
            children_at.setdefault((u, j + 1), []).append(w)
    for key in children_at:
        children_at[key].sort()

    def materialize(u: int, top: int, par: int) -> None:
        """Nodes for u's chain whose highest conceptual level is `top`.

        The stored level is the lowest chain level: the point set is
        unchanged until the cell either splits or bottoms out, and a chain
        that bottoms out holds the single site u.
        """
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
    return tuple(np.array(a, dtype=np.intp) for a in (parent, level, reps))


def build_forest(
    cloud: PointCloud,
    t: float,
    seed: int = 0,
    *,
    nn: str = "exact",
    rho: float = 0.5,
    delta: float = 0.1,
) -> NetForest:
    """Full pipeline: (t,t)-net, root rel at 7t, cluster trees, rel fill.

    `nn` selects the near-neighbour primitive: "exact" or "lsh". With LSH the
    net and rel structure is correct with probability >= (1-delta)^2 over the
    hash draws; rerun with the exact primitive to rule out probabilistic
    misses.
    """
    from . import lsh as _lsh

    if nn not in ("exact", "lsh"):
        raise ValueError("nn must be 'exact' or 'lsh'")

    if nn == "exact" or cloud.n < 2:
        nn_t = ExactNearNeighbours(cloud.points, t)
    else:
        params = _lsh.derive_params(cloud.n, t, rho, delta)
        nn_t = _lsh.LshIndex(cloud.points, params, seed)
    netpoint, nets = build_net(cloud, t, nn_t)

    m = len(nets)
    if m < 2:
        root_rel = [[0]]
    else:
        net_pts = cloud.points[np.asarray(nets, dtype=np.intp)]
        if nn == "exact":
            nn_7t = ExactNearNeighbours(net_pts, 7.0 * t)
        else:
            params7 = _lsh.derive_params(m, 7.0 * t, rho, delta)
            nn_7t = _lsh.LshIndex(net_pts, params7, seed + 1)
        root_rel = build_root_rel(net_pts, t, nn_7t)

    rl = root_level(t)
    fragments = [build_cluster_tree(cloud, np.flatnonzero(netpoint == p), p, rl) for p in nets]
    parent, level, rep = (np.concatenate([f[k] for f in fragments]) for k in range(3))
    sizes = [f[0].size for f in fragments]
    roots = np.cumsum([0] + sizes[:-1])
    parent = np.where(parent >= 0, parent + np.repeat(roots, sizes), -1)

    # root rel lists only; augment_rel fills every other level
    rel_owner = np.repeat(roots, [len(r) for r in root_rel])
    rel_ids = roots[np.concatenate(root_rel)]
    forest = NetForest(parent, level, rep, _csr_ptr(rel_owner, parent.size), rel_ids, t, rl)
    augment_rel(forest, cloud)
    return forest


# ---------------------------------------------------------------------------
# rel augmentation and level queries
# ---------------------------------------------------------------------------


def descend_to_level(forest: NetForest, node_id: int, level: int) -> list[int]:
    """Cells at `level` within the subtree of `node_id`, in id order.

    These are the subtree nodes whose level interval [low, high) holds
    `level`; the caller guarantees `level` is below `high[node_id]`.
    """
    sub = slice(node_id, node_id + forest.size[node_id])
    hit = (forest.low[sub] <= level) & (level < forest.high[sub])
    return (node_id + np.flatnonzero(hit)).tolist()


def augment_rel(forest: NetForest, cloud: PointCloud) -> None:
    """Fill rel lists for all non-root nodes, one distinct level L at a time.

    The rel list of a level-L node holds the level-L cells (nodes whose
    level interval holds L) with representative within 14 * 11^L: the
    definition `brute_force_rel` checks. One kd-tree radius query per level
    finds them. The paper fills these lists top-down from the parent's lists
    because it assumes only an approximate near-neighbour primitive; every
    candidate is kept or dropped by its exact distance either way, so the
    lists are the same. Root rel lists come from `build_root_rel` and are
    left as they are.
    """
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
        # the kd-tree radius is padded so that its own rounding cannot drop
        # a pair; the oracle's norm expression makes the final call on ties
        index = ExactNearNeighbours(pts[rep[cells]], threshold * (1 + 1e-9))
        for u, hits in zip(members.tolist(), index.near_rows(pts[rep[members]])):
            here = pts[rep[u]]
            for j in hits.tolist():
                if np.linalg.norm(here - index.points[j]) <= threshold:
                    rows.append(u)
                    cols.append(int(cells[j]))
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    forest.rel_ids = cols[np.lexsort((cols, rows))]
    forest.rel_ptr = _csr_ptr(rows, forest.n_nodes)


def brute_force_rel(forest: NetForest, cloud: PointCloud, u_id: int) -> list[int]:
    """Rel of one node by scanning every node: the equivalence oracle.

    Leaves behave as unboundedly low, roots as having a parent above every
    level; both come from the raw `parent` array. The radius coefficient
    is pinned here, independently of the construction code on purpose.
    """
    parent, level = forest.parent, forest.level
    lev = int(level[u_id])
    threshold = 14.0 * 11.0**lev
    leaf = ~np.isin(np.arange(parent.size), parent)
    root = parent < 0
    low_ok = leaf | (level <= lev)
    high_ok = root | (lev < level[np.where(root, 0, parent)])
    pts = cloud.points
    here = pts[forest.rep[u_id]]
    return [
        v
        for v in np.flatnonzero(low_ok & high_ok).tolist()
        if np.linalg.norm(here - pts[forest.rep[v]]) <= threshold
    ]


def extract_net(forest: NetForest, level: int) -> list[int]:
    """Representatives of the net at `level` (must not exceed the root level).

    A node represents its branch at `level` when its level interval holds
    `level`. At the root level this returns exactly the root
    representatives; below every leaf it returns every point.
    """
    if level > forest.root_level:
        raise ValueError(
            f"level {level} above the represented range (root level {forest.root_level})"
        )
    return np.unique(forest.rep[nodes_at_level(forest, level)]).tolist()


def nodes_at_level(forest: NetForest, level: int) -> list[int]:
    """Node ids forming the cell partition at `level`."""
    return np.flatnonzero((forest.low <= level) & (level < forest.high)).tolist()


def vcell(forest: NetForest, p: int, h: int) -> int:
    """Ancestor node of point p's leaf whose interval (low, high] contains h.

    That is the cell at level h - 1 holding p. Requires h below the root
    level, which guarantees the ancestor exists.
    """
    if h >= forest.root_level:
        raise ValueError(f"h={h} must be below the root level {forest.root_level}")
    if not 0 <= p < forest.n:
        raise ValueError(f"point {p} has no leaf in this forest")
    # below the answer every node's parent level is under h, so the first
    # ancestor with h <= high also has low < h
    v = int(forest.leaf_of[p])
    while forest.high[v] < h:
        v = int(forest.parent[v])
    return v


# ---------------------------------------------------------------------------
# invariant checker
# ---------------------------------------------------------------------------


def check_forest(forest: NetForest, cloud: PointCloud, rtol: float = 1e-9) -> list[str]:
    """All structural violations of the forest contracts; empty when valid.

    Violations are listed check by check, each in node order. Exact
    duplicate points are exempt from packing (coincident points can never
    be separated at any positive radius).
    """
    pts = cloud.points
    bad: list[str] = []
    t = forest.t
    rep, parent, size = forest.rep, forest.parent, forest.size

    rep_pts = pts[rep[forest.roots]]
    for p in range(cloud.n):
        d = np.linalg.norm(rep_pts - pts[p], axis=1)
        if float(d.min()) > t * (1 + rtol):
            bad.append(f"point {p} not covered by any root within t")
    for i in range(len(rep_pts)):
        d = np.linalg.norm(rep_pts[i + 1 :] - rep_pts[i], axis=1)
        bad += [f"roots {i},{i + 1 + j} closer than t" for j in np.flatnonzero(d <= t * (1 - rtol))]

    # the root ranges tile the ids and the leaf reps are 0..forest.n-1
    if forest.n != cloud.n:
        bad.append("root point sets do not partition the cloud")

    n_children = np.diff(forest.child_ptr)
    leaf_rank = np.concatenate(([0], np.cumsum(forest.is_leaf)))
    n_points = leaf_rank[np.arange(forest.n_nodes) + size] - leaf_rank[:-1]
    non_root = parent >= 0
    child = forest.child_ids
    inherited = np.zeros(forest.n_nodes, dtype=bool)
    inherited[parent[child][rep[child] == rep[parent[child]]]] = True
    for message, mask in [
        ("leaf with children", (n_points == 1) & (n_children > 0)),
        ("internal node with fewer than 2 children", (n_points != 1) & non_root & (n_children < 2)),
        ("rep not inherited from a child", (n_children > 0) & ~inherited),
        ("level not below parent", forest.level >= forest.high),
    ]:
        bad += [f"node {v}: {message}" for v in np.flatnonzero(mask)]

    # covering: the farthest point of every node, one ancestor step at a time
    far = np.zeros(forest.n_nodes)
    anc = np.flatnonzero(forest.is_leaf)
    point = rep[anc]
    while anc.size:
        np.maximum.at(far, anc, np.linalg.norm(pts[point] - pts[rep[anc]], axis=1))
        up = parent[anc] >= 0
        anc, point = parent[anc[up]], point[up]
    wide = np.flatnonzero(far > forest.cover * (1 + rtol))
    bad += [f"node {v}: covering radius exceeded" for v in wide]

    for root in forest.roots.tolist():
        tree = forest.points(root)
        for v in range(root + 1, root + size[root]):
            radius = PACK_COEF * float(TAU) ** int(forest.level[parent[v]])
            d = np.linalg.norm(pts[tree] - pts[rep[v]], axis=1)
            inside = tree[d <= radius * (1 - rtol)]
            leaf = forest.leaf_of[inside]
            outside = inside[(leaf < v) | (leaf >= v + size[v])]
            # coincident duplicates are exempt
            missing = [int(q) for q in outside if np.linalg.norm(pts[q] - pts[rep[v]]) > 0]
            if missing:
                bad.append(f"node {v}: packing misses points {missing}")
    return bad


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _csr_lists(ptr: np.ndarray, ids: np.ndarray) -> list[str]:
    """Comma-joined CSR slices, one string per node."""
    flat = ids.astype(str).tolist()
    bounds = ptr.tolist()
    return [",".join(flat[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def write_forest(path: str | Path, forest: NetForest, dim: int) -> None:
    lines = [
        "netforest v1 n=%d dim=%d t=%.17g tau=%d root_level=%d"
        % (forest.n, dim, forest.t, TAU, forest.root_level)
    ]
    parents = ["-" if p < 0 else str(p) for p in forest.parent.tolist()]
    children = _csr_lists(forest.child_ptr, forest.child_ids)
    rels = _csr_lists(forest.rel_ptr, forest.rel_ids)
    rows = zip(parents, forest.level.tolist(), forest.rep.tolist(), children, rels)
    lines += [
        f"node {v} parent={p} level={lev} rep={r} children={c} rel={s}"
        for v, (p, lev, r, c, s) in enumerate(rows)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_forest(path: str | Path) -> NetForest:
    """Inverse of `write_forest`; rejects files that are not a valid forest.

    Raises ValueError for malformed lines, ids that are not dense, children
    lists that disagree with the parent fields, ids that are not a DFS
    preorder, rel or rep ids out of range, and leaf reps that are not
    exactly the points 0..n-1 of the header.
    """
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("netforest v1 "):
        raise ValueError(f"{path}: not a netforest v1 file")
    try:
        header = dict(tok.split("=", 1) for tok in text[0].split()[2:])
        n, t, tau = int(header["n"]), float(header["t"]), int(header["tau"])
        rl = int(header["root_level"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header {text[0]!r}") from exc
    if tau != TAU:
        raise ValueError(f"{path}: unsupported tau {tau}")

    rows = []
    for line in text[1:]:
        if not line.strip():
            continue
        toks = line.split()
        if toks[0] != "node":
            raise ValueError(f"{path}: unexpected line {line!r}")
        try:
            fields = dict(tok.split("=", 1) for tok in toks[2:])
            rows.append((
                int(toks[1]),
                -1 if fields["parent"] == "-" else int(fields["parent"]),
                int(fields["level"]),
                int(fields["rep"]),
                [int(c) for c in fields["children"].split(",") if c],
                [int(r) for r in fields["rel"].split(",") if r],
            ))
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"{path}: malformed line {line!r}") from exc
    rows.sort(key=lambda row: row[0])
    if [row[0] for row in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: node ids must be dense")

    _, parent, level, rep, children, rel = zip(*rows) if rows else ((),) * 6
    rel_ptr = np.cumsum([0] + [len(r) for r in rel])
    try:
        forest = NetForest(parent, level, rep, rel_ptr, [r for rs in rel for r in rs], t, rl)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    flat = [c for cs in children for c in cs]
    counts = np.diff(forest.child_ptr).tolist()
    if flat != forest.child_ids.tolist() or list(map(len, children)) != counts:
        raise ValueError(f"{path}: children lists disagree with the parent fields")
    if forest.n != n:
        raise ValueError(f"{path}: the leaves hold {forest.n} points, header says n={n}")
    return forest
