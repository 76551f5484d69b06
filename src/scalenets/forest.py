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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import ExactNearNeighbours, PointCloud, row_distances

__all__ = [
    "TAU",
    "COVER_COEF",
    "PACK_COEF",
    "REL_COEF",
    "NetNode",
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


@dataclass
class NetNode:
    """One forest node. `points` is the sorted index set of its subtree."""

    id: int
    rep: int
    level: int
    parent: int | None
    children: list[int] = field(default_factory=list)
    points: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    rel: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return len(self.points) == 1

    @property
    def is_root(self) -> bool:
        return self.parent is None


class NetForest:
    def __init__(self, nodes: list[NetNode], roots: list[int], t: float, rl: int):
        self.nodes = nodes
        self.roots = roots
        self.t = float(t)
        self.root_level = int(rl)
        # leaf lookup: point index -> leaf node id
        self.leaf_of: dict[int, int] = {}
        for node in nodes:
            if node.is_leaf:
                self.leaf_of[int(node.points[0])] = node.id

    @property
    def n(self) -> int:
        return len(self.leaf_of)

    def root_of(self, node_id: int) -> int:
        v = self.nodes[node_id]
        while v.parent is not None:
            v = self.nodes[v.parent]
        return v.id

    def roots_within_7t(self, cloud: PointCloud) -> dict[int, list[int]]:
        """Per-root ids of roots with representative distance <= 7t.

        These lists seed cross-tree searches (WSPD, WSSD) whose reach must
        not depend on how far the root level was rounded down. One exact
        radius query over the root representatives, for built and loaded
        forests alike.
        """
        reps = cloud.points[np.asarray([self.nodes[r].rep for r in self.roots], dtype=np.intp)]
        near = ExactNearNeighbours(reps, 7.0 * self.t).near_rows(reps)
        return {r: [self.roots[j] for j in hits] for r, hits in zip(self.roots, near)}


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
) -> list[NetNode]:
    """Net-tree of one cluster, rooted at `rep` with level `rl`.

    Nested greedy nets are built cluster-wide one level at a time (scale
    11^level); each net point attaches to the closest coarser net point.
    Chains of single-child cells are compressed away, so child levels may
    jump. Exactly-coincident points can never separate by distance and are
    split into sibling leaves directly below their site's node.

    Returns an arena fragment with local ids; node 0 is the root.
    """
    members = np.asarray(sorted(int(m) for m in members), dtype=np.intp)
    pts = cloud.points
    if rep not in set(members.tolist()):
        raise ValueError("cluster representative must belong to the cluster")

    # collapse exact duplicates onto sites (keyed by their lowest member
    # index); trees are built over sites
    _, first, inverse = np.unique(
        pts[members], axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.ravel()
    site_members: dict[int, list[int]] = {}
    for pos, m in enumerate(members.tolist()):
        s = int(members[first[inverse[pos]]])
        site_members.setdefault(s, []).append(m)
    sites = sorted(site_members)
    if rep not in site_members:
        # rep coincides with a lower-indexed point; promote its site to rep
        s = next(s for s, ms in site_members.items() if rep in ms)
        site_members[rep] = site_members.pop(s)
        sites[sites.index(s)] = rep

    nodes: list[NetNode] = []

    def new_node(rep_idx: int, level: int, parent: int | None) -> int:
        nid = len(nodes)
        nodes.append(NetNode(id=nid, rep=rep_idx, level=level, parent=parent))
        return nid

    def leaf_points(site: int) -> np.ndarray:
        return np.asarray(sorted(site_members[site]), dtype=np.intp)

    def attach_site(site: int, level: int, parent: int) -> int:
        """Node for a site cell: a leaf, or a split of coincident duplicates."""
        nid = new_node(site, level, parent)
        dups = sorted(site_members[site])
        if len(dups) == 1:
            nodes[nid].points = leaf_points(site)
            return nid
        nodes[nid].points = np.asarray(dups, dtype=np.intp)
        for p in dups:
            child = new_node(p, level - 1, nid)
            nodes[child].points = np.asarray([p], dtype=np.intp)
            nodes[nid].children.append(child)
        return nid

    if len(sites) == 1:
        root = new_node(rep, rl, None)
        dups = sorted(site_members[rep])
        nodes[root].points = np.asarray(dups, dtype=np.intp)
        if len(dups) > 1:
            for p in dups:
                child = new_node(p, rl - 1, root)
                nodes[child].points = np.asarray([p], dtype=np.intp)
                nodes[root].children.append(child)
        return nodes

    # nested nets from root level downward until every site is a net point
    nets: dict[int, list[int]] = {rl: [rep]}
    parent_net: dict[int, dict[int, int]] = {}
    level = rl
    while len(nets[level]) < len(sites):
        nxt = level - 1
        scale = float(TAU) ** nxt
        net = _greedy_net(pts, sites, nets[level], scale)
        # each net point attaches to the closest coarser net point
        coarse = nets[level]
        coarse_pts = pts[np.asarray(coarse, dtype=np.intp)]
        attach: dict[int, int] = {}
        for w in net:
            d = np.linalg.norm(coarse_pts - pts[w], axis=1)
            attach[w] = coarse[int(np.argmin(d))]
        nets[nxt] = net
        parent_net[nxt] = attach
        level = nxt
    bottom = level

    # children of a net point u at level j are the level j-1 net points
    # attached to it
    children_at: dict[tuple[int, int], list[int]] = {}
    for j in range(bottom, rl):
        for w, u in parent_net[j].items():
            children_at.setdefault((u, j + 1), []).append(w)
    for key in children_at:
        children_at[key].sort()

    def cell_sites(u: int, j: int) -> list[int]:
        if j == bottom:
            return [u]
        out: list[int] = []
        for w in children_at.get((u, j), [u]):
            out.extend(cell_sites(w, j - 1))
        return sorted(out)

    def materialize(u: int, top: int, parent: int) -> int:
        """Node for u's chain whose highest conceptual level is `top`.

        The stored level is the lowest chain level: the point set is
        unchanged until the cell either splits or bottoms out.
        """
        j = top
        while j > bottom:
            ch = children_at.get((u, j), [u])
            if ch != [u]:
                break
            j -= 1
        cell = cell_sites(u, j)
        if len(cell) == 1:
            return attach_site(u, top, parent)
        nid = new_node(u, j, parent)
        nodes[nid].points = np.asarray(
            sorted(p for s in cell for p in site_members[s]), dtype=np.intp
        )
        for w in children_at[(u, j)]:
            child = materialize(w, j - 1, nid)
            nodes[nid].children.append(child)
        return nid

    root = new_node(rep, rl, None)
    nodes[root].points = np.asarray(
        sorted(p for s in sites for p in site_members[s]), dtype=np.intp
    )
    top_children = children_at.get((rep, rl), [rep])
    if top_children == [rep]:
        child = materialize(rep, rl - 1, root)
        nodes[root].children.append(child)
    else:
        for w in top_children:
            nodes[root].children.append(materialize(w, rl - 1, root))
    return nodes


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
        root_rel = [[0]] if m == 1 else []
    else:
        net_pts = cloud.points[np.asarray(nets, dtype=np.intp)]
        if nn == "exact":
            nn_7t = ExactNearNeighbours(net_pts, 7.0 * t)
        else:
            params7 = _lsh.derive_params(m, 7.0 * t, rho, delta)
            nn_7t = _lsh.LshIndex(net_pts, params7, seed + 1)
        root_rel = build_root_rel(net_pts, t, nn_7t)

    rl = root_level(t)
    all_nodes: list[NetNode] = []
    roots: list[int] = []
    for pos, net_pt in enumerate(nets):
        members = np.flatnonzero(netpoint == net_pt)
        fragment = build_cluster_tree(cloud, members, net_pt, rl)
        offset = len(all_nodes)
        for node in fragment:
            node.id += offset
            if node.parent is not None:
                node.parent += offset
            node.children = [c + offset for c in node.children]
        all_nodes.extend(fragment)
        roots.append(offset)

    forest = NetForest(all_nodes, roots, t, rl)
    for i in range(m):
        all_nodes[roots[i]].rel = sorted(roots[j] for j in root_rel[i])
    augment_rel(forest, cloud)
    return forest


# ---------------------------------------------------------------------------
# rel augmentation and level queries
# ---------------------------------------------------------------------------


def descend_to_level(forest: NetForest, node_id: int, level: int) -> list[int]:
    """Cells at `level` within the subtree of `node_id`.

    A node is the cell of its branch at `level` when its own level is at
    most `level` (leaves count as unboundedly low) while its parent's is
    above. The caller guarantees `level` is below the parent interval of
    `node_id`.
    """
    out: list[int] = []
    stack = [node_id]
    while stack:
        v = forest.nodes[stack.pop()]
        if v.is_leaf or v.level <= level:
            out.append(v.id)
        else:
            stack.extend(reversed(v.children))
    return out


def augment_rel(forest: NetForest, cloud: PointCloud) -> None:
    """Fill rel lists for all non-root nodes, one distinct level L at a time.

    The rel list of a level-L node holds the level-L cells (nodes at level
    at most L, or leaves, whose parent sits above L, or roots) with
    representative within 14 * 11^L: the definition `brute_force_rel`
    checks. One kd-tree radius query per level finds them. The paper fills
    these lists top-down from the parent's lists because it assumes only an
    approximate near-neighbour primitive; every candidate is kept or dropped
    by its exact distance either way, so the lists are the same. Root rel
    lists come from `build_root_rel` and are left as they are.
    """
    pts = cloud.points
    nodes = forest.nodes
    rep = np.array([v.rep for v in nodes], dtype=np.intp)
    level = np.array([v.level for v in nodes])
    low = np.where([v.is_leaf for v in nodes], -np.inf, level)
    high = np.array([np.inf if v.is_root else nodes[v.parent].level for v in nodes])
    non_root = np.isfinite(high)
    for lev in np.unique(level[non_root]).tolist():
        members = np.flatnonzero(non_root & (level == lev))
        cells = np.flatnonzero((low <= lev) & (lev < high))
        threshold = REL_COEF * float(TAU) ** lev
        # the kd-tree radius is padded so that its own rounding cannot drop
        # a pair; the oracle's norm expression makes the final call on ties
        index = ExactNearNeighbours(pts[rep[cells]], threshold * (1 + 1e-9))
        for u, hits in zip(members.tolist(), index.near_rows(pts[rep[members]])):
            here = pts[rep[u]]
            nodes[u].rel = [
                int(cells[j]) for j in hits if np.linalg.norm(here - index.points[j]) <= threshold
            ]


def brute_force_rel(forest: NetForest, cloud: PointCloud, u_id: int) -> list[int]:
    """Rel of one node by scanning every node: the equivalence oracle.

    Level conventions match the tree semantics: leaves behave as unboundedly
    low, roots as having a parent above every level. The radius coefficient
    is pinned here independently of the construction code on purpose.
    """
    u = forest.nodes[u_id]
    threshold = 14.0 * 11.0**u.level
    pts = cloud.points
    out: list[int] = []
    for v in forest.nodes:
        low_ok = v.is_leaf or v.level <= u.level
        high_ok = v.is_root or u.level < forest.nodes[v.parent].level
        if not (low_ok and high_ok):
            continue
        if np.linalg.norm(pts[u.rep] - pts[v.rep]) <= threshold:
            out.append(v.id)
    return sorted(out)


def extract_net(forest: NetForest, level: int) -> list[int]:
    """Representatives of the net at `level` (must not exceed the root level).

    A node represents its branch at `level` when its own level is at most
    `level` (leaves always qualify) and `level` lies below its parent's
    level (roots always qualify). At the root level this returns exactly the
    root representatives; below every leaf it returns every point.
    """
    if level > forest.root_level:
        raise ValueError(
            f"level {level} above the represented range (root level {forest.root_level})"
        )
    reps: list[int] = []
    for v in forest.nodes:
        low_ok = v.is_leaf or v.level <= level
        high_ok = v.is_root or level < forest.nodes[v.parent].level
        if low_ok and high_ok:
            reps.append(v.rep)
    return sorted(set(reps))


def nodes_at_level(forest: NetForest, level: int) -> list[int]:
    """Node ids forming the cell partition at `level`."""
    out: list[int] = []
    for root in forest.roots:
        v = forest.nodes[root]
        if v.is_leaf or v.level <= level:
            out.append(root)
        else:
            out.extend(descend_to_level(forest, root, level))
    return out


def vcell(forest: NetForest, p: int, h: int) -> int:
    """Ancestor node of point p's leaf whose level interval contains h.

    The interval is (level, parent level]; leaves extend to minus infinity.
    Requires h below the root level, which guarantees the ancestor exists.
    """
    if h >= forest.root_level:
        raise ValueError(f"h={h} must be below the root level {forest.root_level}")
    if p not in forest.leaf_of:
        raise ValueError(f"point {p} has no leaf in this forest")
    v = forest.nodes[forest.leaf_of[p]]
    while True:
        low_ok = v.is_leaf or v.level < h
        high_ok = v.is_root or h <= forest.nodes[v.parent].level
        if low_ok and high_ok:
            return v.id
        if v.parent is None:  # pragma: no cover - blocked by the h precondition
            raise RuntimeError("no ancestor satisfies the level interval")
        v = forest.nodes[v.parent]


# ---------------------------------------------------------------------------
# invariant checker
# ---------------------------------------------------------------------------


def check_forest(forest: NetForest, cloud: PointCloud, rtol: float = 1e-9) -> list[str]:
    """All structural violations of the forest contracts; empty when valid.

    Exact duplicate points are exempt from packing (coincident points can
    never be separated at any positive radius).
    """
    pts = cloud.points
    bad: list[str] = []
    t = forest.t

    rep_ids = [forest.nodes[r].rep for r in forest.roots]
    rep_pts = pts[np.asarray(rep_ids, dtype=np.intp)]
    for p in range(cloud.n):
        d = np.linalg.norm(rep_pts - pts[p], axis=1)
        if float(d.min()) > t * (1 + rtol):
            bad.append(f"point {p} not covered by any root within t")
    for i in range(len(rep_ids)):
        for j in range(i + 1, len(rep_ids)):
            if np.linalg.norm(rep_pts[i] - rep_pts[j]) <= t * (1 - rtol):
                bad.append(f"roots {i},{j} closer than t")

    seen = np.zeros(cloud.n, dtype=np.intp)
    for r in forest.roots:
        seen[forest.nodes[r].points] += 1
    if not np.all(seen == 1):
        bad.append("root point sets do not partition the cloud")

    for v in forest.nodes:
        if v.is_leaf and len(v.children) != 0:
            bad.append(f"node {v.id}: leaf with children")
        if not v.is_leaf and not v.is_root and len(v.children) < 2:
            bad.append(f"node {v.id}: internal node with fewer than 2 children")
        if v.children:
            child_reps = {forest.nodes[c].rep for c in v.children}
            if v.rep not in child_reps:
                bad.append(f"node {v.id}: rep not inherited from a child")
        if v.parent is not None:
            parent = forest.nodes[v.parent]
            if v.level >= parent.level:
                bad.append(f"node {v.id}: level not below parent")
            if v.id not in parent.children:
                bad.append(f"node {v.id}: missing from parent's child list")

        cover = t if v.is_root else COVER_COEF * float(TAU) ** v.level
        d = np.linalg.norm(pts[v.points] - pts[v.rep], axis=1)
        if v.points.size and float(d.max()) > cover * (1 + rtol):
            bad.append(f"node {v.id}: covering radius exceeded")

        if v.parent is not None:
            radius = PACK_COEF * float(TAU) ** forest.nodes[v.parent].level
            tree_points = forest.nodes[forest.root_of(v.id)].points
            d = np.linalg.norm(pts[tree_points] - pts[v.rep], axis=1)
            inside = tree_points[d <= radius * (1 - rtol)]
            missing = np.setdiff1d(inside, v.points)
            # coincident duplicates are exempt
            missing = [
                int(q)
                for q in missing
                if np.linalg.norm(pts[q] - pts[v.rep]) > 0
            ]
            if missing:
                bad.append(f"node {v.id}: packing misses points {missing}")
    return bad


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_forest(path: str | Path, forest: NetForest, dim: int) -> None:
    lines = [
        "netforest v1 n=%d dim=%d t=%.17g tau=%d root_level=%d"
        % (forest.n, dim, forest.t, TAU, forest.root_level)
    ]
    for v in forest.nodes:
        parent = "-" if v.parent is None else str(v.parent)
        children = ",".join(str(c) for c in v.children)
        rel = ",".join(str(r) for r in v.rel)
        lines.append(
            f"node {v.id} parent={parent} level={v.level} rep={v.rep} "
            f"children={children} rel={rel}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_forest(path: str | Path) -> NetForest:
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("netforest v1 "):
        raise ValueError(f"{path}: not a netforest v1 file")
    header = dict(tok.split("=", 1) for tok in text[0].split()[2:])
    t = float(header["t"])
    rl = int(header["root_level"])
    if int(header["tau"]) != TAU:
        raise ValueError(f"{path}: unsupported tau {header['tau']}")

    nodes: list[NetNode] = []
    for line in text[1:]:
        if not line.strip():
            continue
        toks = line.split()
        if toks[0] != "node":
            raise ValueError(f"{path}: unexpected line {line!r}")
        fields = dict(tok.split("=", 1) for tok in toks[2:])
        nodes.append(
            NetNode(
                id=int(toks[1]),
                rep=int(fields["rep"]),
                level=int(fields["level"]),
                parent=None if fields["parent"] == "-" else int(fields["parent"]),
                children=[int(c) for c in fields["children"].split(",") if c],
                rel=[int(r) for r in fields["rel"].split(",") if r],
            )
        )
    nodes.sort(key=lambda v: v.id)
    if [v.id for v in nodes] != list(range(len(nodes))):
        raise ValueError(f"{path}: node ids must be dense")

    # rebuild subtree point sets from the leaves upward
    for v in nodes:
        if not v.children:
            v.points = np.asarray([v.rep], dtype=np.intp)
    remaining = [v for v in nodes if v.children]
    while remaining:
        progressed = []
        for v in remaining:
            if all(nodes[c].points.size for c in v.children):
                v.points = np.asarray(
                    sorted(int(p) for c in v.children for p in nodes[c].points),
                    dtype=np.intp,
                )
            else:
                progressed.append(v)
        if len(progressed) == len(remaining):
            raise ValueError(f"{path}: cyclic parent/child structure")
        remaining = progressed

    # leaves written from duplicate splits carry their own point: recover the
    # original leaf point from rep (unique per leaf by construction)
    roots = [v.id for v in nodes if v.parent is None]
    n = sum(nodes[r].points.size for r in roots)
    if n != int(header["n"]):
        # duplicate-point forests store distinct leaf points; rep repetition
        # would break the reconstruction above
        raise ValueError(f"{path}: reconstructed {n} points, header says {header['n']}")
    return NetForest(nodes, roots, t, rl)
