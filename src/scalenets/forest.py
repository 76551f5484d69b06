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

Below the roots, the trees are one hierarchical net-tree cut off at t:
`build_cluster_tree` builds each level's greedy net (scale 11^level) for
every cluster at once, from the root level down.

`NetForest` holds all of this as arrays over node ids, which are a DFS
preorder: a subtree is an id range, and its point set is the reps of the
leaves in that range, so no node stores its points.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import lsh as _lsh
from .geometry import RTOL, ExactNearNeighbours, PointCloud, read_records, row_distances

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

    Made from `parent` (-1 at roots), `level`, `rep`, the rel lists in CSR
    form (node v's list is `rel_ids[rel_ptr[v]:rel_ptr[v + 1]]`) and the
    scale cap `t`. Everything else is derived:

        root_level            `root_level(t)`, the level of every root
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

    def __init__(self, parent, level, rep, rel_ptr, rel_ids, t: float):
        self.parent = np.asarray(parent, dtype=np.intp)
        self.level = np.asarray(level, dtype=np.int64)
        self.rep = np.asarray(rep, dtype=np.intp)
        self.rel_ptr = np.asarray(rel_ptr, dtype=np.intp)
        self.rel_ids = np.asarray(rel_ids, dtype=np.intp)
        self.t = float(t)
        self.root_level = root_level(self.t)
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
        if np.any(self.level[self.roots] != self.root_level):
            raise ValueError(f"a root is not at root_level(t={self.t!r}) = {self.root_level}")
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

    def roots_within_7t(self, cloud: PointCloud) -> dict[int, list[int]]:
        """Per-root ids of roots with representative distance <= 7t.

        These lists seed the WSSD's cross-tree search, whose reach must not
        depend on how far the root level was rounded down. One exact
        radius query over the root representatives, for built and loaded
        forests alike.
        """
        roots = self.roots.tolist()
        reps = cloud.points[self.rep[self.roots]]
        near = ExactNearNeighbours(reps, 7.0 * self.t).near_rows(reps)
        return {r: [roots[j] for j in hits] for r, hits in zip(roots, near)}


def root_level(t: float) -> int:
    """floor(log_11((10/22) t)), nudged so exact powers round correctly;
    ValueError unless (10/22) t is positive and finite."""
    x = (TAU - 1.0) / (2.0 * TAU) * t
    if not 0.0 < x < math.inf:
        raise ValueError(f"scale cap t={t!r} must be positive and finite")
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


def _within(a: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """Rows with |a[i] - b[i]| <= radius, measured in one batch; rows within a
    1e-9 relative band of `radius` are re-decided by `brute_force_rel`'s norm."""
    dist = row_distances(a, b)
    keep = dist <= radius
    for k in np.flatnonzero(np.abs(dist - radius) <= 1e-9 * radius):
        keep[k] = np.linalg.norm(a[k] - b[k]) <= radius
    return keep


def build_root_rel(net_points: np.ndarray, t: float, nn7t) -> list[list[int]]:
    """Rel lists for the roots, as local positions.

    `net_points` are the root representatives (one row each); `nn7t` is a
    radius-7t primitive over exactly these rows, read through its
    `all_near_pairs`. Two roots are related when their representatives are
    within 14 * 11^root_level; that threshold is at most 7t, so the 7t pass
    suffices.
    """
    net_points = np.asarray(net_points, dtype=np.float64)
    m = net_points.shape[0]
    threshold = REL_COEF * float(TAU) ** root_level(t)
    pairs = np.asarray(nn7t.all_near_pairs() if m > 1 else [], dtype=np.intp).reshape(-1, 2)
    i, j = pairs[_within(net_points[pairs[:, 0]], net_points[pairs[:, 1]], threshold)].T
    own = np.arange(m, dtype=np.intp)
    rows = np.concatenate((own, i, j))
    cols = np.concatenate((own, j, i))
    ends = np.cumsum(np.bincount(rows, minlength=m))
    return [c.tolist() for c in np.split(cols[np.lexsort((cols, rows))], ends)[:-1]]


# ---------------------------------------------------------------------------
# net-trees of all clusters, one level at a time
# ---------------------------------------------------------------------------

# pending sites decided per batch of a level's greedy net; bounds the pair
# list of a batch whose sites all lie within the level's scale of each other
_NET_BATCH = 256


def _close_pairs(pts, cluster, a, b, radius):
    """Positions i, j and distances of the same-cluster points a[i], b[j] at
    most `radius` apart. The row norm gives a pair the same value in any
    batch, so ties at `radius` do not depend on how sites are batched."""
    i, j = ExactNearNeighbours(pts[b], radius * (1 + 1e-9)).near_pairs(pts[a])
    same = cluster[a[i]] == cluster[b[j]]
    i, j = i[same], j[same]
    dist = np.linalg.norm(pts[b[j]] - pts[a[i]], axis=1)
    close = dist <= radius
    return i[close], j[close], dist[close]


def _greedy_level(pts, cluster, net, pending, scale):
    """The pending sites that join the net at `scale`, ascending.

    Scanned in ascending order, a site joins when no net point of its
    cluster, old or new, lies within `scale`. Each batch is first cleared
    against the net points before it; only its sites that conflict with
    each other are then decided one at a time.
    """
    joined = []
    blockers = net
    while pending.size:
        near, _, _ = _close_pairs(pts, cluster, pending, blockers, scale)
        pending = np.delete(pending, near)
        batch, pending = pending[:_NET_BATCH], pending[_NET_BATCH:]
        i, j, _ = _close_pairs(pts, cluster, batch, batch, scale)
        earlier, later = i[i < j], j[i < j]
        earlier = earlier[np.argsort(later, kind="stable")]
        ptr = _csr_ptr(later, batch.size).tolist()
        keep = np.ones(batch.size, dtype=bool)
        for c in np.unique(later).tolist():
            keep[c] = not keep[earlier[ptr[c] : ptr[c + 1]]].any()
        blockers = batch[keep]
        joined.append(blockers)
    return np.concatenate(joined)


def build_cluster_tree(
    cloud: PointCloud, netpoint: np.ndarray, rl: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Net-trees of all clusters, built together one level at a time.

    `netpoint` maps each point to its cluster's representative, which roots
    the cluster's tree at level `rl` and is the lowest index of the points
    coinciding with it (as `build_net` assigns them). Exact duplicates
    collapse onto sites, their lowest index. From `rl` down, each level's
    greedy net (scale 11^level) is built for every cluster at once, and each
    new net point attaches to the closest coarser one of its cluster (ties:
    earlier join level, then lower index). Single-child chains are
    compressed, so child levels may jump, except at the roots. Coincident
    points split into sibling leaves directly below their site's node.

    Returns `parent` (-1 at roots), `level` and `rep` over node ids: a DFS
    preorder with roots, and every node's children, in ascending rep order.
    """
    pts, n = cloud.points, cloud.n
    cluster = np.asarray(netpoint, dtype=np.intp)
    if cluster.shape != (n,) or np.any(cluster[cluster] != cluster):
        raise ValueError("every point must map to a representative that maps to itself")

    # a site is the lowest index of its (cluster, coordinates) group
    order = np.lexsort((*pts.T, cluster))
    key = np.column_stack((cluster, pts))[order]
    fresh = np.concatenate(([True], np.any(key[1:] != key[:-1], axis=1)))
    site_of = np.empty(n, dtype=np.intp)
    site_of[order] = order[fresh][np.cumsum(fresh) - 1]
    roots = np.flatnonzero(cluster == np.arange(n))
    if np.any(site_of[roots] != roots):
        raise ValueError("a representative must be the lowest index of its duplicates")

    # join[u]: level of the first net holding site u; up[u]: the coarser net
    # point it attaches to (-1 at roots)
    join = np.full(n, rl, dtype=np.int64)
    up = np.full(n, -1, dtype=np.intp)
    net = roots
    pending = np.setdiff1d(np.flatnonzero(site_of == np.arange(n)), roots)
    lev = rl
    while pending.size:
        coarse = net[np.isin(cluster[net], cluster[pending])]
        new = _greedy_level(pts, cluster, coarse, pending, float(TAU) ** (lev - 1))
        if lev == rl:
            up[new] = cluster[new]
        else:
            # every new net point has a coarser one within 11^lev
            i, j, dist = _close_pairs(pts, cluster, new, coarse, float(TAU) ** lev)
            closest = np.lexsort((coarse[j], -join[coarse[j]], dist, i))
            first = closest[np.unique(i[closest], return_index=True)[1]]
            up[new[i[first]]] = coarse[j[first]]
        join[new] = lev - 1
        net = np.concatenate((net, new))
        pending = np.setdiff1d(pending, new, assume_unique=True)
        lev -= 1

    # each net point's children, grouped by join level, highest first
    kids = np.lexsort((-join, up))[np.count_nonzero(up < 0) :]
    kid_ptr = _csr_ptr(up[kids], n).tolist()
    next_kid, end = kid_ptr[:-1], kid_ptr[1:]
    kid_join, kids = join[kids].tolist(), kids.tolist()
    dup_ptr = _csr_ptr(site_of, n).tolist()
    dups = np.argsort(site_of, kind="stable").tolist()

    nodes: list[tuple[int, int, int]] = []  # (parent, level, rep) in preorder
    stack = [(r, rl, -1) for r in reversed(roots.tolist())]
    while stack:
        u, top, par = stack.pop()
        nid = len(nodes)
        k = next_kid[u]
        if k == end[u]:
            # a site cell: a leaf, or a split of coincident points
            same = dups[dup_ptr[u] : dup_ptr[u + 1]]
            nodes += [(par, top, u)] + [(nid, top - 1, p) for p in same if len(same) > 1]
            continue
        # the cell splits where u's next children join (a root always at rl)
        split = top if par < 0 else kid_join[k] + 1
        stop = k
        while stop < end[u] and kid_join[stop] == split - 1:
            stop += 1
        next_kid[u] = stop
        nodes.append((par, split, u))
        stack += [(w, split - 1, nid) for w in sorted(kids[k:stop] + [u], reverse=True)]
    return tuple(np.array(a, dtype=np.intp) for a in zip(*nodes))


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
    if nn not in ("exact", "lsh"):
        raise ValueError("nn must be 'exact' or 'lsh'")
    rl = root_level(t)

    def primitive(points: np.ndarray, r: float, draw: int):
        if nn == "exact" or len(points) < 2:
            return ExactNearNeighbours(points, r)
        return _lsh.LshIndex(points, _lsh.derive_params(len(points), r, rho, delta), draw)

    # no name holds the radius-t index, the largest object of an LSH build,
    # once the net is built
    netpoint, nets = build_net(cloud, t, primitive(cloud.points, t, seed))
    net_pts = cloud.points[np.asarray(nets, dtype=np.intp)]
    root_rel = build_root_rel(net_pts, t, primitive(net_pts, 7.0 * t, seed + 1))

    parent, level, rep = build_cluster_tree(cloud, netpoint, rl)
    # roots come in `nets` order; root rel lists only, augment_rel fills the rest
    roots = np.flatnonzero(parent < 0)
    rel_owner = np.repeat(roots, [len(r) for r in root_rel])
    rel_ids = roots[np.concatenate(root_rel)]
    forest = NetForest(parent, level, rep, _csr_ptr(rel_owner, parent.size), rel_ids, t)
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
    definition `brute_force_rel` checks. One kd-tree pair query per level
    finds the candidates, and `_within` decides them in one batch. The paper
    fills these lists top-down from the parent's lists because it assumes
    only an approximate near-neighbour primitive; every candidate is kept or
    dropped by its exact distance either way, so the lists are the same.
    Root rel lists come from `build_root_rel` and are left as they are.
    """
    pts = cloud.points
    rep = forest.rep
    owner = np.repeat(np.arange(forest.n_nodes), np.diff(forest.rel_ptr))
    at_root = forest.parent[owner] < 0
    rows, cols = [owner[at_root]], [forest.rel_ids[at_root]]
    non_root = forest.parent >= 0
    for lev in np.unique(forest.level[non_root]).tolist():
        members = np.flatnonzero(non_root & (forest.level == lev))
        cells = np.flatnonzero((forest.low <= lev) & (lev < forest.high))
        threshold = REL_COEF * float(TAU) ** lev
        # the kd-tree radius is padded so that its own rounding cannot drop
        # a pair; `_within` makes the final call
        index = ExactNearNeighbours(pts[rep[cells]], threshold * (1 + 1e-9))
        i, j = index.near_pairs(pts[rep[members]])
        u, v = members[i], cells[j]
        keep = _within(pts[rep[u]], pts[rep[v]], threshold)
        rows.append(u[keep])
        cols.append(v[keep])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
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


def check_forest(forest: NetForest, cloud: PointCloud) -> list[str]:
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
        if float(d.min()) > t * (1 + RTOL):
            bad.append(f"point {p} not covered by any root within t")
    for i in range(len(rep_pts)):
        d = np.linalg.norm(rep_pts[i + 1 :] - rep_pts[i], axis=1)
        bad += [f"roots {i},{i + 1 + j} closer than t" for j in np.flatnonzero(d <= t * (1 - RTOL))]

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
    wide = np.flatnonzero(far > forest.cover * (1 + RTOL))
    bad += [f"node {v}: covering radius exceeded" for v in wide]

    for root in forest.roots.tolist():
        tree = forest.points(root)
        for v in range(root + 1, root + size[root]):
            radius = PACK_COEF * float(TAU) ** int(forest.level[parent[v]])
            d = np.linalg.norm(pts[tree] - pts[rep[v]], axis=1)
            inside = tree[d <= radius * (1 - RTOL)]
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
    preorder, rel or rep ids out of range, leaf reps that are not exactly
    the points 0..n-1 of the header, a t without a root level, and a root
    line or header `root_level` other than `root_level(t)`.
    """
    (n, t, tau, rl), body = read_records(path, "netforest", n=int, t=float, tau=int, root_level=int)
    if tau != TAU:
        raise ValueError(f"{path}: unsupported tau {tau}")

    rows = []
    for toks in body:
        if toks[0] != "node":
            raise ValueError(f"{path}: unexpected line {' '.join(toks)!r}")
        try:
            # split inline: a `parse_fields` call per node line costs a fifth
            # of this loop
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
            raise ValueError(f"{path}: malformed line {' '.join(toks)!r}") from exc
    rows.sort(key=lambda row: row[0])
    if [row[0] for row in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: node ids must be dense")

    _, parent, level, rep, children, rel = zip(*rows) if rows else ((),) * 6
    rel_ptr = np.cumsum([0] + [len(r) for r in rel])
    try:
        forest = NetForest(parent, level, rep, rel_ptr, [r for rs in rel for r in rs], t)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    flat = [c for cs in children for c in cs]
    counts = np.diff(forest.child_ptr).tolist()
    if flat != forest.child_ids.tolist() or list(map(len, children)) != counts:
        raise ValueError(f"{path}: children lists disagree with the parent fields")
    if forest.n != n:
        raise ValueError(f"{path}: the leaves hold {forest.n} points, header says n={n}")
    if forest.root_level != rl:
        raise ValueError(f"{path}: header root_level={rl} is not root_level(t={t!r})")
    return forest
