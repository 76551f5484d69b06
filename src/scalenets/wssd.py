"""Scale-restricted well-separated simplicial decompositions.

Generalizes the pair decomposition to tuples: a tuple of forest nodes is
epsilon-well-separated when any ball touching every node, inflated by
(1+epsilon), contains the union of the node point sets. The tier-j
collection covers every j-simplex whose minimum enclosing ball has radius
at most t.

Tier 1 is a (2t)-restricted pair decomposition at separation epsilon/2 (a
1-simplex fits in a radius-t ball exactly when its endpoints are within
2t), built on a forest at scale 2t. Higher tiers extend each tuple by the
cells, at a level tied to the tuple's approximate enclosing ball, that lie
within the region where a new simplex vertex could make the extended
simplex still fit in a radius-t ball; one kd-tree query per cell level
finds them for a whole tier.

Each tier is one (m, j+1) array of node ids. The balls are not kept: they
are computed for a tier only when it is extended, and only the extension
reads them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

# `descend_to_level` is not called here; perfbench's tracer wraps the name
# `wssd.descend_to_level`, and its smoke test requires every traced name to resolve
from .forest import COVER_COEF, REL_COEF, TAU, NetForest, descend_to_level  # noqa: F401
from .geometry import (
    RTOL, Ball, PointCloud, exact_meb, match_rows, pairwise_distances, read_records, row_distances,
)
from .wspd import gen_wspd

__all__ = [
    "approx_meb",
    "Wssd",
    "WssdReport",
    "gen_wssd",
    "verify_wssd",
    "write_wssd",
    "read_wssd",
]

_LEVEL_FLOOR = -250  # below any scale a float64 coordinate can resolve
DELTA_MEB = 0.05  # approximation budget of the enclosing balls
ORACLE_MAX_N = 62  # largest cloud `verify_wssd` accepts


def _approx_meb_batch(pts: np.ndarray, delta_meb: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii for a (T, m, d) stack of equal-size point sets.

    Iterative center shift: start at the first point and repeatedly move a
    shrinking fraction toward the farthest point for ceil(1/delta^2) rounds.
    Same arithmetic as the scalar path, vectorized across the T sets.
    """
    if not 0.0 < delta_meb <= 0.5:
        raise ValueError("delta_meb must lie in (0, 1/2]")
    centers = pts[:, 0, :].copy()
    rounds = int(math.ceil(1.0 / delta_meb**2))
    rows = np.arange(pts.shape[0])
    for i in range(1, rounds + 1):
        diff = pts - centers[:, None, :]
        far = np.argmax(np.einsum("tmd,tmd->tm", diff, diff), axis=1)
        centers += (pts[rows, far, :] - centers) / (i + 1.0)
    diff = pts - centers[:, None, :]
    radii = np.sqrt(np.einsum("tmd,tmd->tm", diff, diff).max(axis=1))
    return centers, radii


def approx_meb(points: np.ndarray, delta_meb: float = DELTA_MEB) -> Ball:
    """Enclosing ball with radius at most (1+delta_meb) times optimal.

    Deterministic; always contains the input.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] == 0:
        raise ValueError("approx_meb needs at least one point")
    centers, radii = _approx_meb_batch(pts[None, :, :], delta_meb)
    return Ball(centers[0], float(radii[0]))


@dataclass
class Wssd:
    """Tier j -> (m, j+1) intp array of node ids, rows in emission order.

    `stats` (from `gen_wssd`; empty from `read_wssd`) counts over all tiers
    `skipped`, tuples whose ball is too wide to extend; `capped`, extended
    tuples whose reach exceeds every non-root rel radius above their first
    node (the paper's root cap); and `fallback_all_roots`, always 0.
    """

    tiers: dict[int, np.ndarray]
    epsilon: float
    t: float
    k: int
    stats: dict[str, int] = field(default_factory=dict)


def _level_floor(value: float) -> int:
    """Largest integer lv with TAU**lv <= value (clamped far below use)."""
    if value <= float(TAU) ** _LEVEL_FLOOR:
        return _LEVEL_FLOOR
    return max(_LEVEL_FLOOR, math.floor(math.log(value, TAU) + 1e-12))


def _tau_pow(levels: np.ndarray) -> np.ndarray:
    """float(TAU) ** lv per entry by Python's power (numpy's can differ in the last bit)."""
    distinct, where = np.unique(levels, return_inverse=True)
    return np.array([float(TAU) ** lv for lv in distinct.tolist()])[where]


def gen_wssd(forest: NetForest, cloud: PointCloud, epsilon: float, k: int) -> Wssd:
    """Tiered simplicial decomposition covering radius-<=t simplices, t = forest.t / 2.

    A tuple is extended only if its approximate enclosing ball still allows
    a witnessed simplex of radius at most t; the new nodes are the cells at
    a level lam, small enough to keep every extension well-separated, whose
    reps lie within the search reach of the ball's center. One kd-tree query
    per distinct lam finds them for a whole tier, each hit decided exactly.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0,1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    t, pts, rep_of = forest.t / 2.0, cloud.points, forest.rep
    stats = {"skipped": 0, "capped": 0, "fallback_all_roots": 0}
    tiers: dict[int, np.ndarray] = {1: gen_wspd(forest, cloud, epsilon / 2.0).pairs}

    # A tuple is capped when `need` exceeds 9.6 * 11^level (a rel radius less
    # two covering hops) even at its first node's depth-1 ancestor, the highest
    # non-root one: in a preorder, the last depth-1 id at or before the node.
    top = np.maximum.accumulate(np.arange(forest.n_nodes) * (forest.high == forest.root_level))
    cap = (REL_COEF - 2.0 * COVER_COEF) * _tau_pow(forest.level[top])
    cap[forest.parent < 0] = -np.inf

    for j in range(1, k):
        tier = tiers[j]
        stack = pts[rep_of[tier]]
        maxcovs = forest.cover[tier].max(axis=1)
        # Skip test r/(1+delta) - maxcov > t on the tuple's ball radius r.
        # Half the widest rep pair bounds r from below (the ball holds both
        # reps), and 1e-9 absorbs the rounding of both sides, so a tuple
        # this bound skips is skipped by its ball too: no ball is computed.
        # It never fires on tier 1, where the WSPD reach prune keeps dist/2 <=
        # t + maxcov; a higher tier's new cell may lie up to the search reach away.
        widest = np.max([row_distances(stack[:, a], stack[:, b])
                         for a, b in combinations(range(j + 1), 2)], axis=0)
        live = np.flatnonzero(~(widest / 2.0 * (1 - 1e-9) / (1.0 + DELTA_MEB) - maxcovs > t))
        centers, radii = _approx_meb_batch(stack[live], DELTA_MEB)
        extend = ~(radii / (1.0 + DELTA_MEB) - maxcovs[live] > t)
        stats["skipped"] += len(tier) - int(np.count_nonzero(extend))
        grown = live[extend]
        centers, r, maxcov = centers[extend], radii[extend], maxcovs[grown]

        r_floor = r / ((1.0 + DELTA_MEB) * (1.0 + epsilon))
        # a scalar math.log per row: numpy's log can differ from it in the last bit
        lams = np.array([_level_floor(v) for v in
                         (epsilon * r_floor / (4.0 * 2.0 * COVER_COEF)).tolist()], dtype=np.int64)
        cell_pad = COVER_COEF * _tau_pow(lams)
        r_search = 3.0 * (r + maxcov) + cell_pad
        need = 4.0 * r + 3.0 * maxcov + cell_pad
        stats["capped"] += int(np.count_nonzero(need > cap[tier[grown, 0]]))

        # (row into `grown`, cell) pairs, distinct as the level-lam cells are.
        # The kd-tree radius is padded against its rounding; exact distances decide.
        rows, cells = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for lam in np.unique(lams).tolist():
            sel = np.flatnonzero(lams == lam)
            at_lam = forest.cells(lam)
            hits = cKDTree(pts[rep_of[at_lam]]).query_ball_point(
                centers[sel], r_search[sel] * (1 + 1e-9))
            rows.append(np.repeat(sel, list(map(len, hits))))
            cells.append(at_lam[np.fromiter(chain.from_iterable(hits), dtype=np.intp)])
        rows, cells = np.concatenate(rows), np.concatenate(cells)
        d = np.linalg.norm(pts[rep_of[cells]] - centers[rows], axis=1)
        keep = np.flatnonzero(d <= r_search[rows] * (1 + 1e-12))
        keep = keep[np.lexsort((cells[keep], rows[keep]))]
        tiers[j + 1] = np.column_stack((tier[grown[rows[keep]]], cells[keep]))

    return Wssd(tiers=tiers, epsilon=epsilon, t=t, k=k, stats=stats)


# ---------------------------------------------------------------------------
# verification oracle
# ---------------------------------------------------------------------------


@dataclass
class WssdReport:
    coverage_violations: list[tuple[int, ...]]
    separation_violations: list[tuple[tuple[int, ...], tuple[int, ...]]]

    @property
    def ok(self) -> bool:
        return not self.coverage_violations and not self.separation_violations


def _covers(masks: list[int], vertices: tuple[int, ...]) -> bool:
    """Can the vertices be matched one-to-one into the node point sets?"""
    from itertools import permutations

    for perm in permutations(range(len(masks))):
        if all((masks[perm[i]] >> v) & 1 for i, v in enumerate(vertices)):
            return True
    return False


def verify_wssd(
    cloud: PointCloud,
    forest: NetForest,
    wssd: Wssd,
    epsilon: float,
    k: int,
    t: float,
) -> WssdReport:
    """Exhaustive oracle for tuple coverage and separation.

    Coverage: every j-simplex (distinct vertices, j <= k) whose exact
    minimum enclosing ball has radius at most t must match into some tier-j
    tuple, one node per vertex. Separation: for every tuple and every
    transversal (one point from each node), the union of the node point
    sets lies in the transversal's exact enclosing ball inflated by
    (1+epsilon). A sufficient diameter-versus-gap test short-circuits the
    transversal enumeration where it provably passes.
    """
    if cloud.n > ORACLE_MAX_N:
        raise ValueError(f"verify_wssd is an oracle for n <= {ORACLE_MAX_N}")
    pts = cloud.points

    node_mask: dict[int, int] = {}
    for v in range(forest.n_nodes):
        m = 0
        for p in forest.points(v).tolist():
            m |= 1 << p
        node_mask[v] = m

    coverage: list[tuple[int, ...]] = []
    for j in range(1, k + 1):
        tuples = wssd.tiers.get(j, np.empty((0, j + 1), dtype=np.intp)).tolist()
        masks = [[node_mask[v] for v in nodes] for nodes in tuples]
        # union masks as uint64 (n <= 62 fits)
        unions = np.array([_union_mask(ms) for ms in masks], dtype=np.uint64)
        for vertices in combinations(range(cloud.n), j + 1):
            if exact_meb(pts[list(vertices)]).radius > t:
                continue
            smask = np.uint64(_union_mask([1 << v for v in vertices]))
            cand = np.flatnonzero((unions & smask) == smask)
            if not any(_covers(masks[c], vertices) for c in cand):
                coverage.append(vertices)

    separation: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for j, tuples in sorted(wssd.tiers.items()):
        for nodes in map(tuple, tuples.tolist()):
            sets = [forest.points(v) for v in nodes]
            union = np.unique(np.concatenate(sets))
            diam = 0.0
            for s in sets:
                if s.size > 1:
                    diam = max(diam, float(pairwise_distances(pts[s]).max()))
            gap_half = 0.0
            for a in range(len(sets)):
                for b in range(a + 1, len(sets)):
                    d = np.linalg.norm(
                        pts[sets[a]][:, None, :] - pts[sets[b]][None, :, :], axis=2
                    )
                    gap_half = max(gap_half, float(d.min()) / 2.0)
            if diam <= epsilon * gap_half * (1 - 1e-12):
                continue  # provably separated: any touching ball has radius >= gap_half
            for transversal in product(*[s.tolist() for s in sets]):
                ball = exact_meb(pts[list(transversal)])
                d = np.linalg.norm(pts[union] - ball.center, axis=1)
                if float(d.max()) > (1.0 + epsilon) * ball.radius * (1 + RTOL):
                    separation.append((nodes, transversal))
                    break

    return WssdReport(coverage_violations=coverage, separation_violations=separation)


def _union_mask(masks: list[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def write_wssd(path: str | Path, wssd: Wssd) -> None:
    lines = [
        "wssd v1 epsilon=%.17g k=%d t=%.17g" % (wssd.epsilon, wssd.k, wssd.t)
    ]
    for j in sorted(wssd.tiers):
        for nodes in wssd.tiers[j].tolist():
            lines.append("tuple %d %s" % (j, " ".join(map(str, nodes))))
    Path(path).write_text("\n".join(lines) + "\n")


_TUPLE = re.compile(r"tuple ([0-9]+)((?: [0-9]+)+)")


def read_wssd(path: str | Path) -> Wssd:
    """Inverse of `write_wssd`; a tier with no tuple line is absent.

    Rejects a header without epsilon, t or a k >= 1, lines other than
    `tuple j id id ...` with non-negative ids, tuples in a tier outside
    1..k, and tuples of other than j+1 node ids in tier j.
    """
    (epsilon, k, t), body = read_records(path, "wssd", epsilon=float, k=int, t=float)
    if k < 1:
        raise ValueError(f"{path}: k={k} must be >= 1")
    rows: dict[int, list[list[str]]] = {}
    for j, nodes in match_rows(path, _TUPLE, body):
        j, nodes = int(j), nodes.split()
        if not 1 <= j <= k:
            raise ValueError(f"{path}: tier {j} outside 1..k={k}")
        if len(nodes) != j + 1:
            raise ValueError(f"{path}: tier {j} tuple with {len(nodes)} nodes")
        rows.setdefault(j, []).append(nodes)
    tiers = {j: np.array(r, dtype=np.intp).reshape(-1, j + 1) for j, r in rows.items()}
    return Wssd(tiers=tiers, epsilon=epsilon, t=t, k=k)
