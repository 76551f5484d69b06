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
simplex still fit in a radius-t ball.

Each tier is one (m, j+1) array of node ids. The balls are not kept: they
are computed for a tier only when it is extended, and only the extension
reads them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .forest import COVER_COEF, REL_COEF, TAU, NetForest, descend_to_level
from .geometry import (
    RTOL, Ball, PointCloud, exact_meb, pairwise_distances, read_records, row_distances,
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
    """Tier j -> (m, j+1) intp array of node ids, rows in emission order."""

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


def gen_wssd(forest: NetForest, cloud: PointCloud, epsilon: float, k: int) -> Wssd:
    """Tiered simplicial decomposition covering radius-<=t simplices, t = forest.t / 2.

    A tuple is extended only if its approximate enclosing ball still allows
    a witnessed simplex of radius at most t; the new nodes are the cells at
    a level small enough to keep every extension well-separated, gathered
    through the rel lists of an ancestor (or through the roots within
    7 * forest.t, from `NetForest.roots_within_7t`, when the required
    ancestor level exceeds the root level).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0,1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    t = forest.t / 2.0
    pts = cloud.points
    rep_of = forest.rep
    parent, level = forest.parent.tolist(), forest.level.tolist()
    # fallback_all_roots stays 0: a capped tuple's root neighbours suffice
    stats = {"skipped": 0, "capped": 0, "fallback_all_roots": 0}

    base = gen_wspd(forest, cloud, epsilon / 2.0)
    tiers: dict[int, np.ndarray] = {1: base.pairs}

    neighbours = forest.roots_within_7t(cloud)
    cells_at = functools.cache(functools.partial(descend_to_level, forest))
    # the rel radius 14*tau^level must absorb two covering hops plus the
    # search reach, hence the 14 - 2*2.2 = 9.6 margin
    rel_margin = REL_COEF - 2.0 * COVER_COEF

    for j in range(1, k):
        tier = tiers[j]
        stack = pts[rep_of[tier]]
        maxcovs = forest.cover[tier].max(axis=1)
        # Skip test r/(1+delta) - maxcov > t on the tuple's ball radius r.
        # Half the widest rep pair bounds r from below (the ball holds both
        # reps), and 1e-9 absorbs the rounding of both sides, so a tuple
        # this bound skips is skipped by its ball too: no ball is computed.
        widest = np.max([row_distances(stack[:, a], stack[:, b])
                         for a, b in combinations(range(j + 1), 2)], axis=0)
        live = np.flatnonzero(~(widest / 2.0 * (1 - 1e-9) / (1.0 + DELTA_MEB) - maxcovs > t))
        centers, radii = _approx_meb_batch(stack[live], DELTA_MEB)
        extend = ~(radii / (1.0 + DELTA_MEB) - maxcovs[live] > t)
        stats["skipped"] += len(tier) - int(np.count_nonzero(extend))
        # No seen-set: a row's sources root disjoint subtrees (distinct roots,
        # or rel nodes, which each straddle the anchor's level, so none is
        # another's ancestor). Its cells are thus distinct, and distinct rows
        # give distinct extensions.
        owners: list[int] = []
        cells: list[int] = []
        grown = live[extend]
        for i, anchor, center, r, maxcov in zip(
            grown.tolist(), tier[grown, 0].tolist(), centers[extend],
            radii[extend].tolist(), maxcovs[grown].tolist(),
        ):
            r_floor = r / ((1.0 + DELTA_MEB) * (1.0 + epsilon))
            lam = _level_floor(epsilon * r_floor / (4.0 * 2.0 * COVER_COEF))
            cell_pad = COVER_COEF * float(TAU) ** lam
            r_search = 3.0 * (r + maxcov) + cell_pad
            need = 4.0 * r + 3.0 * maxcov + cell_pad

            while parent[anchor] >= 0 and need > rel_margin * float(TAU) ** level[anchor]:
                anchor = parent[anchor]
            if parent[anchor] >= 0:
                sources = forest.rel_of(anchor)
            else:
                # The walk ended at the root of the tuple's first node. Its
                # roots within 7 * forest.t hold every source: non-root covers
                # are at most forest.t/11, and no tuple holding a non-leaf root
                # passes the skip test (its WSPD pair is >= 4*forest.t/eps apart),
                # so 2*forest.t + 4r + 3*maxcov + cell_pad <= (2 + 4.2*(0.5 +
                # 1/11) + 3/11 + 0.04) * forest.t, about 4.8 * forest.t.
                stats["capped"] += 1
                sources = neighbours[anchor]

            cands = np.array([c for w in sources for c in cells_at(w, lam)], dtype=np.intp)
            d = np.linalg.norm(pts[rep_of[cands]] - center, axis=1)
            hit = cands[d <= r_search * (1 + 1e-12)].tolist()
            owners += [i] * len(hit)
            cells += hit
        tiers[j + 1] = np.column_stack(
            (tier[np.array(owners, dtype=np.intp)], np.array(cells, dtype=np.intp))
        )

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


def read_wssd(path: str | Path) -> Wssd:
    """Inverse of `write_wssd`; a tier with no tuple line is absent.

    Rejects a header without epsilon, t or a k >= 1, and tuple lines that
    are malformed, sit in a tier outside 1..k, hold other than j+1 node ids
    for tier j, or hold a negative id.
    """
    (epsilon, k, t), body = read_records(path, "wssd", epsilon=float, k=int, t=float)
    if k < 1:
        raise ValueError(f"{path}: k={k} must be >= 1")
    rows: dict[int, list[list[int]]] = {}
    for toks in body:
        if toks[0] != "tuple" or len(toks) < 2:
            raise ValueError(f"{path}: malformed line {' '.join(toks)!r}")
        try:
            j, nodes = int(toks[1]), [int(x) for x in toks[2:]]
        except ValueError as exc:
            raise ValueError(f"{path}: malformed line {' '.join(toks)!r}") from exc
        if not 1 <= j <= k:
            raise ValueError(f"{path}: tier {j} outside 1..k={k}")
        if len(nodes) != j + 1:
            raise ValueError(f"{path}: tier {j} tuple with {len(nodes)} nodes")
        if min(nodes) < 0:
            raise ValueError(f"{path}: negative node id in {' '.join(toks)!r}")
        rows.setdefault(j, []).append(nodes)
    tiers = {j: np.array(r, dtype=np.intp).reshape(-1, j + 1) for j, r in rows.items()}
    return Wssd(tiers=tiers, epsilon=epsilon, t=t, k=k)
