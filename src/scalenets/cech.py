"""Approximate truncated Cech filtrations from a simplicial decomposition.

For each scale alpha in a grid over (0, t], points are coarsened to the
net cells at a level h(alpha) chosen so the cell radius is at most
(epsilon/7) * alpha. Every decomposition tuple whose nodes sit strictly
below that level maps to a simplex over cell representatives, kept when
the minimum enclosing ball of those representatives has radius at most
(1 + epsilon/2) * alpha. The result sandwiches the exact Cech complex at
alpha: every exact simplex appears under the vertex coarsening, and every
kept simplex has representative radius at most (1 + epsilon) * alpha.

The decomposition fed in must be built noticeably deeper than the target
epsilon, so that the tuples covering a simplex are fine enough to survive
the level gate at every grid scale; `build_cech_pipeline` uses
epsilon/42.

A slice depends on alpha only through the level h(alpha), which is
monotone in alpha, and its threshold. Each level is built once: every
point's cell, the distinct rep sets of the tuples below the level as sorted
arrays, one per set size, and their radii. 2- and 3-point sets are sized in
one closed-form pass (`geometry.meb_radii`); sets of 4 or more reps (k >= 3)
by `exact_meb`, once per build. A slice keeps the sets within its
threshold; a closed-form radius within a 1e-8 relative band of it is
measured again by the `exact_meb` oracle, so every slice is the one
`exact_meb` alone would give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

# `vcell` is not called here; perfbench's tracer wraps the name `cech.vcell`,
# and its smoke test requires every traced name to resolve
from .forest import COVER_COEF, TAU, NetForest, build_forest, vcell  # noqa: F401
from .geometry import (
    RTOL, PointCloud, exact_meb, meb_radii, parse_fields, read_records, row_distances,
)
from .wssd import Wssd, gen_wssd

__all__ = [
    "FiltrationSlice",
    "FiltrationOutput",
    "SandwichReport",
    "choose_h",
    "default_grid",
    "build_filtration",
    "build_cech_pipeline",
    "verify_sandwich",
    "write_filtration",
    "read_filtration",
]

# depth margin for the internal decomposition; covering tuples must clear
# the level gate h(alpha) even when the root level rounded down a full step
DEPTH_FACTOR = 42.0
ORACLE_MAX_N = 40  # largest cloud `verify_sandwich` accepts


def choose_h(epsilon: float, alpha: float, rl: int) -> int:
    """Largest integer h with 2.2 * 11^h <= (epsilon/7) * alpha, below rl.

    The cap at rl - 1 keeps every cell lookup inside the forest; it only
    ever makes the coarsening finer.
    """
    if alpha <= 0 or epsilon <= 0:
        raise ValueError("alpha and epsilon must be positive")
    target = (epsilon / 7.0) * alpha / COVER_COEF
    if target <= 0:
        raise ValueError("degenerate coarsening target")
    h = math.floor(math.log(target, TAU) + 1e-12)
    while COVER_COEF * float(TAU) ** (h + 1) <= (epsilon / 7.0) * alpha * (1 + 1e-12):
        h += 1
    while COVER_COEF * float(TAU) ** h > (epsilon / 7.0) * alpha * (1 + 1e-12):
        h -= 1
    return min(h, rl - 1)


@dataclass
class FiltrationSlice:
    alpha: float
    h: int
    vertex_map: dict[int, int]
    simplices: set[tuple[int, ...]]


@dataclass
class FiltrationOutput:
    slices: list[FiltrationSlice]
    epsilon: float
    t: float


def default_grid(cloud: PointCloud, epsilon: float, t: float) -> np.ndarray:
    """Geometric grid from half the closest-pair distance up to t.

    A kd-tree over the distinct points finds the closest pair; every pair
    within a 1e-9 relative band of it is measured again with the
    `pairwise_distances` expression, so the grid is the one the full
    distance matrix gives, without building it.
    """
    from scipy.spatial import cKDTree

    distinct = np.unique(cloud.points, axis=0)
    positive = np.empty(0)
    if len(distinct) > 1:
        tree = cKDTree(distinct)
        nearest = float(tree.query(distinct, k=2)[0][:, 1].min())
        close = tree.query_pairs(nearest * (1 + 1e-9), output_type="ndarray")
        d = row_distances(distinct[close[:, 0]], distinct[close[:, 1]])
        positive = d[d > 0]
    if positive.size == 0:
        return np.array([t])
    alpha = float(positive.min()) / 2.0
    ratio = 1.0 + epsilon / 7.0
    out = []
    while alpha <= t and len(out) <= 5000:
        out.append(alpha)
        alpha *= ratio
    if len(out) > 5000:
        raise ValueError("default grid too fine; pass an explicit grid")
    return np.array(out)


def build_filtration(
    forest: NetForest,
    cloud: PointCloud,
    wssd: Wssd,
    epsilon: float,
    grid: np.ndarray | None = None,
) -> FiltrationOutput:
    """One approximation complex per grid scale in (0, t], t = wssd.t.

    The decomposition must be built on this forest and at least as deep as
    `epsilon` (a smaller epsilon of its own).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0,1]")
    if wssd.epsilon > epsilon + 1e-12:
        raise ValueError("decomposition must be built at least as deep as epsilon")
    t = wssd.t
    if grid is None:
        grid = default_grid(cloud, epsilon, t)
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid <= 0) or np.any(grid > t * (1 + 1e-12)):
        raise ValueError("grid values must lie in (0, t]")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")

    pts = cloud.points
    scale = float(np.abs(pts).max())
    large_radius = functools.cache(lambda key: exact_meb(pts[list(key)]).radius)
    slices: list[FiltrationSlice] = []
    # per tier: each tuple's largest node `low`, which the level gate needs
    # below h, and its nodes' reps. A node with low < h lies in the cell of
    # its rep's leaf, since the rep's leaf is in the node's subtree.
    tiers = [(forest.low[nodes].max(axis=1), forest.rep[nodes]) for nodes in wssd.tiers.values()]

    for alpha in grid:
        h = choose_h(epsilon, float(alpha), forest.root_level)
        if not slices or slices[-1].h != h:
            # the level-(h-1) cells are disjoint subtrees, each an id range
            # of the preorder, that cover every leaf: a leaf's cell is the
            # last cell id at or below its own
            cells = np.flatnonzero((forest.low < h) & (h <= forest.high))
            cell_rep = forest.rep[cells[np.searchsorted(cells, forest.leaf_of, "right") - 1]]
            keys = _slice_keys([np.sort(cell_rep[reps[top < h]], axis=1) for top, reps in tiers])
            radii = [
                meb_radii(pts[sets]) if sets.shape[1] <= 3
                else np.array([large_radius(key) for key in map(tuple, sets.tolist())])
                for sets in keys
            ]
        theta = (1.0 + epsilon / 2.0) * float(alpha) * (1 + 1e-12)
        # keep the sets within theta, closed under faces so each slice is a
        # simplicial complex
        simplices: set[tuple[int, ...]] = set()
        for sets, rad in zip(keys, radii):
            keep = rad <= theta
            if sets.shape[1] <= 3:
                # the band is relative, plus 1e-12 of the largest coordinate
                # for rounding far from the origin
                near = np.flatnonzero(~(np.abs(rad - theta) > 1e-8 * theta + 1e-12 * scale))
                keep[near] = [exact_meb(pts[sets[i]]).radius <= theta for i in near.tolist()]
            kept = sets[keep]
            for size in range(2, kept.shape[1] + 1):
                for cols in combinations(range(kept.shape[1]), size):
                    simplices.update(map(tuple, kept[:, cols].tolist()))
        slices.append(
            FiltrationSlice(
                alpha=float(alpha), h=h, vertex_map=dict(enumerate(cell_rep.tolist())),
                simplices=simplices,
            )
        )
    return FiltrationOutput(slices=slices, epsilon=epsilon, t=t)


def _slice_keys(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Distinct rep sets of at least 2 reps, one sorted (m, size) array per size.

    Each input row holds one tuple's cell reps, sorted; repeated reps
    collapse to one.
    """
    by_size: dict[int, list[np.ndarray]] = {}
    for sorted_reps in rows:
        first = np.ones(sorted_reps.shape, dtype=bool)
        first[:, 1:] = sorted_reps[:, 1:] != sorted_reps[:, :-1]
        distinct = first.sum(axis=1)
        for size in np.unique(distinct[distinct >= 2]).tolist():
            pick = distinct == size
            by_size.setdefault(size, []).append(sorted_reps[pick][first[pick]].reshape(-1, size))
    return [_unique_rows(np.concatenate(by_size[size])) for size in sorted(by_size)]


def _unique_rows(keys: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order; `np.unique(axis=0)` without its slow row sort."""
    keys = keys[np.lexsort(keys.T[::-1])]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return keys[first]


def build_cech_pipeline(
    cloud: PointCloud,
    epsilon: float,
    k: int,
    t: float,
    seed: int = 0,
    *,
    nn: str = "exact",
    grid: np.ndarray | None = None,
    rho: float = 0.5,
    delta: float = 0.1,
) -> tuple[NetForest, Wssd, FiltrationOutput]:
    """Forest at 2t, decomposition at epsilon/DEPTH_FACTOR, then the slices."""
    forest = build_forest(cloud, 2.0 * t, seed, nn=nn, rho=rho, delta=delta)
    wssd = gen_wssd(forest, cloud, epsilon / DEPTH_FACTOR, k)
    output = build_filtration(forest, cloud, wssd, epsilon, grid)
    return forest, wssd, output


# ---------------------------------------------------------------------------
# sandwich oracle
# ---------------------------------------------------------------------------


@dataclass
class SandwichReport:
    lower_violations: list[tuple[float, tuple[int, ...]]]
    upper_violations: list[tuple[float, tuple[int, ...]]]

    @property
    def ok(self) -> bool:
        return not self.lower_violations and not self.upper_violations


def verify_sandwich(
    cloud: PointCloud,
    output: FiltrationOutput,
    epsilon: float,
    k: int,
) -> SandwichReport:
    """Per-scale containment oracle against the exact Cech complex.

    Lower: every exact Cech simplex at alpha (vertex set of size <= k+1
    with exact enclosing radius <= alpha) maps under the slice's vertex map
    to a simplex present in the slice. Upper: every slice simplex has
    representative enclosing radius at most (1+epsilon) * alpha.
    """
    if cloud.n > ORACLE_MAX_N:
        raise ValueError(f"verify_sandwich is an oracle for n <= {ORACLE_MAX_N}")
    pts = cloud.points

    radius: dict[tuple[int, ...], float] = {}
    for size in range(2, k + 2):
        for vertices in combinations(range(cloud.n), size):
            radius[vertices] = exact_meb(pts[list(vertices)]).radius

    lower: list[tuple[float, tuple[int, ...]]] = []
    upper: list[tuple[float, tuple[int, ...]]] = []
    for sl in output.slices:
        present = set(sl.simplices)
        for vertices, rad in radius.items():
            if rad > sl.alpha:
                continue
            image = tuple(sorted({sl.vertex_map[v] for v in vertices}))
            if len(image) >= 2 and image not in present:
                lower.append((sl.alpha, vertices))
        for simplex in sl.simplices:
            if exact_meb(pts[list(simplex)]).radius > (1 + epsilon) * sl.alpha * (1 + RTOL):
                upper.append((sl.alpha, simplex))
    return SandwichReport(lower_violations=lower, upper_violations=upper)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_filtration(path: str | Path, output: FiltrationOutput) -> None:
    lines = ["cechapprox v1 epsilon=%.17g t=%.17g" % (output.epsilon, output.t)]
    for sl in output.slices:
        lines.append("slice alpha=%.17g h=%d" % (sl.alpha, sl.h))
        for p in sorted(sl.vertex_map):
            lines.append(f"vmap {p} {sl.vertex_map[p]}")
        for simplex in sorted(sl.simplices):
            lines.append(
                "simplex %d %s" % (len(simplex) - 1, " ".join(str(v) for v in simplex))
            )
    Path(path).write_text("\n".join(lines) + "\n")


_SLICE_FIELDS = {"alpha": float, "h": int}


def read_filtration(path: str | Path) -> FiltrationOutput:
    """Inverse of `write_filtration`.

    Rejects a header without epsilon or t, a slice line without alpha or h,
    `vmap` lines that are not two ids, `simplex` lines whose dimension field
    is not their vertex count minus one or below 1, vertices that are not
    strictly ascending, and negative ids.
    """
    (epsilon, t), body = read_records(path, "cechapprox", epsilon=float, t=float)
    slices: list[FiltrationSlice] = []
    current: FiltrationSlice | None = None
    for row in body:
        kind, toks = row[0], row[1:]
        if kind != "slice" and current is None:
            raise ValueError(f"{path}: {kind} before any slice")
        try:
            if kind == "slice":
                alpha, h = parse_fields(toks, _SLICE_FIELDS)
                current = FiltrationSlice(alpha, h, {}, set())
                slices.append(current)
                continue
            ids = [int(v) for v in toks]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: malformed line {' '.join(row)!r}") from exc
        if kind == "vmap" and len(ids) == 2 and min(ids) >= 0:
            current.vertex_map[ids[0]] = ids[1]
        elif (
            kind == "simplex"
            and len(ids) >= 3
            and ids[0] == len(ids) - 2
            and 0 <= ids[1]
            and all(a < b for a, b in zip(ids[1:], ids[2:]))
        ):
            current.simplices.add(tuple(ids[1:]))
        else:
            raise ValueError(f"{path}: malformed line {' '.join(row)!r}")
    return FiltrationOutput(slices=slices, epsilon=epsilon, t=t)
