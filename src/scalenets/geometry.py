"""Point clouds, Euclidean distances, dataset generators, and exact oracles.

The oracles in this module (`brute_near_neighbours`, `exact_meb`,
`brute_restricted_doubling`) are deliberately simple, exhaustive
implementations. They are the ground truth that the sublinear structures in
the rest of the package are tested against, so they must stay independent of
those structures. The production path sizes small point sets with
`meb_radii`, a batched closed form, and asks `exact_meb` only where its
answer sits within rounding of a decision threshold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

__all__ = [
    "PointCloud",
    "Ball",
    "distance",
    "pairwise_distances",
    "row_distances",
    "brute_near_neighbours",
    "exact_meb",
    "meb_radii",
    "brute_restricted_doubling",
    "restricted_dim",
    "generate",
    "read_points",
    "write_points",
    "ExactNearNeighbours",
]

# relative tolerance for oracle equality / containment checks
RTOL = 1e-9

# exhaustive oracles are exponential; refuse sizes where that stops being ok
MAX_MEB_POINTS = 25
MAX_DOUBLING_POINTS = 16

# radii whose squared lengths neither under- nor overflow
_SAFE_LO, _SAFE_HI = 2.0**-450, 2.0**450


@dataclass(frozen=True)
class PointCloud:
    """A finite set of d-dimensional points with 0-based index identities."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (n, dim)")
        if pts.shape[0] < 1:
            raise ValueError("a point cloud needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite (no NaN/inf coordinates)")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball given by an explicit center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    def contains(self, points: np.ndarray, rtol: float = RTOL) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d = np.linalg.norm(pts - self.center, axis=1)
        return bool(np.all(d <= self.radius * (1 + rtol) + 1e-300))


def distance(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean distance between two points of equal dimension."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(np.linalg.norm(p - q))


def pairwise_distances(points: PointCloud | np.ndarray) -> np.ndarray:
    """Full n x n distance matrix of a cloud or an (n, d) array (desk scale)."""
    pts = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    return _norm_last(pts[:, None, :] - pts[None, :, :])


def row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a[i] - b[i]| for each row, by the same expression as `pairwise_distances`."""
    return _norm_last((a - b)[:, None, :])[:, 0]


def _norm_last(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def brute_near_neighbours(cloud: PointCloud, q: int, r: float) -> np.ndarray:
    """Exactly the indices i with |P[i] - P[q]| <= r, including q itself."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if not 0 <= q < cloud.n:
        raise ValueError(f"query index {q} out of range")
    d = np.linalg.norm(cloud.points - cloud.points[q], axis=1)
    return np.flatnonzero(d <= r)


def _circumball(sub: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Smallest ball with all of `sub` on its boundary, or None if degenerate.

    The center is the point of the affine hull of `sub` equidistant from all
    its members.
    """
    if sub.shape[0] == 1:
        return sub[0].copy(), 0.0
    U = sub[1:] - sub[0]
    rhs = 0.5 * np.einsum("ij,ij->i", U, U)
    gram = U @ U.T
    try:
        y = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    center = sub[0] + y @ U
    radius = float(np.max(np.linalg.norm(sub - center, axis=1)))
    return center, radius


def exact_meb(points: np.ndarray) -> Ball:
    """Minimum enclosing ball by exhaustive search over support sets.

    Test oracle only: enumerates all candidate support subsets of size at
    most d+1, so it is exponential in the input size.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, d = pts.shape
    if m == 0:
        raise ValueError("exact_meb needs at least one point")
    if m > MAX_MEB_POINTS:
        raise ValueError(f"exact_meb is an oracle for <= {MAX_MEB_POINTS} points")
    best = _meb_search(pts)
    if best is not None and _SAFE_LO <= best[1] <= _SAFE_HI:
        return Ball(best[0], best[1])
    # squared lengths under- or overflowed: search again on the offsets from
    # the first point, scaled to unit size by a power of two (exactly)
    offsets = pts - pts[0]
    e = int(np.frexp(np.abs(offsets).max())[1])
    best = _meb_search(np.ldexp(offsets, -e))
    assert best is not None, "a valid support set always exists"
    return Ball(pts[0] + np.ldexp(best[0], e), float(np.ldexp(best[1], e)))


def _meb_search(pts: np.ndarray) -> tuple[np.ndarray, float] | None:
    m, d = pts.shape
    best: tuple[np.ndarray, float] | None = None
    for size in range(1, min(d + 1, m) + 1):
        for idx in combinations(range(m), size):
            cand = _circumball(pts[list(idx)])
            if cand is None:
                continue
            center, radius = cand
            dmax = float(np.max(np.linalg.norm(pts - center, axis=1)))
            if dmax <= radius * (1 + RTOL) + 1e-300:
                radius = max(radius, dmax)
                if best is None or radius < best[1]:
                    best = (center, radius)
    return best


def meb_radii(stack: np.ndarray) -> np.ndarray:
    """Minimum enclosing radii of a (T, m, d) stack of 2- or 3-point sets.

    Two points: half their distance. Three points: half the longest side
    when some angle is right, obtuse or degenerate (a dot product at a
    vertex <= 0); otherwise the circumradius c / (2 sin C), with C the
    angle opposite the longest side c. That angle is the largest, so it
    lies in [60, 90) degrees and sin C is computed without cancellation.
    A radius outside [2^-450, 2^450], where squared lengths may under- or
    overflow, is computed again on its set's offsets from the first point,
    scaled to unit size by a power of two, as `exact_meb` does.
    """
    stack = np.asarray(stack, dtype=np.float64)
    radii = _meb_radii(stack)
    redo = ~((radii >= _SAFE_LO) & (radii <= _SAFE_HI))
    if redo.any():
        offsets = stack[redo] - stack[redo, :1]
        e = np.frexp(np.abs(offsets).max(axis=(1, 2)))[1]
        radii[redo] = np.ldexp(_meb_radii(np.ldexp(offsets, -e[:, None, None])), e)
    return radii


def _meb_radii(stack: np.ndarray) -> np.ndarray:
    if stack.shape[1] == 2:
        return row_distances(stack[:, 0], stack[:, 1]) / 2.0
    if stack.shape[1] != 3:
        raise ValueError("meb_radii takes sets of 2 or 3 points")
    rows = np.arange(stack.shape[0])
    a, b, c = stack[:, 0], stack[:, 1], stack[:, 2]
    # side opposite each vertex, and the dot product of the sides at it
    sides = np.sqrt(np.stack([_dot(b - c, b - c), _dot(c - a, c - a), _dot(a - b, a - b)], axis=1))
    dots = np.stack([_dot(b - a, c - a), _dot(c - b, a - b), _dot(a - c, b - c)], axis=1)
    apex = np.argmax(sides, axis=1)
    half_longest = sides[rows, apex] / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_c = dots[rows, apex] / (sides[rows, (apex + 1) % 3] * sides[rows, (apex + 2) % 3])
        circum = half_longest / np.sqrt(1.0 - cos_c * cos_c)
    # fmax: a circumradius lost to underflow (NaN) falls back to half the
    # longest side, which it exceeds only by rounding in those cases
    return np.where((dots > 0).all(axis=1), np.fmax(circum, half_longest), half_longest)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, y)


def _min_cover(universe: frozenset[int], sets: list[frozenset[int]]) -> int:
    """Size of a minimum sub-collection of `sets` covering `universe`."""
    if not universe:
        return 0
    useful = [s & universe for s in sets if s & universe]
    # drop dominated sets; keeps the search tiny
    useful = sorted(set(useful), key=len, reverse=True)
    kept: list[frozenset[int]] = []
    for s in useful:
        if not any(s < t or s == t for t in kept):
            kept.append(s)
    for size in range(1, len(kept) + 1):
        for combo in combinations(kept, size):
            merged: set[int] = set()
            for s in combo:
                merged |= s
            if universe <= merged:
                return size
    raise AssertionError("singleton balls always cover")


def brute_restricted_doubling(cloud: PointCloud, t: float) -> int:
    """Scale-restricted doubling constant by exhaustive set cover.

    Smallest lambda such that for every point p and every radius r <= t the
    points within r of p can be covered by lambda balls of radius r/2
    centered at points of the cloud. Covering centers are restricted to the
    cloud itself. Only radii equal to a pairwise distance (plus t itself)
    need testing; the constraint set changes nowhere else.
    """
    if t <= 0:
        raise ValueError("scale cap t must be positive")
    if cloud.n > MAX_DOUBLING_POINTS:
        raise ValueError(
            f"brute_restricted_doubling is an oracle for <= {MAX_DOUBLING_POINTS} points"
        )
    dist = pairwise_distances(cloud)
    lam = 1
    for p in range(cloud.n):
        radii = {float(r) for r in dist[p] if 0 < r <= t}
        radii.add(float(t))
        for r in sorted(radii):
            universe = frozenset(np.flatnonzero(dist[p] <= r).tolist())
            candidate_sets = [
                frozenset(np.flatnonzero(dist[c] <= r / 2).tolist()) & universe
                for c in range(cloud.n)
            ]
            lam = max(lam, _min_cover(universe, candidate_sets))
    return lam


def restricted_dim(lam: int) -> int:
    """Dimension corresponding to a doubling constant: ceil(log2 lam)."""
    if lam < 1:
        raise ValueError("doubling constant must be >= 1")
    return int(np.ceil(np.log2(lam))) if lam > 1 else 0


# ---------------------------------------------------------------------------
# dataset generators
# ---------------------------------------------------------------------------


def generate_affine(
    n: int, d: int, flat_dim: int, seed: int, *, extent: float = 1.0, noise: float = 0.0
) -> PointCloud:
    """Uniform sample of a random flat_dim-flat embedded in R^d."""
    if not 1 <= flat_dim <= d:
        raise ValueError("need 1 <= flat_dim <= d")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, flat_dim)))
    coords = rng.uniform(-extent, extent, size=(n, flat_dim))
    pts = coords @ basis.T
    if noise > 0:
        pts = pts + noise * rng.standard_normal((n, d))
    return PointCloud(pts)


def generate_sphere(
    n: int, d: int, seed: int, *, radius: float = 1.0, noise: float = 0.0
) -> PointCloud:
    """Points on (or near) the origin-centered sphere of the given radius."""
    if d < 2:
        raise ValueError("sphere needs d >= 2")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    radii = np.full(n, float(radius))
    if noise > 0:
        radii += noise * rng.uniform(-1.0, 1.0, size=n)
    return PointCloud(x * radii[:, None])


def generate_curve(
    n: int, d: int, seed: int, *, spacing: float = 0.05, turn: float = 0.35
) -> PointCloud:
    """Vertices of a polyline wiggling through the unit ball.

    Consecutive vertices are exactly `spacing` apart; `turn` controls how
    sharply the direction drifts per step.
    """
    if not 0 < spacing <= 1:
        raise ValueError("spacing must lie in (0, 1] to stay inside the unit ball")
    rng = np.random.default_rng(seed)
    pts = np.zeros((n, d))
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    for i in range(1, n):
        direction = direction + turn * rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        nxt = pts[i - 1] + spacing * direction
        if np.linalg.norm(nxt) > 1.0:
            normal = pts[i - 1] / np.linalg.norm(pts[i - 1])
            direction = direction - 2 * np.dot(direction, normal) * normal
            direction /= np.linalg.norm(direction)
            nxt = pts[i - 1] + spacing * direction
        pts[i] = nxt
    return PointCloud(pts)


def generate_clustered(
    n: int,
    d: int,
    seed: int,
    *,
    clusters: int = 5,
    separation: float = 4.0,
    spread: float = 0.25,
) -> PointCloud:
    """Well-separated Gaussian blobs."""
    if clusters < 1 or clusters > n:
        raise ValueError("need 1 <= clusters <= n")
    rng = np.random.default_rng(seed)
    centers = separation * rng.standard_normal((clusters, d))
    assign = np.arange(n) % clusters
    pts = centers[assign] + spread * rng.standard_normal((n, d))
    return PointCloud(pts)


def generate_uniform(n: int, d: int, seed: int, *, side: float = 1.0) -> PointCloud:
    """Uniform sample of the axis-aligned cube [0, side]^d."""
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(0.0, side, size=(n, d)))


_GENERATORS = {
    "affine": generate_affine,
    "sphere": generate_sphere,
    "curve": generate_curve,
    "clustered": generate_clustered,
    "uniform": generate_uniform,
}


def generate(kind: str, **params) -> PointCloud:
    """Dispatch to a named generator. Deterministic given the seed."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}; choose from {sorted(_GENERATORS)}")
    try:
        return _GENERATORS[kind](**params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for generator {kind!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# point file format
# ---------------------------------------------------------------------------


def write_points(path: str | Path, cloud: PointCloud) -> None:
    """One point per line, coordinates space-separated; `# dim=` header."""
    lines = [f"# dim={cloud.dim}"]
    for row in cloud.points:
        lines.append(" ".join("%.17g" % x for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_points(path: str | Path) -> PointCloud:
    """Inverse of `write_points`, by `np.loadtxt`; `# dim=` fixes the row width."""
    rows: list[str] = []
    declared_dim: int | None = None
    for line in map(str.strip, Path(path).read_text().splitlines()):
        if line.startswith("# dim="):
            declared_dim = int(line.split("=", 1)[1])
        elif line and not line.startswith("#"):
            rows.append(line)
    if not rows:
        raise ValueError(f"{path}: no points")
    points = np.loadtxt(rows, comments=None, ndmin=2)
    if declared_dim is not None and points.shape[1] != declared_dim:
        raise ValueError(f"{path}: header dim={declared_dim} but rows have {points.shape[1]}")
    return PointCloud(points)


def parse_fields(tokens: list[str], types: dict) -> list:
    """Values of the `key=value` tokens for the keys of `types`, in its order.

    Each value is converted by its key's type; other keys are ignored.
    Raises KeyError for a missing key and ValueError for a token without
    `=` or a value its type rejects.
    """
    given = dict(tok.split("=", 1) for tok in tokens)
    return [conv(given[key]) for key, conv in types.items()]


def read_records(path: str | Path, magic: str, **header) -> tuple[list, list[list[str]]]:
    """Header values and body rows of a `<magic> v1 key=value ...` file.

    The header values are those of the keyword names, converted by their
    types as in `parse_fields`. The body rows are the whitespace-split
    tokens of every non-blank line after the header.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(f"{magic} v1 "):
        raise ValueError(f"{path}: not a {magic} v1 file")
    try:
        values = parse_fields(lines[0].split()[2:], header)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    return values, [toks for toks in map(str.split, lines[1:]) if toks]


def match_rows(path: str | Path, pattern: re.Pattern, rows: list[list[str]]) -> list[tuple]:
    """Groups of `pattern` matched in full on each row's tokens joined by single spaces."""
    lines = list(map(" ".join, rows))
    found = list(map(pattern.fullmatch, lines))
    if None in found:
        raise ValueError(f"{path}: unexpected line {lines[found.index(None)]!r}")
    return [m.groups() for m in found]


# ---------------------------------------------------------------------------
# exact near-neighbour primitive
# ---------------------------------------------------------------------------


class ExactNearNeighbours:
    """Exact radius queries over a fixed point set.

    Same call surface as the LSH primitive so forest construction can be run
    with either; used to separate structural bugs from probabilistic misses.
    """

    def __init__(self, points: np.ndarray, r: float):
        from scipy.spatial import cKDTree

        if r < 0:
            raise ValueError("radius must be nonnegative")
        self.points = np.asarray(points, dtype=np.float64)
        self.r = float(r)
        self._tree = cKDTree(self.points)

    def __call__(self, i: int) -> np.ndarray:
        hits = self._tree.query_ball_point(self.points[i], self.r)
        return np.sort(np.asarray(hits, dtype=np.intp))

    def near_pairs(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query row, index) of every pair within the radius, in no set order."""
        from scipy.spatial import cKDTree

        found = cKDTree(queries).sparse_distance_matrix(self._tree, self.r, output_type="ndarray")
        return found["i"].astype(np.intp), found["j"].astype(np.intp)

    def all_near_pairs(self) -> np.ndarray:
        """All index pairs (i < j) within the query radius."""
        pairs = self._tree.query_pairs(self.r, output_type="ndarray")
        if pairs.size == 0:
            return pairs.reshape(0, 2)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return pairs[order]
