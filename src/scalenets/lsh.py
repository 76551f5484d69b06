"""All-near-neighbour queries via 2-stable locality sensitive hashing.

The index answers "report every indexed point within distance r of a query
point". Soundness is unconditional (candidates are filtered by true
distance); completeness holds for all query points simultaneously with
probability at least 1 - delta over the hash draw, with table and
concatenation counts chosen from (n, rho, delta) accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LshParams",
    "LshIndex",
    "QueryReport",
    "collision_probability",
    "derive_params",
    "table_count",
    "concat_length",
    "select_width",
]


def collision_probability(c: float, w: float) -> float:
    """Probability that two points at distance c share one base hash bucket.

    Base hash: h(x) = floor((a.x + b)/w), a standard Gaussian, b uniform in
    [0, w). Closed form of the collision integral; strictly decreasing in c.
    """
    if c < 0:
        raise ValueError("distance must be nonnegative")
    if w <= 0:
        raise ValueError("bucket width must be positive")
    if c == 0:
        return 1.0
    t = w / c
    phi_neg = 0.5 * (1.0 + math.erf(-t / math.sqrt(2.0)))
    return 1.0 - 2.0 * phi_neg - (2.0 * c / (math.sqrt(2.0 * math.pi) * w)) * (
        1.0 - math.exp(-(w * w) / (2.0 * c * c))
    )


def table_count(n: int, rho: float, delta: float) -> int:
    """Number of hash tables: ceil(2 n^rho ln(n / sqrt(delta)))."""
    return int(math.ceil(2.0 * n**rho * math.log(n / math.sqrt(delta))))


def concat_length(n: int, p2: float) -> int:
    """Concatenation length: ceil(-log_{p2} n)."""
    if not 0 < p2 < 1:
        raise ValueError("p2 must lie in (0,1)")
    return max(1, int(math.ceil(-math.log(n) / math.log(p2))))


def select_width(rho: float, *, lo: float = 0.25, hi: float = 64.0, steps: int = 400) -> float:
    """Smallest bucket width (in units of r1) with log p1 / log p2 <= rho.

    The collision ratio at radii r and r/rho depends only on w/r, so the
    search is one-dimensional. Smaller widths keep p2 low and with it the
    concatenation length.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0,1)")
    for w in np.geomspace(lo, hi, steps):
        p1 = collision_probability(1.0, w)
        p2 = collision_probability(1.0 / rho, w)
        if p1 <= 0 or p2 <= 0:
            continue
        if math.log(p1) / math.log(p2) <= rho:
            return float(w)
    raise ValueError(f"no bucket width in [{lo},{hi}] achieves exponent {rho}")


@dataclass(frozen=True)
class LshParams:
    """Derived hashing parameters for one (n, r, rho, delta) configuration."""

    n: int
    r1: float
    r2: float
    rho: float
    delta: float
    w: float
    p1: float
    p2: float
    k: int
    l: int

    def __post_init__(self) -> None:
        if not (self.r1 <= self.r2 and self.p2 <= self.p1):
            raise ValueError("need r1 <= r2 and p2 <= p1")
        if self.k < 1 or self.l < 1:
            raise ValueError("k and l must be positive")


def derive_params(n: int, r: float, rho: float = 0.5, delta: float = 0.1) -> LshParams:
    """Choose w, p1, p2, k, l for radius-r queries over n points."""
    if n < 2:
        raise ValueError("need n >= 2")
    if r <= 0:
        raise ValueError("need r > 0")
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0,1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0,1)")
    w_rel = select_width(rho)
    w = w_rel * r
    p1 = collision_probability(r, w)
    p2 = collision_probability(r / rho, w)
    return LshParams(
        n=n,
        r1=float(r),
        r2=float(r / rho),
        rho=float(rho),
        delta=float(delta),
        w=float(w),
        p1=p1,
        p2=p2,
        k=concat_length(n, p2),
        l=table_count(n, rho, delta),
    )


@dataclass(frozen=True)
class QueryReport:
    """Result of one radius query: verified neighbours plus scan cost."""

    neighbours: frozenset[int]
    candidates_scanned: int


class LshIndex:
    """l hash tables of k-fold concatenated 2-stable hashes over a point set.

    Bucket keys are the full k-tuples of integer hash values (grouped by
    exact row equality), so table compression introduces no false positives.
    Immutable after construction; rebuilding with the same seed reproduces
    identical tables.
    """

    def __init__(self, points: np.ndarray, params: LshParams, seed: int):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must have shape (n, d)")
        n, d = points.shape
        if n != params.n:
            raise ValueError(f"params derived for n={params.n} but got {n} points")
        self.points = points
        self.params = params
        self.seed = int(seed)

        rng = np.random.default_rng(self.seed)
        # draw order fixed: directions then offsets, one block per table
        self._dirs = rng.standard_normal((params.l, params.k, d))
        self._offs = rng.uniform(0.0, params.w, size=(params.l, params.k))

        # bucket ids run on across tables; bucket b lists its points in
        # ascending order as self._order[self._starts[b] : self._starts[b + 1]]
        self._gids = np.empty((params.l, n), dtype=np.intp)
        self._order = np.empty(params.l * n, dtype=np.intp)
        starts: list[np.ndarray] = []
        buckets = 0
        for i in range(params.l):
            keys = np.floor(
                (points @ self._dirs[i].T + self._offs[i]) / params.w
            ).astype(np.int64)
            keys -= keys.min(axis=0)
            span = keys.max(axis=0) + 1
            if np.prod(span, dtype=np.float64) < 2.0**62:
                # one mixed-radix code per row, column 0 most significant:
                # the same grouping and order from a single sort key
                keys = (keys @ np.append(np.cumprod(span[::-1])[::-1][1:], 1))[:, None]
            # lexsort ranks rows lexicographically, column 0 first; it is
            # stable, so each bucket lists its points in ascending order
            order = np.lexsort(keys.T[::-1])
            ranked = keys[order]
            first = np.ones(n, dtype=bool)
            first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
            self._gids[i, order] = np.cumsum(first) - 1 + buckets
            self._order[i * n : (i + 1) * n] = order
            starts.append(np.flatnonzero(first) + i * n)
            buckets += starts[-1].size
        self._starts = np.concatenate([*starts, [params.l * n]])

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def query(self, q: int, r: float) -> QueryReport:
        """Verified neighbours of an indexed point within radius r (= r1)."""
        if not 0 <= q < self.n:
            raise ValueError(f"point {q} was not indexed")
        if not math.isclose(r, self.params.r1, rel_tol=1e-12):
            raise ValueError(f"index built for radius {self.params.r1}, queried at {r}")
        lo = self._starts[self._gids[:, q]]
        sizes = self._starts[self._gids[:, q] + 1] - lo
        scanned = int(sizes.sum())
        # positions of the members of q's bucket in every table, in one array
        pos = np.arange(scanned) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
        cands = np.unique(self._order[pos])
        d = np.linalg.norm(self.points[cands] - self.points[q], axis=1)
        hits = cands[d <= r]
        return QueryReport(neighbours=frozenset(int(i) for i in hits), candidates_scanned=scanned)

    def __call__(self, q: int) -> np.ndarray:
        """Sorted neighbour indices at the index radius (primitive surface)."""
        report = self.query(q, self.params.r1)
        return np.array(sorted(report.neighbours), dtype=np.intp)

    def collide_mask(self, pairs: np.ndarray) -> np.ndarray:
        """For each (i, j) row: do i and j share a bucket in any table?"""
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            return np.zeros(0, dtype=bool)
        gi = self._gids[:, pairs[:, 0]]
        gj = self._gids[:, pairs[:, 1]]
        return np.any(gi == gj, axis=0)

    def all_near_pairs(self) -> np.ndarray:
        """All pairs (i < j) that collide somewhere and are within r1.

        Same output as calling the index on every indexed point, gathered
        symmetrically; used when every point is queried anyway.
        """
        n = self.n
        adjacency = np.zeros(n * n, dtype=bool)
        for b in range(self._starts.size - 1):
            members = self._order[self._starts[b] : self._starts[b + 1]]
            if members.size < 2:
                continue
            flat = (members[:, None] * n + members[None, :]).ravel()
            adjacency[flat] = True
        idx = np.flatnonzero(adjacency)
        ii, jj = idx // n, idx % n
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]
        d = np.linalg.norm(self.points[ii] - self.points[jj], axis=1)
        keep = d <= self.params.r1
        out = np.stack([ii[keep], jj[keep]], axis=1)
        order = np.lexsort((out[:, 1], out[:, 0]))
        return out[order]
