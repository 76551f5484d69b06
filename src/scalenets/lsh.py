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

# array rows per step of LshIndex.all_near_pairs: positions walked, pair
# codes sorted, coordinates of pairs measured
_BLOCK = 1 << 16


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


def select_width(rho: float) -> float:
    """Smallest bucket width (in units of r1) with log p1 / log p2 <= rho.

    The collision ratio at radii r and r/rho depends only on w/r, so the
    search is one-dimensional: 400 geometric steps over [0.25, 64].
    Smaller widths keep p2 low and with it the concatenation length.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0,1)")
    for w in np.geomspace(0.25, 64.0, 400):
        p1 = collision_probability(1.0, w)
        p2 = collision_probability(1.0 / rho, w)
        if p1 <= 0 or p2 <= 0:
            continue
        if math.log(p1) / math.log(p2) <= rho:
            return float(w)
    raise ValueError(f"no bucket width in [0.25,64.0] achieves exponent {rho}")


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
    exact equality), so table compression introduces no false positives.
    Immutable after construction; rebuilding with the same seed reproduces
    identical tables.

    Layout: each table projects and floors the points into one reused,
    contiguous (k, n) key array, and `_rank_columns` groups the keys. Bucket
    ids run on across tables: `_gids[i, p]` is the bucket of point p in
    table i, and bucket b lists its points in ascending order as
    `_order[_starts[b] : _starts[b + 1]]`. Build transients are one table's
    (k, n) or n-long arrays.
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

        # bucket ids and positions stay within l * n: 32 bits halve the
        # index arrays wherever they fit. _starts gets room for l * n
        # buckets; pages past the last bucket are never touched.
        ids = np.int32 if params.l * n < 2**31 else np.intp
        self._gids = np.empty((params.l, n), dtype=ids)
        self._order = np.empty(params.l * n, dtype=ids)
        self._starts = np.empty(params.l * n + 1, dtype=ids)
        buckets = 0
        proj = np.empty((params.k, n))
        keys = np.empty((params.k, n), dtype=np.int64)
        for i in range(params.l):
            np.matmul(self._dirs[i], points.T, out=proj)
            proj += self._offs[i][:, None]
            proj /= params.w
            np.floor(proj, out=proj)
            np.copyto(keys, proj, casting="unsafe")
            lo, hi = keys.min(axis=1), keys.max(axis=1)
            keys -= lo[:, None]
            # Python ints: exact however wide the hashes are
            span = [b - a + 1 for a, b in zip(lo.tolist(), hi.tolist())]
            order, first = _rank_columns(keys, span)
            self._gids[i][order] = np.cumsum(first) + (buckets - 1)
            self._order[i * n : (i + 1) * n] = order
            heads = np.flatnonzero(first)
            self._starts[buckets : buckets + heads.size] = heads + i * n
            buckets += heads.size
        self._starts[buckets] = params.l * n
        self._starts = self._starts[: buckets + 1]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def query(self, q: int, r: float) -> QueryReport:
        """Verified neighbours of an indexed point within radius r (= r1)."""
        if not 0 <= q < self.n:
            raise ValueError(f"point {q} was not indexed")
        if not math.isclose(r, self.params.r1, rel_tol=1e-12):
            raise ValueError(f"index built for radius {self.params.r1}, queried at {r}")
        # q's bucket in every table: one strided read of _gids
        bucket = self._gids[:, q]
        lo = self._starts[bucket]
        sizes = self._starts[bucket + 1] - lo
        scanned = int(sizes.sum())
        # positions of the members of q's bucket in every table, in one array
        pos = np.arange(scanned) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
        cands = _distinct(np.sort(self._order[pos]))
        d = np.linalg.norm(self.points[cands] - self.points[q], axis=1)
        hits = cands[d <= r]
        return QueryReport(neighbours=frozenset(int(i) for i in hits), candidates_scanned=scanned)

    def __call__(self, q: int) -> np.ndarray:
        """Sorted neighbour indices at the index radius (primitive surface)."""
        report = self.query(q, self.params.r1)
        return np.array(sorted(report.neighbours), dtype=np.intp)

    def all_near_pairs(self) -> np.ndarray:
        """All pairs (i < j) that collide somewhere and are within r1.

        Same output as calling the index on every indexed point, gathered
        symmetrically, in lexicographic order. Blocks of pair codes are
        sorted and held back until they outnumber the merged codes, then
        merged all at once, so the merging work grows with the codes made,
        not with their product with the number of blocks. Memory is bounded
        by `_BLOCK` plus a small multiple of the number of distinct
        colliding pairs.
        """
        n = self.n
        codes = np.empty(0, dtype=np.int64)
        runs: list[np.ndarray] = []
        held = 0
        for block in self._pair_blocks():
            block.sort()
            runs.append(_distinct(block))
            held += runs[-1].size
            if held >= codes.size:
                codes, runs, held = _merge_runs([codes, *runs]), [], 0
        codes = _merge_runs([codes, *runs])
        ii, jj = np.divmod(codes, n)
        keep = np.empty(codes.size, dtype=bool)
        step = max(1, _BLOCK // self.points.shape[1])  # _BLOCK coordinates
        for s in range(0, codes.size, step):
            gap = self.points[ii[s : s + step]] - self.points[jj[s : s + step]]
            keep[s : s + step] = np.linalg.norm(gap, axis=1) <= self.params.r1
        return np.stack([ii[keep], jj[keep]], axis=1)

    def _pair_blocks(self):
        """Codes i * n + j (i < j) of every bucket's member pairs, in arrays
        of at most `_BLOCK`; each position pairs with those after it in its
        bucket, walked `_BLOCK` positions at a time."""
        n, total = self.n, self._order.size
        for p0 in range(0, total, _BLOCK):
            pos = np.arange(p0, min(p0 + _BLOCK, total))
            members = self._order[pos]
            after = self._starts[self._gids[pos // n, members] + 1] - 1 - pos
            ends = np.cumsum(after)
            begins = ends - after
            rows = int(ends[-1])
            for lo in range(0, rows, _BLOCK):
                hi = min(lo + _BLOCK, rows)
                a, b = np.searchsorted(ends, [lo, hi - 1], side="right")
                take = after[a : b + 1].copy()
                take[-1] = hi - begins[b]
                take[0] -= lo - begins[a]
                src = np.repeat(np.arange(a, b + 1), take)
                partner = self._order[p0 + 1 + src + np.arange(lo, hi) - begins[src]]
                yield members[src].astype(np.int64) * n + partner


def _merge_runs(runs: list[np.ndarray]) -> np.ndarray:
    """The distinct values of sorted arrays, in one sorted array."""
    merged = np.concatenate(runs)
    # sorted runs: the stable sort (timsort) merges them without re-sorting
    merged.sort(kind="stable")
    return _distinct(merged)


def _distinct(ranked: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array."""
    keep = np.ones(ranked.size, dtype=bool)
    keep[1:] = ranked[1:] != ranked[:-1]
    return ranked[keep]


def _rank_columns(keys: np.ndarray, span: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Order the n columns of a (k, n) key array, row 0 most significant.

    Row j holds values in [0, span[j]). Returns (order, first): `order`
    lists the columns by key, equal keys by ascending index, as a stable
    lexsort would; `first` marks where a new key starts. Rows fold into one
    mixed-radix code, widened to code * 2^s + index (2^s >= n): those are
    unique, so the fast unstable sort is exact, and shifts split them again.
    Before the widened code would pass 2^62, the prefix is re-ranked densely
    (below n) with one more sort; a row wider than 2^62 / (n 2^s) has whole
    keys ranked by `np.unique` first.
    """
    n = keys.shape[1]
    shift = max(1, (n - 1).bit_length())
    if (max(span) * n) << shift >= 2**62:
        # a row too wide to follow even n prefixes: rank whole keys instead
        keys = np.unique(keys.T, axis=0, return_inverse=True)[1].reshape(1, n)
        span = [n]
    k = keys.shape[0]
    index = np.arange(n, dtype=np.int64)
    code, count, j = 0, 1, 0
    while True:
        m, cells = j, count
        while m < k and (cells * span[m]) << shift < 2**62:
            cells *= span[m]
            m += 1
        radix = np.array([math.prod(span[c + 1 : m]) for c in range(j, m)])
        code = code * (cells // count) + radix @ keys[j:m]
        ranked = np.sort((code << shift) | index)
        order = ranked & ((1 << shift) - 1)
        ranked >>= shift
        first = np.ones(n, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        if m == k:
            return order, first
        dense = np.cumsum(first)
        code = np.empty(n, dtype=np.int64)
        code[order] = dense - 1
        count, j = int(dense[-1]), m
