"""Scale-restricted well-separated pair decompositions over a net-forest.

A pair of forest nodes (u, v) is epsilon-well-separated when the larger of
the two point-set diameters is at most epsilon times the distance between
their representatives. The decomposition covers every point pair within
distance t of each other by at least one such node pair; pairs further
apart carry no guarantee. It emits only node pairs that can reach within
t: their representatives lie at most t + cover[u] + cover[v] apart, so
some of their point pairs may be within t. Pairing only nearby nodes keeps
the decomposition from growing like n^2 at a fixed scale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .forest import NetForest
from .geometry import RTOL, PointCloud, match_rows, pairwise_distances, read_records, row_distances

__all__ = [
    "Wspd",
    "WspdReport",
    "gen_wspd",
    "verify_wspd",
    "write_wspd",
    "read_wspd",
]

# pairs popped from the frontier per array step; bounds the temporaries
_BLOCK = 8192
# relative band around the reach and separation thresholds inside which the
# batched distance is replaced by the scalar expression, so an ulp cannot flip
# a call; also the slack of the reach limit over t
_TIE_RTOL = 1e-9
# relative padding of the 3t root-pair seed radius: the seeds are a superset
# of the root pairs in reach, and the reach test decides
_SEED_PAD = 1e-6
# pair lines formatted per write
_WRITE_CHUNK = 65536
ORACLE_MAX_N = 500  # largest cloud `verify_wspd` accepts


@dataclass
class Wspd:
    """Node pairs as a sorted (m, 2) intp array of rows (u, v) with u <= v."""

    pairs: np.ndarray
    epsilon: float
    t: float


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(k) for every k in `lengths`."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - lengths, lengths)


def gen_wspd(forest: NetForest, cloud: PointCloud, epsilon: float) -> Wspd:
    """Well-separated pairs covering all point pairs within the forest scale t.

    Seeds on every root with itself and on every root pair within 3t (one
    radius query over the root representatives, padded by `_SEED_PAD`): a
    root covers at most t, so a pair farther apart is out of reach. A node
    pair (u, v) only covers point pairs at least
    reach = dist - cover[u] - cover[v] apart; a pair whose reach exceeds
    t(1 + 1e-9) is dropped with all its descendants. Any other pair is
    emitted when max(da, db) <= epsilon * dist, da and db being the diameter
    bounds (twice `NetForest.cover`), or else the node with the larger bound
    is split (ties split the smaller id). A self pair (a, a) expands to every
    child pair (i <= j). The frontier is a stack of pair arrays, popped in
    blocks of at most `_BLOCK` rows and tested with one batched distance per
    block; rows within a 1e-9 relative band of either threshold are decided
    again with the scalar norm of the representatives, so the pair set does
    not depend on how distances are batched. Returns the distinct emitted
    pairs as a sorted (m, 2) array with u <= v.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0,1)")

    pts = cloud.points
    n_nodes = forest.n_nodes
    rep, cover = forest.rep, forest.cover
    bound = 2.0 * cover  # point-set diameter bound of every node
    # reach limit: a pair at distance exactly t survives rounding in the bound
    limit = forest.t * (1.0 + _TIE_RTOL)
    offsets, flat = forest.child_ptr, forest.child_ids
    n_children = np.diff(offsets)

    def children_of(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat child positions of `ids`, and how many each one has."""
        counts = n_children[ids]
        return np.repeat(offsets[ids], counts) + _ragged_arange(counts), counts

    def scalar_dist(u: int, v: int) -> float:
        return float(np.linalg.norm(pts[rep[u]] - pts[rep[v]]))

    stack: list[np.ndarray] = []

    def push(u: np.ndarray, v: np.ndarray) -> None:
        if u.size:
            stack.append(np.column_stack((np.minimum(u, v), np.maximum(u, v))))

    roots = forest.roots
    near = cKDTree(pts[rep[roots]]).query_pairs(
        3.0 * forest.t * (1.0 + _SEED_PAD), output_type="ndarray"
    )
    push(roots, roots)
    push(roots[near[:, 0]], roots[near[:, 1]])
    found = [np.empty(0, dtype=np.int64)]  # emitted pairs as codes u * n_nodes + v

    while stack:
        block = stack.pop()
        if len(block) > _BLOCK:
            stack.append(block[_BLOCK:])
            block = block[:_BLOCK]
        a, b = block[:, 0], block[:, 1]

        # self pairs: every child pair (i <= j) of the node
        other = a != b
        pos, counts = children_of(a[~other])
        width = np.repeat(counts, counts) - _ragged_arange(counts)  # pairs with first = i
        first = np.repeat(pos, width)
        second = first + _ragged_arange(width)
        push(flat[first], flat[second])

        # other pairs: drop those out of reach, then one separation test per row
        a, b = a[other], b[other]
        dist = row_distances(pts[rep[a]], pts[rep[b]])
        reach = dist - cover[a] - cover[b]
        within = reach <= limit
        for i in np.flatnonzero(np.abs(reach - limit) <= _TIE_RTOL * limit):
            within[i] = scalar_dist(a[i], b[i]) - cover[a[i]] - cover[b[i]] <= limit
        a, b, dist = a[within], b[within], dist[within]

        da, db = bound[a], bound[b]
        lhs = np.maximum(da, db)
        rhs = epsilon * dist
        separated = lhs <= rhs
        for i in np.flatnonzero(np.abs(lhs - rhs) <= _TIE_RTOL * np.maximum(lhs, rhs)):
            separated[i] = lhs[i] <= epsilon * scalar_dist(a[i], b[i])
        found.append(a[separated].astype(np.int64) * n_nodes + b[separated])

        a, b, da, db = a[~separated], b[~separated], da[~separated], db[~separated]
        split_a = (da > db) | ((da == db) & (a < b))
        split = np.where(split_a, a, b)
        keep = np.where(split_a, b, a)
        pos, counts = children_of(split)
        child, keep = flat[pos], np.repeat(keep, counts)
        push(child, keep)

    codes = np.unique(np.concatenate(found))
    pairs = np.column_stack((codes // n_nodes, codes % n_nodes)).astype(np.intp)
    return Wspd(pairs=pairs, epsilon=epsilon, t=forest.t)


@dataclass
class WspdReport:
    separation_violations: list[tuple[int, int]]
    coverage_violations: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.separation_violations and not self.coverage_violations


def _exact_diameter(pts: np.ndarray, idx: np.ndarray) -> float:
    if idx.size < 2:
        return 0.0
    return float(pairwise_distances(pts[idx]).max())


def verify_wspd(
    cloud: PointCloud,
    forest: NetForest,
    wspd: Wspd,
    epsilon: float,
    t: float,
) -> WspdReport:
    """Quadratic-scan oracle for the two decomposition contracts.

    (a) every emitted pair is well-separated under exact point-set
    diameters; (b) every point pair within t is covered. Desk scale only.
    """
    if cloud.n > ORACLE_MAX_N:
        raise ValueError(f"verify_wspd is an oracle for n <= {ORACLE_MAX_N}")
    pts = cloud.points

    separation: list[tuple[int, int]] = []
    covered = np.zeros((cloud.n, cloud.n), dtype=bool)
    for u, v in wspd.pairs.tolist():
        pu, pv = forest.points(u), forest.points(v)
        dist = float(np.linalg.norm(pts[forest.rep[u]] - pts[forest.rep[v]]))
        diam = max(_exact_diameter(pts, pu), _exact_diameter(pts, pv))
        if diam > epsilon * dist * (1 + RTOL):
            separation.append((u, v))
        covered[np.ix_(pu, pv)] = True
        covered[np.ix_(pv, pu)] = True

    coverage: list[tuple[int, int]] = []
    dmat = pairwise_distances(cloud)
    for p in range(cloud.n):
        for q in range(p + 1, cloud.n):
            if dmat[p, q] <= t and not covered[p, q]:
                coverage.append((p, q))
    return WspdReport(separation_violations=separation, coverage_violations=coverage)


def write_wspd(path: str | Path, wspd: Wspd) -> None:
    """`wspd v1` header, then one `pair u v` line per row, written in chunks."""
    with open(path, "w") as fh:
        fh.write("wspd v1 epsilon=%.17g t=%.17g\n" % (wspd.epsilon, wspd.t))
        for lo in range(0, len(wspd.pairs), _WRITE_CHUNK):
            chunk = wspd.pairs[lo : lo + _WRITE_CHUNK]
            fh.write("pair %d %d\n" * len(chunk) % tuple(chunk.ravel().tolist()))


_PAIR = re.compile(r"pair ([0-9]+) ([0-9]+)")


def read_wspd(path: str | Path) -> Wspd:
    """Inverse of `write_wspd`; rejects other lines and rows with u > v."""
    (epsilon, t), body = read_records(path, "wspd", epsilon=float, t=float)
    pairs = np.array(match_rows(path, _PAIR, body), dtype=np.intp).reshape(-1, 2)
    descending = np.flatnonzero(pairs[:, 0] > pairs[:, 1])
    if descending.size:
        u, v = pairs[descending[0]].tolist()
        raise ValueError(f"{path}: pair {u} {v} is not stored with u <= v")
    return Wspd(pairs=pairs, epsilon=epsilon, t=t)
