"""Scale-restricted well-separated pair decompositions over a net-forest.

A pair of forest nodes (u, v) is epsilon-well-separated when the larger of
the two point-set diameters is at most epsilon times the distance between
their representatives. The decomposition covers every point pair within
distance t of each other by at least one such node pair; pairs further
apart carry no guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forest import COVER_COEF, TAU, NetForest
from .geometry import PointCloud, pairwise_distances

__all__ = [
    "WsPair",
    "Wspd",
    "WspdReport",
    "diam_bound",
    "gen_wspd",
    "verify_wspd",
    "write_wspd",
    "read_wspd",
]


@dataclass(frozen=True, order=True)
class WsPair:
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.u > self.v:
            raise ValueError("pairs are stored with u <= v")


@dataclass
class Wspd:
    pairs: list[WsPair]
    epsilon: float
    t: float


def diam_bound(forest: NetForest, node_id: int) -> float:
    """Cheap upper bound on a node's point-set diameter.

    Leaves are single points (diameter zero). Roots can fill their whole
    cluster, which the rounded-down root level does not reflect, so they get
    the cluster bound 2t. Everything else gets twice the covering radius.
    """
    v = forest.nodes[node_id]
    if v.is_leaf:
        return 0.0
    if v.is_root:
        return 2.0 * forest.t
    return 2.0 * COVER_COEF * float(TAU) ** v.level


def gen_wspd(
    forest: NetForest, cloud: PointCloud, epsilon: float, t: float | None = None
) -> Wspd:
    """Well-separated pairs covering all point pairs within the forest scale.

    Seeds on every root pair within 7t (`NetForest.roots_within_7t`, an
    exact radius query over the root representatives, so built and loaded
    forests seed alike) and recursively splits the node with the larger
    diameter bound until the separation test passes. Deterministic: ties
    split the smaller node id, output is sorted.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0,1)")
    if t is None:
        t = forest.t
    if not math.isclose(t, forest.t, rel_tol=1e-12):
        raise ValueError(f"forest was built at scale {forest.t}, not {t}")

    pts = cloud.points
    out: set[tuple[int, int]] = set()
    neighbours = forest.roots_within_7t(cloud)

    stack: list[tuple[int, int]] = []
    for r in forest.roots:
        for s in neighbours[r]:
            if s >= r:
                stack.append((r, s))

    while stack:
        a, b = stack.pop()
        if a == b:
            node = forest.nodes[a]
            if node.is_leaf:
                continue
            ch = node.children
            for i in range(len(ch)):
                for j in range(i, len(ch)):
                    stack.append((min(ch[i], ch[j]), max(ch[i], ch[j])))
            continue
        da, db = diam_bound(forest, a), diam_bound(forest, b)
        dist = float(np.linalg.norm(pts[forest.nodes[a].rep] - pts[forest.nodes[b].rep]))
        if max(da, db) <= epsilon * dist:
            out.add((a, b))
            continue
        split = a if (da > db or (da == db and a < b)) else b
        keep = b if split == a else a
        for c in forest.nodes[split].children:
            stack.append((min(c, keep), max(c, keep)))

    return Wspd(pairs=[WsPair(u, v) for (u, v) in sorted(out)], epsilon=epsilon, t=float(t))


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
    rtol: float = 1e-9,
) -> WspdReport:
    """Quadratic-scan oracle for the two decomposition contracts.

    (a) every emitted pair is well-separated under exact point-set
    diameters; (b) every point pair within t is covered. Desk scale only.
    """
    if cloud.n > 500:
        raise ValueError("verify_wspd is an oracle for n <= 500")
    pts = cloud.points

    separation: list[tuple[int, int]] = []
    covered = np.zeros((cloud.n, cloud.n), dtype=bool)
    for pair in wspd.pairs:
        nu, nv = forest.nodes[pair.u], forest.nodes[pair.v]
        dist = float(np.linalg.norm(pts[nu.rep] - pts[nv.rep]))
        diam = max(_exact_diameter(pts, nu.points), _exact_diameter(pts, nv.points))
        if diam > epsilon * dist * (1 + rtol):
            separation.append((pair.u, pair.v))
        covered[np.ix_(nu.points, nv.points)] = True
        covered[np.ix_(nv.points, nu.points)] = True

    coverage: list[tuple[int, int]] = []
    dmat = pairwise_distances(cloud)
    for p in range(cloud.n):
        for q in range(p + 1, cloud.n):
            if dmat[p, q] <= t and not covered[p, q]:
                coverage.append((p, q))
    return WspdReport(separation_violations=separation, coverage_violations=coverage)


def write_wspd(path: str | Path, wspd: Wspd) -> None:
    lines = ["wspd v1 epsilon=%.17g t=%.17g" % (wspd.epsilon, wspd.t)]
    for pair in wspd.pairs:
        lines.append(f"pair {pair.u} {pair.v}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_wspd(path: str | Path) -> Wspd:
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("wspd v1 "):
        raise ValueError(f"{path}: not a wspd v1 file")
    header = dict(tok.split("=", 1) for tok in text[0].split()[2:])
    pairs: list[WsPair] = []
    for line in text[1:]:
        if not line.strip():
            continue
        toks = line.split()
        if toks[0] != "pair" or len(toks) != 3:
            raise ValueError(f"{path}: unexpected line {line!r}")
        pairs.append(WsPair(int(toks[1]), int(toks[2])))
    return Wspd(pairs=pairs, epsilon=float(header["epsilon"]), t=float(header["t"]))
