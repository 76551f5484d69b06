"""Workloads of the pipeline benchmark: corpora, timed passes, output checks.

Every workload makes its corpus from the seed with the package's own
generators. The scale t comes from a cKDTree median nearest-neighbour
distance, so no step of the set-up is O(n^2). It is measured on the corpus
of REFERENCE_SEED, not on the seeded one, so every seed shares one t: the
forest levels are powers of 11, and at n = 150 the median NN distance moves
by ~8% between seeds, enough to move slices and WSSD tuples across level
thresholds and change the pass time by up to ~45%.

    wspd-exact   CLI file pipeline: build-forest --exact-nn, then
                 wspd --forest and dim-estimate --forest on the file.
                 The forest rel fill and the WSPD do most of the work; the
                 forest is read back from its file (read_forest and the
                 O(m^2) roots_within_7t path). No LSH.
    forest-lsh   build_forest(nn="lsh") in memory: the two LSH index builds
                 and the LSH queries of the greedy net dominate; no WSPD.
    cech-slices  build_cech_pipeline on the uniform cube: tiny forest,
                 exact_meb, WSSD tiers and the slice loop (vcell and
                 descend_to_level) do the work.

Outputs are checked on their serialized form, which is the behaviour the
package promises to keep, with sampled oracles that work at any n.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from scalenets import cech, cli, forest, geometry, lsh, wssd

RTOL = 1e-9
WSPD_EPSILON = 0.5
CECH_EPSILON = 0.5
CECH_K = 2
CECH_SCALES = 8
LSH_RHO, LSH_DELTA = 0.5, 0.1  # the build_forest and CLI defaults
RECALL_QUERIES = 200
REL_SAMPLE = 40
PAIR_SAMPLE = 300
SIMPLEX_SAMPLE = 25
REFERENCE_SEED = 0


def median_nn(points: np.ndarray) -> float:
    dist, _ = cKDTree(points).query(points, k=2)
    return float(np.median(dist[:, 1]))


def affine_corpus(n: int, seed: int) -> geometry.PointCloud:
    """Affine 2-flat in R^8 with extent 2*sqrt(n/1000): constant density in n."""
    return geometry.generate(
        "affine", n=n, d=8, flat_dim=2, seed=seed, extent=2.0 * math.sqrt(n / 1000.0)
    )


# ---------------------------------------------------------------------------
# serialized outputs
# ---------------------------------------------------------------------------


@dataclass
class ForestFile:
    """The parts of a `netforest v1` file the checks and counts need."""

    t: float
    parent: np.ndarray
    level: np.ndarray
    rep: np.ndarray
    children: list[list[int]]
    rel: list[list[int]]

    @classmethod
    def parse(cls, text: str) -> "ForestFile":
        lines = text.splitlines()
        header = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
        parent, level, rep, children, rel = [], [], [], [], []
        for line in lines[1:]:
            toks = line.split()
            fields = dict(tok.split("=", 1) for tok in toks[2:])
            if int(toks[1]) != len(parent):
                raise ValueError("forest node ids are not dense and ordered")
            parent.append(-1 if fields["parent"] == "-" else int(fields["parent"]))
            level.append(int(fields["level"]))
            rep.append(int(fields["rep"]))
            children.append([int(c) for c in fields["children"].split(",") if c])
            rel.append([int(r) for r in fields["rel"].split(",") if r])
        return cls(
            t=float(header["t"]),
            parent=np.array(parent),
            level=np.array(level),
            rep=np.array(rep),
            children=children,
            rel=rel,
        )

    @property
    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent < 0)

    def leaves_under(self, node: int) -> list[int]:
        out, stack = [], [node]
        while stack:
            v = stack.pop()
            if self.children[v]:
                stack.extend(self.children[v])
            else:
                out.append(int(self.rep[v]))
        return out

    def ancestors(self) -> dict[int, list[int]]:
        """Point -> its leaf node and every ancestor up to the root."""
        out = {}
        for v in np.flatnonzero([not c for c in self.children]):
            chain = [int(v)]
            while self.parent[chain[-1]] >= 0:
                chain.append(int(self.parent[chain[-1]]))
            out[int(self.rep[v])] = chain
        return out

    def counts(self) -> dict[str, int]:
        depth = max(len(chain) - 1 for chain in self.ancestors().values())
        return {
            "forest.roots": int(self.roots.size),
            "forest.nodes": int(self.parent.size),
            "forest.depth": depth,
            "forest.rel_entries": sum(len(r) for r in self.rel),
        }


def parse_pairs(text: str) -> list[tuple[int, int]]:
    return [tuple(map(int, line.split()[1:])) for line in text.splitlines()[1:]]


def parse_filtration(text: str) -> list[tuple[float, dict[int, int], set]]:
    """(alpha, vertex map, simplices) per slice of a `cechapprox v1` file."""
    slices = []
    for line in text.splitlines()[1:]:
        toks = line.split()
        if toks[0] == "slice":
            slices.append((float(toks[1].split("=", 1)[1]), {}, set()))
        elif toks[0] == "vmap":
            slices[-1][1][int(toks[1])] = int(toks[2])
        else:
            slices[-1][2].add(tuple(int(v) for v in toks[2:]))
    return slices


# ---------------------------------------------------------------------------
# sampled output checks; each returns a list of violation strings
# ---------------------------------------------------------------------------


def check_root_net(ff: ForestFile, points: np.ndarray) -> list[str]:
    """Roots are a (t,t)-net whose clusters partition the points."""
    bad = []
    owner = np.full(len(points), -1)
    for r in ff.roots:
        members = ff.leaves_under(int(r))
        if np.any(owner[members] >= 0):
            bad.append(f"root {r}: points owned by two roots")
        owner[members] = r
        far = np.linalg.norm(points[members] - points[ff.rep[r]], axis=1) > ff.t * (1 + RTOL)
        if far.any():
            bad.append(f"root {r}: {int(far.sum())} points beyond t")
    if np.any(owner < 0):
        bad.append(f"{int((owner < 0).sum())} points in no root cluster")
    close = cKDTree(points[ff.rep[ff.roots]]).query_pairs(ff.t * (1 - RTOL))
    if close:
        bad.append(f"{len(close)} root pairs closer than t")
    return bad


def check_rel(path: Path, ff: ForestFile, cloud, rng) -> list[str]:
    """Written rel lists equal `brute_force_rel` on sampled nodes.

    Most rel lists hold only the node itself, so half the sample is drawn
    from nodes with another point within their rel radius 14 * 11^level,
    found with a cKDTree and not from the rel lists under test.
    """
    loaded = forest.read_forest(path)
    reps = cloud.points[ff.rep]
    crowded = np.flatnonzero(
        cKDTree(cloud.points).query_ball_point(reps, 14.0 * 11.0**ff.level, return_length=True) > 1
    )
    nodes = set(rng.choice(ff.parent.size, size=min(REL_SAMPLE, ff.parent.size), replace=False))
    nodes |= set(rng.choice(crowded, size=min(REL_SAMPLE, crowded.size), replace=False))
    return [
        f"node {u}: rel differs from brute_force_rel"
        for u in sorted(int(u) for u in nodes)
        if sorted(ff.rel[u]) != forest.brute_force_rel(loaded, cloud, u)
    ]


def check_wspd(ff: ForestFile, pairs, points, t, epsilon, rng) -> list[str]:
    """Coverage of sampled point pairs within t; separation of sampled pairs."""
    bad = []
    pair_set = set(pairs)
    chains = ff.ancestors()
    near = cKDTree(points).query_pairs(t, output_type="ndarray")
    for p, q in near[rng.choice(len(near), size=min(PAIR_SAMPLE, len(near)), replace=False)]:
        if not any(
            (min(a, b), max(a, b)) in pair_set for a in chains[int(p)] for b in chains[int(q)]
        ):
            bad.append(f"points {p},{q} within t not covered")
    for i in rng.choice(len(pairs), size=min(PAIR_SAMPLE, len(pairs)), replace=False):
        u, v = pairs[i]
        diam = max(
            float(pdist(points[members]).max(initial=0.0))
            for members in (ff.leaves_under(u), ff.leaves_under(v))
        )
        dist = float(np.linalg.norm(points[ff.rep[u]] - points[ff.rep[v]]))
        if diam > epsilon * dist * (1 + RTOL):
            bad.append(f"pair {u},{v} not {epsilon}-separated")
    return bad


def check_cech(slices, points, epsilon, rng) -> list[str]:
    """Upper and lower containment of sampled simplices and point pairs."""
    bad = []
    tree = cKDTree(points)
    for alpha, vmap, simplices in slices:
        simplex_list = sorted(simplices)
        for i in rng.choice(len(simplex_list), size=min(SIMPLEX_SAMPLE, len(simplex_list)),
                            replace=False):
            simplex = simplex_list[i]
            radius = geometry.exact_meb(points[list(simplex)]).radius
            if radius > (1 + epsilon) * alpha * (1 + RTOL):
                bad.append(f"alpha={alpha}: simplex {simplex} above (1+eps) alpha")
        near = tree.query_pairs(2.0 * alpha, output_type="ndarray")
        for p, q in near[rng.choice(len(near), size=min(SIMPLEX_SAMPLE, len(near)), replace=False)]:
            if geometry.exact_meb(points[[p, q]]).radius > alpha:
                continue
            image = tuple(sorted({vmap[int(p)], vmap[int(q)]}))
            if len(image) >= 2 and image not in simplices:
                bad.append(f"alpha={alpha}: Cech edge {p},{q} missing from the slice")
    return bad


def check_dim(ff: ForestFile, line: str) -> list[str]:
    """The dim-estimate line reports the forest's largest child count."""
    fields = dict(tok.split("=", 1) for tok in line.split()[1:])
    x = max(1, max(len(c) for c in ff.children))
    if int(fields["x"]) != x or float(fields["log2x"]) != math.log2(x):
        return [f"dim-estimate {line.strip()!r}, forest max out-degree {x}"]
    return []


def lsh_recall(points: np.ndarray, t: float, seed: int, rng) -> float:
    """Sampled recall at radius t of the index build_forest(nn="lsh") makes first.

    The index is rebuilt with the same parameters and seed; its build is
    deterministic. Ground truth comes from a cKDTree.
    """
    index = lsh.LshIndex(points, lsh.derive_params(len(points), t, LSH_RHO, LSH_DELTA), seed)
    tree = cKDTree(points)
    hits = trues = 0
    for q in rng.choice(len(points), size=min(RECALL_QUERIES, len(points)), replace=False):
        want = set(tree.query_ball_point(points[q], t))
        hits += len(want & set(index.query(int(q), t).neighbours))
        trues += len(want)
    return hits / trues


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def digest(files: dict[str, str]) -> str:
    """sha256 over a pass's serialized outputs, by file name."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


class Workload:
    """Set-up, one timed pass, serialization and checks for one corpus."""

    name = ""
    default_n = 0
    t_factor = 1.0  # t = t_factor * median NN distance of the reference corpus

    def __init__(self, seed: int, workdir: Path, n: int | None = None):
        self.seed = seed
        self.n = n or self.default_n
        self.workdir = workdir

    def corpus(self, seed: int) -> geometry.PointCloud:
        raise NotImplementedError

    def setup(self) -> None:
        self.t = self.t_factor * median_nn(self.corpus(REFERENCE_SEED).points)
        self.cloud = self.corpus(self.seed)

    def run(self):
        """The timed pass; returns whatever `collect` needs."""
        raise NotImplementedError

    def collect(self, result) -> dict[str, str]:
        raise NotImplementedError

    def counts(self, out: dict[str, str]) -> dict[str, int]:
        return ForestFile.parse(out["forest"]).counts()

    def checks(self, out: dict[str, str], rng) -> dict[str, Callable[[], list[str]]]:
        """Named checks of one pass's outputs, run one by one by the caller."""
        ff = ForestFile.parse(out["forest"])
        path = self.workdir / "checked-forest.txt"
        path.write_text(out["forest"])
        return {
            "root_net": lambda: check_root_net(ff, self.cloud.points),
            "rel": lambda: check_rel(path, ff, self.cloud, rng),
        }


class AffineFlat(Workload):
    t_factor = 3.0

    def corpus(self, seed: int) -> geometry.PointCloud:
        return affine_corpus(self.n, seed)


class WspdExact(AffineFlat):
    name = "wspd-exact"
    default_n = 2000

    def setup(self) -> None:
        super().setup()
        self.paths = {k: self.workdir / f"{k}.txt" for k in ("points", "forest", "wspd", "dim")}
        geometry.write_points(self.paths["points"], self.cloud)

    def run(self):
        p = {k: str(v) for k, v in self.paths.items()}
        common = ["--input", p["points"], "--t", repr(self.t), "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return [
                cli.main(["build-forest", *common, "--exact-nn", "--output", p["forest"]]),
                cli.main(["wspd", *common, "--exact-nn", "--forest", p["forest"],
                          "--epsilon", repr(WSPD_EPSILON), "--output", p["wspd"]]),
                cli.main(["dim-estimate", "--forest", p["forest"], "--output", p["dim"]]),
            ]

    def collect(self, codes) -> dict[str, str]:
        if codes != [0, 0, 0]:
            raise RuntimeError(f"CLI exit codes {codes}")
        return {k: self.paths[k].read_text() for k in ("forest", "wspd", "dim")}

    def counts(self, out: dict[str, str]) -> dict[str, int]:
        return {**super().counts(out), "wspd.pairs": len(parse_pairs(out["wspd"]))}

    def checks(self, out: dict[str, str], rng):
        ff = ForestFile.parse(out["forest"])
        pairs = parse_pairs(out["wspd"])
        return {
            **super().checks(out, rng),
            "wspd": lambda: check_wspd(ff, pairs, self.cloud.points, self.t, WSPD_EPSILON, rng),
            "dim": lambda: check_dim(ff, out["dim"]),
        }


class ForestLsh(AffineFlat):
    name = "forest-lsh"
    default_n = 1700

    def run(self):
        return forest.build_forest(
            self.cloud, self.t, self.seed, nn="lsh", rho=LSH_RHO, delta=LSH_DELTA
        )

    def collect(self, built) -> dict[str, str]:
        path = self.workdir / "forest.txt"
        forest.write_forest(path, built, self.cloud.dim)
        return {"forest": path.read_text()}


class CechSlices(Workload):
    name = "cech-slices"
    default_n = 150

    def corpus(self, seed: int) -> geometry.PointCloud:
        return geometry.generate("uniform", n=self.n, d=3, seed=seed)

    def setup(self) -> None:
        super().setup()
        self.grid = np.geomspace(0.15 * self.t, self.t, CECH_SCALES)

    def run(self):
        return cech.build_cech_pipeline(
            self.cloud, CECH_EPSILON, CECH_K, self.t, self.seed, nn="exact", grid=self.grid
        )

    def collect(self, built) -> dict[str, str]:
        built_forest, built_wssd, filtration = built
        paths = {k: self.workdir / f"{k}.txt" for k in ("forest", "wssd", "cech")}
        forest.write_forest(paths["forest"], built_forest, self.cloud.dim)
        wssd.write_wssd(paths["wssd"], built_wssd)
        cech.write_filtration(paths["cech"], filtration)
        return {k: p.read_text() for k, p in paths.items()}

    def counts(self, out: dict[str, str]) -> dict[str, int]:
        tiers = [line.split()[1] for line in out["wssd"].splitlines()[1:]]
        slices = parse_filtration(out["cech"])
        return {
            **super().counts(out),
            "wssd.tuples_tier1": tiers.count("1"),
            "wssd.tuples_tier2": tiers.count("2"),
            "cech.slices": len(slices),
            "cech.simplices": sum(len(s[2]) for s in slices),
        }

    def checks(self, out: dict[str, str], rng):
        slices = parse_filtration(out["cech"])
        return {
            **super().checks(out, rng),
            "cech": lambda: check_cech(slices, self.cloud.points, CECH_EPSILON, rng),
        }


WORKLOADS = {w.name: w for w in (WspdExact, ForestLsh, CechSlices)}
