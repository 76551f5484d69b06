"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria use their stated tolerances; instances are
fixed-seed so reruns are exact.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from scalenets import cech as cech_mod
from scalenets import cli as cli_mod
from scalenets import dimension as dim_mod
from scalenets import forest as forest_mod
from scalenets import geometry as geom
from scalenets import lsh as lsh_mod
from scalenets import wspd as wspd_mod
from scalenets import wssd as wssd_mod

from conftest import median_nn, quantile_scale, root_of


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


# --- shared instances --------------------------------------------------------


@pytest.fixture(scope="module")
def lsh_instance():
    cloud = geom.generate("uniform", n=2000, d=8, seed=101)
    dm = geom.pairwise_distances(cloud)
    r = float(np.quantile(dm[dm > 0], 0.01))
    pairs = np.argwhere(np.triu(dm <= r, 1))
    params = lsh_mod.derive_params(2000, r, 0.5, 0.1)
    return cloud, dm, r, pairs, params


@pytest.fixture(scope="module")
def structural_forests():
    corpora = [
        ("uniform-1000", geom.generate("uniform", n=1000, d=3, seed=11), 0.25),
        ("clustered-1000", geom.generate("clustered", n=1000, d=4, seed=12, clusters=12), 0.2),
        ("affine-600", geom.generate("affine", n=600, d=6, flat_dim=2, seed=13), 0.25),
        ("sphere-300", geom.generate("sphere", n=300, d=3, seed=14, noise=0.05), 0.3),
        ("curve-300", geom.generate("curve", n=300, d=3, seed=15, spacing=0.04), 0.2),
    ]
    out = []
    for name, cloud, q in corpora:
        t = quantile_scale(cloud, q)
        out.append((name, cloud, t, forest_mod.build_forest(cloud, t, nn="exact")))
    # awkward scale just above a level-formula power boundary
    cloud = geom.generate("uniform", n=200, d=3, seed=16)
    t = 2.2 * 11.0**-1 * 1.01
    out.append(("awkward-t", cloud, t, forest_mod.build_forest(cloud, t, nn="exact")))
    return out


def collide_mask(index, pairs: np.ndarray) -> np.ndarray:
    """For each (i, j) row: do i and j share a bucket in any table of the index?"""
    return np.any(index._gids[:, pairs[:, 0]] == index._gids[:, pairs[:, 1]], axis=0)


# --- criteria ---------------------------------------------------------------


def test_criterion_01_lsh_completeness(lsh_instance):
    cloud, dm, r, pairs, params = lsh_instance
    start = time.perf_counter()
    full = 0
    builds = 20
    for i in range(builds):
        index = lsh_mod.LshIndex(cloud.points, params, seed=500 + i)
        if bool(collide_mask(index, pairs).all()):
            full += 1
    elapsed = time.perf_counter() - start
    ok = full >= math.ceil(0.85 * builds) and elapsed < 120.0
    report(
        1,
        "LSH completeness: full-recall builds >= 0.85 within 2 minutes",
        ok,
        f"{full}/{builds} full recall, {elapsed:.1f}s, k={params.k} l={params.l}",
    )


def test_criterion_02_lsh_soundness(lsh_instance):
    cloud, dm, r, pairs, params = lsh_instance
    bad = 0
    checked = 0
    for i in range(2):
        index = lsh_mod.LshIndex(cloud.points, params, seed=900 + i)
        for q in range(cloud.n):
            got = np.array(sorted(index.query(q, r).neighbours))
            want = np.flatnonzero(dm[q] <= r)
            checked += 1
            if not set(got.tolist()) <= set(want.tolist()):
                bad += 1
    report(2, "LSH soundness: query output subset of oracle in 100% of runs", bad == 0,
           f"{checked} queries, {bad} unsound")


def test_criterion_03_bucket_bound():
    cloud = geom.generate("clustered", n=800, d=6, seed=31, clusters=40, separation=30.0, spread=0.05)
    r = 1.0
    params = lsh_mod.derive_params(800, r, 0.5, 0.1)
    index = lsh_mod.LshIndex(cloud.points, params, seed=32)
    dm = geom.pairwise_distances(cloud)
    c_max = int((dm <= params.r2).sum(axis=1).max())
    scanned = [index.query(q, r).candidates_scanned for q in range(800)]
    mean = float(np.mean(scanned))
    bound = params.l * (c_max + 1) * 1.5
    report(3, "bucket-size bound: mean scanned <= l*(C_max+1)*1.5", mean <= bound,
           f"mean={mean:.1f} bound={bound:.1f}")


def test_criterion_04_net_validity(structural_forests):
    bad_all = []
    for name, cloud, t, forest in structural_forests:
        rep_ids = forest.rep[forest.roots].tolist()
        rep_pts = cloud.points[rep_ids]
        for p in range(cloud.n):
            if float(np.linalg.norm(rep_pts - cloud.points[p], axis=1).min()) > t * (1 + 1e-9):
                bad_all.append(f"{name}: point {p} uncovered")
        for i in range(len(rep_ids)):
            d = np.linalg.norm(rep_pts[i + 1 :] - rep_pts[i], axis=1)
            if d.size and float(d.min()) <= t * (1 - 1e-9):
                bad_all.append(f"{name}: roots too close")
        total = sum(forest.points(x).size for x in forest.roots)
        if total != cloud.n:
            bad_all.append(f"{name}: partition {total} != {cloud.n}")
    report(4, "net validity: (t,t)-net covering/separation and partition", not bad_all,
           "; ".join(bad_all[:3]))


def test_criterion_05_net_tree_structure(structural_forests):
    bad_all = []
    for name, cloud, t, forest in structural_forests:
        bad = forest_mod.check_forest(forest, cloud)
        if bad:
            bad_all.append(f"{name}: {bad[0]}")
        levels = sorted(set(forest.level[forest.parent >= 0].tolist()))
        for lev in levels[-3:]:
            reps = forest_mod.extract_net(forest, lev)
            cover = forest_mod.COVER_COEF * 11.0**lev
            rep_pts = cloud.points[reps]
            for p in range(0, cloud.n, 3):
                d = np.linalg.norm(rep_pts - cloud.points[p], axis=1)
                if float(d.min()) > cover * (1 + 1e-9):
                    bad_all.append(f"{name}: extraction covering fails at {lev}")
                    break
            sep = forest_mod.PACK_COEF * 11.0**lev
            by_tree: dict[int, list[int]] = {}
            for v in range(forest.n_nodes):
                parent = forest.parent[v]
                low_ok = not forest.children_of(v) or forest.level[v] <= lev
                high_ok = parent < 0 or lev < forest.level[parent]
                if low_ok and high_ok:
                    by_tree.setdefault(root_of(forest, v), []).append(forest.rep[v])
            for tree_reps in by_tree.values():
                if len(tree_reps) < 2:
                    continue
                sub = cloud.points[tree_reps]
                diff = sub[:, None, :] - sub[None, :, :]
                dmat = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
                np.fill_diagonal(dmat, np.inf)
                if float(dmat.min()) < sep * (1 - 1e-9):
                    bad_all.append(f"{name}: extraction separation fails at {lev}")
    report(5, "net-tree covering/packing and extraction bounds", not bad_all,
           "; ".join(bad_all[:3]))


def test_criterion_06_rel_equivalence():
    cloud = geom.generate("clustered", n=300, d=3, seed=61, clusters=10)
    t = quantile_scale(cloud, 0.15)
    forest = forest_mod.build_forest(cloud, t, nn="exact")
    mismatches = 0
    for v in range(forest.n_nodes):
        if forest.rel_of(v) != forest_mod.brute_force_rel(forest, cloud, v):
            mismatches += 1
    grid_ok = all(
        forest_mod.REL_COEF * 11.0 ** forest_mod.root_level(float(tt)) <= 7 * tt * (1 + 1e-9)
        for tt in np.geomspace(1e-4, 1e4, 50)
    )
    report(6, "rel equivalence and 14*tau^level <= 7t over a log grid",
           mismatches == 0 and grid_ok,
           f"{mismatches} mismatched nodes over {forest.n_nodes}")


def test_criterion_07_wspd():
    kinds = [
        ("uniform", dict(n=300, d=3)),
        ("clustered", dict(n=300, d=3, clusters=8)),
        ("affine", dict(n=300, d=6, flat_dim=2)),
        ("sphere", dict(n=300, d=3, noise=0.05)),
        ("curve", dict(n=300, d=3, spacing=0.04)),
    ]
    violations = []
    for i in range(10):
        kind, kwargs = kinds[i % len(kinds)]
        cloud = geom.generate(kind, seed=700 + i, **kwargs)
        t = quantile_scale(cloud, 0.2)
        forest = forest_mod.build_forest(cloud, t, nn="exact")
        wspd = wspd_mod.gen_wspd(forest, cloud, 0.5)
        rep = wspd_mod.verify_wspd(cloud, forest, wspd, 0.5, t)
        if not rep.ok:
            violations.append((kind, i, len(rep.separation_violations), len(rep.coverage_violations)))

    sizes = []
    ns = (250, 500, 1000, 2000)
    t = None
    for n in ns:
        extent = math.sqrt(n / ns[0])
        cloud = geom.generate("affine", n=n, d=6, flat_dim=2, seed=71, extent=extent)
        if t is None:
            t = 2.0 * median_nn(cloud)
        forest = forest_mod.build_forest(cloud, t, nn="exact")
        sizes.append(len(wspd_mod.gen_wspd(forest, cloud, 0.5).pairs))
    slope = float(np.polyfit(np.log(ns), np.log(sizes), 1)[0])
    ok = not violations and 0.8 <= slope <= 1.2
    report(7, "WSPD: zero violations on 10 corpora; size slope 1 +/- 0.2", ok,
           f"violations={violations[:2]} slope={slope:.3f} sizes={sizes}")


def test_criterion_08_wssd():
    violations = []
    capped_seen = False
    cases = []
    for i in range(6):
        if i < 2:
            cloud = geom.generate("clustered", n=40, d=3, seed=800 + i,
                                  clusters=3, separation=6.0, spread=0.9)
            t = 1.6  # cluster diameter ~ 2t: exercises the root cap
        else:
            kind = ("uniform", "clustered", "affine", "sphere")[i % 4]
            kwargs = dict(n=40, d=3) if kind != "affine" else dict(n=40, d=5, flat_dim=2)
            cloud = geom.generate(kind, seed=800 + i, **kwargs)
            t = quantile_scale(cloud, 0.15)
        cases.append((cloud, t, 2))
    for i in range(4):
        kind = ("uniform", "clustered")[i % 2]
        kwargs = dict(n=25, d=3) if kind == "uniform" else dict(n=25, d=3, clusters=3)
        cloud = geom.generate(kind, seed=850 + i, **kwargs)
        cases.append((cloud, quantile_scale(cloud, 0.15), 3))

    for idx, (cloud, t, k) in enumerate(cases):
        forest = forest_mod.build_forest(cloud, 2 * t, nn="exact")
        wssd = wssd_mod.gen_wssd(forest, cloud, 0.5, k)
        capped_seen = capped_seen or wssd.stats["capped"] > 0
        rep = wssd_mod.verify_wssd(cloud, forest, wssd, 0.5, k, t)
        if not rep.ok:
            violations.append((idx, k, len(rep.coverage_violations), len(rep.separation_violations)))
    ok = not violations and capped_seen
    report(8, "WSSD: zero coverage/separation violations incl. root-cap instances", ok,
           f"violations={violations[:2]} capped_exercised={capped_seen}")


def test_criterion_09_approx_meb():
    rng = np.random.default_rng(90)
    worst = 0.0
    for trial in range(100):
        d = (2, 5, 10)[trial % 3]
        pts = rng.standard_normal((10, d))
        a = wssd_mod.approx_meb(pts, 0.05)
        e = geom.exact_meb(pts)
        if not a.contains(pts):
            report(9, "approx enclosing ball", False, f"trial {trial}: containment")
        worst = max(worst, a.radius / e.radius)
    report(9, "approximate enclosing ball within (1+0.05) of exact", worst <= 1.05,
           f"worst ratio {worst:.5f}")


def test_criterion_10_cech_sandwich():
    failures = []
    h_ok = True
    for i in range(10):
        kind = ("uniform", "clustered", "affine")[i % 3]
        kwargs = dict(n=20, d=3) if kind != "affine" else dict(n=20, d=4, flat_dim=2)
        cloud = geom.generate(kind, seed=1000 + i, **kwargs)
        t = quantile_scale(cloud, 0.35)
        grid = np.geomspace(0.15 * t, t, 6)
        for eps in (0.25, 0.5, 1.0):
            forest, wssd, out = cech_mod.build_cech_pipeline(
                cloud, eps, 2, t, seed=i, grid=grid, nn="exact"
            )
            for sl in out.slices:
                if sl.h >= forest.root_level:
                    h_ok = False
            rep = cech_mod.verify_sandwich(cloud, out, eps, 2)
            if not rep.ok:
                failures.append((kind, i, eps, len(rep.lower_violations), len(rep.upper_violations)))
    report(10, "Cech sandwich containments at every grid scale; h below root level",
           not failures and h_ok, f"failures={failures[:2]}")


def test_criterion_11_dimension():
    # exact zero below the closest pair
    cloud = geom.generate("uniform", n=40, d=3, seed=110)
    dm = geom.pairwise_distances(cloud)
    t_small = float(dm[dm > 0].min()) * 0.9
    zero_ok = dim_mod.estimate_dim(forest_mod.build_forest(cloud, t_small, nn="exact")).estimate == 0.0

    offsets = []
    # collinear
    pts = np.zeros((50, 3))
    pts[:, 0] = np.arange(50.0)
    collinear = geom.PointCloud(pts)
    t = 49.0 / 6
    est = dim_mod.estimate_dim(forest_mod.build_forest(collinear, t, nn="exact"))
    sub = geom.PointCloud(pts[np.round(np.linspace(0, 49, 12)).astype(int)])
    oracle = geom.restricted_dim(geom.brute_restricted_doubling(sub, t))
    offsets.append(("collinear", abs(est.estimate - oracle)))
    # planar
    planar = geom.generate("affine", n=50, d=5, flat_dim=2, seed=111)
    t = float(geom.pairwise_distances(planar).max()) / 6
    est = dim_mod.estimate_dim(forest_mod.build_forest(planar, t, nn="exact"))
    rng = np.random.default_rng(112)
    sub = geom.PointCloud(planar.points[np.sort(rng.choice(50, 12, replace=False))])
    oracle = geom.restricted_dim(geom.brute_restricted_doubling(sub, t))
    offsets.append(("planar", abs(est.estimate - oracle)))

    ok = zero_ok and all(off <= 2.0 for _, off in offsets)
    report(11, "dimension estimate: zero below closest pair; log offset <= 2", ok,
           f"zero={zero_ok} offsets={[(n, round(o, 2)) for n, o in offsets]}")


def run_criterion_12_pipeline(base) -> dict[str, str]:
    """Run the CLI pipeline in directory `base`; sha256 of each output file."""
    base.mkdir()
    paths = {}

    def out(name):
        paths[name] = base / name
        return str(base / name)

    assert cli_mod.main(["gen-data", "--kind", "clustered", "--n", "60", "--d", "3",
                         "--seed", "7", "--output", out("pts.txt")]) == 0
    assert cli_mod.main(["build-forest", "--input", str(paths["pts.txt"]),
                         "--output", out("forest.txt"), "--t", "1.5", "--seed", "8"]) == 0
    assert cli_mod.main(["wspd", "--input", str(paths["pts.txt"]),
                         "--forest", str(paths["forest.txt"]),
                         "--output", out("pairs.txt"), "--t", "1.5",
                         "--epsilon", "0.5", "--seed", "8"]) == 0
    assert cli_mod.main(["wssd", "--input", str(paths["pts.txt"]),
                         "--output", out("tuples.txt"), "--t", "0.75",
                         "--epsilon", "0.5", "--k", "2", "--seed", "8"]) == 0
    assert cli_mod.main(["cech", "--input", str(paths["pts.txt"]),
                         "--output", out("slices.txt"), "--t", "0.75",
                         "--epsilon", "0.5", "--k", "2", "--seed", "8",
                         "--grid", "0.2,0.4,0.75"]) == 0
    assert cli_mod.main(["dim-estimate", "--forest", str(paths["forest.txt"]),
                         "--output", out("dim.txt")]) == 0
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}


def test_criterion_12_determinism(tmp_path):
    first = run_criterion_12_pipeline(tmp_path / "run1")
    second = run_criterion_12_pipeline(tmp_path / "run2")
    ok = first == second
    report(12, "determinism: identical seeds give bit-identical output files", ok,
           f"{sorted(first)} compared")


# The criterion-12 outputs as written by the per-node object forest (numpy
# 2.4). Determinism alone passes a refactor that changes every output the
# same way on each run; these pins do not. pairs.txt and tuples.txt were
# re-recorded when the WSPD stopped emitting node pairs out of reach of t
# (912 -> 330 pairs; the WSSD's tier 1, taken from the WSPD, 1770 -> 330).
PINNED_CRITERION_12 = {
    "pts.txt": "d8520fe9b5bb398731cae876b276a746ca1647672c593c9799cd15154a899253",
    "forest.txt": "a2bb497a658d3b2d622370a7b90f3757bafa63330c09ab91c1689e63a6a0b4d7",
    "pairs.txt": "e954bcf3b72edda46284c01ccb9e1886469977a76241dd5f4308f4fd0c33dbff",
    "tuples.txt": "41fdaf4ce4ec824db05207322c3e2823817bba1802abc02aa2b7ba7cb387cdbd",
    "slices.txt": "2002f246f3c2e72190fc84e958e46ff093d01326f7d9aab08ae4fe8d37c7c3c0",
    "dim.txt": "ee673cd1280ebb7352b1f4a2b81215be2495c1b78a27b253366f35801f47afbf",
}


def test_criterion_12_pinned_outputs(tmp_path):
    hashes = run_criterion_12_pipeline(tmp_path / "run")
    # the points come from numpy's generator: if they moved, the pins below
    # say nothing about this package's outputs
    assert hashes["pts.txt"] == PINNED_CRITERION_12["pts.txt"], (
        "gen-data output changed (numpy random generator?); the output pins do not apply"
    )
    changed = sorted(name for name in hashes if hashes[name] != PINNED_CRITERION_12[name])
    report(12, "pinned outputs: the CLI pipeline writes the recorded files",
           not changed and hashes.keys() == PINNED_CRITERION_12.keys(), f"changed: {changed}")


def test_criterion_13_scaling_trend():
    # the fastest of 3 builds per size: a single build swings with machine
    # load, and the swing grows with n
    times = []
    ns = (1000, 2000, 4000, 8000)
    for n in ns:
        extent = math.sqrt(n / ns[0]) * 2.0
        cloud = geom.generate("affine", n=n, d=8, flat_dim=2, seed=130, extent=extent)
        t = 3.0 * median_nn_fast(cloud)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            forest_mod.build_forest(cloud, t, seed=131, nn="lsh")
            runs.append(time.perf_counter() - start)
        times.append(min(runs))
    slope = float(np.polyfit(np.log(ns), np.log(times), 1)[0])
    report(13, "forest build wall-time grows sub-quadratically (slope < 1.7)",
           slope < 1.7, f"slope={slope:.2f} times={[round(x, 2) for x in times]}")


def median_nn_fast(cloud) -> float:
    from scipy.spatial import cKDTree

    tree = cKDTree(cloud.points)
    d, _ = tree.query(cloud.points, k=2)
    return float(np.median(d[:, 1]))
