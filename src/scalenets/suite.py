"""Registry of executable property checks, one per module invariant.

Each property builds its own seeded instances, runs the relevant oracle,
and reports pass/fail with a replayable seed and configuration string.
Scales gate instance sizes: tiny stays within the exhaustive doubling
oracle, small within the quadratic/enumerative verifiers, medium adds the
statistical LSH checks and size trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cech as _cech
from . import dimension as _dimension
from . import forest as _forest
from . import geometry as _geom
from . import lsh as _lsh
from . import wspd as _wspd
from . import wssd as _wssd

__all__ = ["PropertyReport", "PROPERTIES", "run_suite", "reports_tsv", "SCALES"]

SCALES = ("tiny", "small", "medium")


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    instance: str
    passed: bool
    counterexample: str | None
    seed: int
    config: str


def _report(pid, instance, passed, counterexample, seed, config) -> PropertyReport:
    return PropertyReport(
        property_id=pid,
        instance=instance,
        passed=bool(passed),
        counterexample=None if passed else str(counterexample)[:400],
        seed=seed,
        config=config,
    )


def _quantile_scale(cloud: _geom.PointCloud, q: float) -> float:
    d = _geom.pairwise_distances(cloud)
    return float(np.quantile(d[d > 0], q))


def _median_nn(cloud: _geom.PointCloud) -> float:
    d = _geom.pairwise_distances(cloud)
    np.fill_diagonal(d, np.inf)
    return float(np.median(d.min(axis=1)))


def _forest_at(cloud, t, seed=0):
    return _forest.build_forest(cloud, t, seed=seed, nn="exact")


# --- geometry ---------------------------------------------------------------


def geometry_triangle_inequality(seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    bad = None
    for _ in range(200):
        d = int(rng.integers(1, 6))
        p, q, r = rng.uniform(-10, 10, size=(3, d))
        if _geom.distance(p, r) > _geom.distance(p, q) + _geom.distance(q, r) + 1e-9:
            bad = (p, q, r)
            break
    return _report(
        "geometry.triangle-inequality", "200 random triples d<=5", bad is None, bad, seed, ""
    )


def geometry_meb_bounds(seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    bad = None
    for trial in range(30):
        m, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        pts = rng.uniform(-5, 5, size=(m, d))
        ball = _geom.exact_meb(pts)
        maxpair = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                maxpair = max(maxpair, _geom.distance(pts[i], pts[j]))
        if not ball.contains(pts):
            bad = f"trial {trial}: containment"
            break
        if m > 1 and ball.radius > maxpair * (1 + 1e-9):
            bad = f"trial {trial}: radius {ball.radius} > max pair {maxpair}"
            break
    return _report("geometry.meb-bounds", "30 random sets m<=8", bad is None, bad, seed, "")


def geometry_doubling_monotone(seed: int) -> PropertyReport:
    cloud = _geom.generate("uniform", n=10, d=2, seed=seed)
    diam = float(_geom.pairwise_distances(cloud).max())
    lams = [
        _geom.brute_restricted_doubling(cloud, t)
        for t in (0.2 * diam, 0.5 * diam, 1.0 * diam)
    ]
    ok = lams[0] <= lams[1] <= lams[2]
    return _report(
        "geometry.doubling-monotone", "uniform n=10 d=2", ok, f"lams={lams}", seed, ""
    )


def geometry_doubling_caps(seed: int) -> PropertyReport:
    cloud = _geom.generate("clustered", n=9, d=2, seed=seed, clusters=3)
    diam = float(_geom.pairwise_distances(cloud).max())
    a = _geom.brute_restricted_doubling(cloud, diam)
    b = _geom.brute_restricted_doubling(cloud, 2 * diam)
    return _report(
        "geometry.doubling-caps-at-diameter",
        "clustered n=9",
        a == b,
        f"lam(diam)={a} lam(2diam)={b}",
        seed,
        "",
    )


# --- lsh --------------------------------------------------------------------


def lsh_soundness(seed: int) -> PropertyReport:
    cloud = _geom.generate("uniform", n=300, d=6, seed=seed)
    r = _quantile_scale(cloud, 0.02)
    params = _lsh.derive_params(cloud.n, r, 0.5, 0.1)
    index = _lsh.LshIndex(cloud.points, params, seed)
    bad = None
    for q in range(cloud.n):
        got = set(map(int, index(q)))
        want = set(_geom.brute_near_neighbours(cloud, q, r).tolist())
        if not got <= want:
            bad = f"query {q}: extras {sorted(got - want)}"
            break
    return _report("lsh.soundness", "uniform n=300 d=6", bad is None, bad, seed, f"r={r:.4g}")


def lsh_completeness_band(seed: int) -> PropertyReport:
    cloud = _geom.generate("uniform", n=800, d=8, seed=seed)
    dm = _geom.pairwise_distances(cloud)
    r = float(np.quantile(dm[dm > 0], 0.01))
    pairs = np.argwhere(np.triu(dm <= r, 1))
    params = _lsh.derive_params(cloud.n, r, 0.5, 0.1)
    full = 0
    reps = 20
    for i in range(reps):
        index = _lsh.LshIndex(cloud.points, params, seed + 1000 * i)
        if bool(_lsh_all_collide(index, pairs)):
            full += 1
    # 1 - delta = 0.9 with a binomial slack of one failure
    ok = full >= math.ceil(0.9 * reps) - 1
    return _report(
        "lsh.completeness-band",
        "uniform n=800 d=8, 20 builds",
        ok,
        f"full-recall builds {full}/{reps}",
        seed,
        f"r={r:.4g} k={params.k} l={params.l}",
    )


def _lsh_all_collide(index, pairs) -> bool:
    if len(pairs) == 0:
        return True
    return bool(index.collide_mask(pairs).all())


def lsh_bucket_bound(seed: int) -> PropertyReport:
    cloud = _geom.generate("clustered", n=600, d=6, seed=seed, clusters=30, spread=0.05)
    r = 1.0
    params = _lsh.derive_params(cloud.n, r, 0.5, 0.1)
    index = _lsh.LshIndex(cloud.points, params, seed)
    dm = _geom.pairwise_distances(cloud)
    c_max = int((dm <= params.r2).sum(axis=1).max())
    scanned = [index.query(q, r).candidates_scanned for q in range(cloud.n)]
    bound = params.l * (c_max + 1) * 1.5
    mean = float(np.mean(scanned))
    return _report(
        "lsh.bucket-bound",
        "clustered n=600",
        mean <= bound,
        f"mean scanned {mean:.1f} > bound {bound:.1f}",
        seed,
        f"l={params.l} cmax={c_max}",
    )


def lsh_determinism(seed: int) -> PropertyReport:
    cloud = _geom.generate("uniform", n=120, d=4, seed=seed)
    r = _quantile_scale(cloud, 0.05)
    params = _lsh.derive_params(cloud.n, r, 0.5, 0.1)
    a = _lsh.LshIndex(cloud.points, params, seed)
    b = _lsh.LshIndex(cloud.points, params, seed)
    bad = None
    for q in range(0, cloud.n, 7):
        if a.query(q, r) != b.query(q, r):
            bad = f"query {q} differs"
            break
    if bad is None and not np.array_equal(a._gids, b._gids):
        bad = "table group ids differ"
    return _report("lsh.determinism", "uniform n=120 rebuilt", bad is None, bad, seed, "")


# --- netforest ----------------------------------------------------------------


def _structural_corpus(seed: int):
    for kind, kwargs, q in [
        ("uniform", dict(n=150, d=3), 0.25),
        ("clustered", dict(n=120, d=4, clusters=6), 0.2),
        ("affine", dict(n=150, d=6, flat_dim=2), 0.25),
    ]:
        cloud = _geom.generate(kind, seed=seed, **kwargs)
        t = _quantile_scale(cloud, q)
        yield kind, cloud, t


def netforest_net_validity(seed: int) -> PropertyReport:
    for kind, cloud, t in _structural_corpus(seed):
        forest = _forest_at(cloud, t)
        bad = [v for v in _forest.check_forest(forest, cloud) if "root" in v or "covered" in v]
        if bad:
            return _report("netforest.net-validity", kind, False, bad[0], seed, f"t={t:.4g}")
    return _report("netforest.net-validity", "3 corpora", True, None, seed, "")


def netforest_partition(seed: int) -> PropertyReport:
    for kind, cloud, t in _structural_corpus(seed):
        forest = _forest_at(cloud, t)
        total = sum(forest.points(r).size for r in forest.roots)
        if total != cloud.n:
            return _report(
                "netforest.partition", kind, False, f"sum={total} n={cloud.n}", seed, ""
            )
    return _report("netforest.partition", "3 corpora", True, None, seed, "")


def netforest_covering_packing(seed: int) -> PropertyReport:
    for kind, cloud, t in _structural_corpus(seed):
        forest = _forest_at(cloud, t)
        bad = _forest.check_forest(forest, cloud)
        if bad:
            return _report(
                "netforest.node-covering-packing", kind, False, bad[0], seed, f"t={t:.4g}"
            )
    return _report("netforest.node-covering-packing", "3 corpora", True, None, seed, "")


def netforest_rel_equivalence(seed: int) -> PropertyReport:
    cloud = _geom.generate("clustered", n=150, d=3, seed=seed, clusters=8)
    t = _quantile_scale(cloud, 0.15)
    forest = _forest_at(cloud, t)
    for v in range(forest.n_nodes):
        want = _forest.brute_force_rel(forest, cloud, v)
        if forest.rel_of(v) != want:
            return _report(
                "netforest.rel-equivalence",
                "clustered n=150",
                False,
                f"node {v}: {forest.rel_of(v)} != {want}",
                seed,
                f"t={t:.4g}",
            )
    return _report("netforest.rel-equivalence", "clustered n=150", True, None, seed, "")


def netforest_rel_radius_grid(seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    ts = np.geomspace(1e-3, 1e3, 50) * rng.uniform(0.5, 2.0)
    for t in ts:
        lev = _forest.root_level(float(t))
        if _forest.REL_COEF * float(_forest.TAU) ** lev > 7.0 * t * (1 + 1e-9):
            return _report(
                "netforest.rel-radius-grid", f"t={t}", False, f"level {lev}", seed, ""
            )
    return _report("netforest.rel-radius-grid", "50 log-spaced t", True, None, seed, "")


def netforest_root_rel_trend(seed: int) -> PropertyReport:
    sizes = {}
    t = None
    for n in (500, 1000, 2000):
        extent = math.sqrt(n / 500)
        cloud = _geom.generate("affine", n=n, d=6, flat_dim=2, seed=seed, extent=extent)
        if t is None:
            t = _quantile_scale(cloud, 0.05)
        forest = _forest_at(cloud, t)
        sizes[n] = int(np.diff(forest.rel_ptr)[forest.roots].max())
    ok = sizes[2000] <= 3 * max(sizes[500], 1)
    return _report(
        "netforest.root-rel-size-trend",
        "affine 2-flat, constant density, n in 500..2000",
        ok,
        f"sizes={sizes}",
        seed,
        f"t={t:.4g}",
    )


# --- wspd ---------------------------------------------------------------------


def _wspd_instance(seed: int, n=200):
    cloud = _geom.generate("clustered", n=n, d=3, seed=seed, clusters=7)
    t = _quantile_scale(cloud, 0.2)
    forest = _forest_at(cloud, t)
    return cloud, t, forest, _wspd.gen_wspd(forest, cloud, 0.5, t)


def wspd_separation(seed: int) -> PropertyReport:
    cloud, t, forest, wspd = _wspd_instance(seed)
    report = _wspd.verify_wspd(cloud, forest, wspd, 0.5, t)
    return _report(
        "wspd.separation",
        "clustered n=200",
        not report.separation_violations,
        report.separation_violations[:3],
        seed,
        f"t={t:.4g}",
    )


def wspd_coverage(seed: int) -> PropertyReport:
    cloud, t, forest, wspd = _wspd_instance(seed)
    report = _wspd.verify_wspd(cloud, forest, wspd, 0.5, t)
    return _report(
        "wspd.coverage",
        "clustered n=200",
        not report.coverage_violations,
        report.coverage_violations[:3],
        seed,
        f"t={t:.4g}",
    )


def wspd_size_slope(seed: int) -> PropertyReport:
    # constant density: the domain grows with n so the local geometry that
    # the linear size bound speaks about is the same at every size; t stays
    # a small multiple of the point spacing so the 7t seeding horizon sits
    # well inside the domain at every size
    t = None
    sizes = []
    ns = (250, 500, 1000, 2000)
    for n in ns:
        extent = math.sqrt(n / ns[0])
        cloud = _geom.generate("affine", n=n, d=6, flat_dim=2, seed=seed, extent=extent)
        if t is None:
            t = 2.0 * _median_nn(cloud)
        forest = _forest_at(cloud, t)
        sizes.append(len(_wspd.gen_wspd(forest, cloud, 0.5, t).pairs))
    slope = float(np.polyfit(np.log(ns), np.log(sizes), 1)[0])
    return _report(
        "wspd.size-slope",
        f"affine 2-flat, constant density, n={ns}",
        0.8 <= slope <= 1.2,
        f"slope={slope:.3f} sizes={sizes}",
        seed,
        f"t={t:.4g}",
    )


def wspd_truncation(seed: int) -> PropertyReport:
    cloud, t, forest, wspd = _wspd_instance(seed)
    rl = forest.root_level
    bad = [
        (u, v)
        for u, v in wspd.pairs.tolist()
        if forest.level[u] > rl or forest.level[v] > rl
    ]
    return _report("wspd.truncation", "clustered n=200", not bad, bad[:3], seed, "")


# --- wssd ---------------------------------------------------------------------


def _wssd_instance(seed: int, n=35, k=2, eps=0.5):
    cloud = _geom.generate("uniform", n=n, d=3, seed=seed)
    t = _quantile_scale(cloud, 0.15)
    forest = _forest.build_forest(cloud, 2 * t, nn="exact")
    return cloud, t, forest, _wssd.gen_wssd(forest, cloud, eps, k, t)


def wssd_base_tier(seed: int) -> PropertyReport:
    cloud, t, forest, wssd = _wssd_instance(seed)
    pairs = np.array([w.nodes for w in wssd.tiers[1]], dtype=np.intp).reshape(-1, 2)
    wspd = _wspd.Wspd(pairs=np.unique(np.sort(pairs, axis=1), axis=0), epsilon=0.25, t=2 * t)
    report = _wspd.verify_wspd(cloud, forest, wspd, 0.25, 2 * t)
    return _report(
        "wssd.base-tier-wspd",
        "uniform n=35, tier 1 as pair decomposition at (2t, eps/2)",
        report.ok,
        (report.separation_violations + report.coverage_violations)[:3],
        seed,
        f"t={t:.4g}",
    )


def wssd_coverage(seed: int) -> PropertyReport:
    cloud, t, forest, wssd = _wssd_instance(seed)
    report = _wssd.verify_wssd(cloud, forest, wssd, 0.5, 2, t)
    return _report(
        "wssd.coverage",
        "uniform n=35 k=2",
        not report.coverage_violations,
        report.coverage_violations[:3],
        seed,
        f"t={t:.4g}",
    )


def wssd_separation(seed: int) -> PropertyReport:
    cloud, t, forest, wssd = _wssd_instance(seed)
    report = _wssd.verify_wssd(cloud, forest, wssd, 0.5, 2, t)
    return _report(
        "wssd.separation",
        "uniform n=35 k=2",
        not report.separation_violations,
        report.separation_violations[:3],
        seed,
        f"t={t:.4g}",
    )


def wssd_size_slope(seed: int) -> PropertyReport:
    # constant density, as in the pair-decomposition slope check
    t = None
    sizes = []
    ns = (50, 100, 200, 400)
    for n in ns:
        extent = math.sqrt(n / ns[0])
        cloud = _geom.generate("affine", n=n, d=5, flat_dim=2, seed=seed, extent=extent)
        if t is None:
            t = _quantile_scale(cloud, 0.05)
        forest = _forest.build_forest(cloud, 2 * t, nn="exact")
        wssd = _wssd.gen_wssd(forest, cloud, 0.5, 2, t)
        sizes.append(len(wssd.tiers[2]))
    slope = float(np.polyfit(np.log(ns), np.log(sizes), 1)[0])
    return _report(
        "wssd.size-slope",
        f"affine 2-flat, constant density, n={ns}",
        0.8 <= slope <= 1.2,
        f"slope={slope:.3f} sizes={sizes}",
        seed,
        f"t={t:.4g}",
    )


def wssd_root_cap(seed: int) -> PropertyReport:
    # clusters of diameter comparable to 2t force the ancestor walk to cap
    cloud = _geom.generate("clustered", n=30, d=3, seed=seed, clusters=3, separation=6.0, spread=0.9)
    t = 1.6
    forest = _forest.build_forest(cloud, 2 * t, nn="exact")
    wssd = _wssd.gen_wssd(forest, cloud, 0.5, 2, t)
    if wssd.stats["capped"] == 0:
        return _report(
            "wssd.root-cap-coverage", "clustered n=30", False, "cap never exercised", seed, ""
        )
    report = _wssd.verify_wssd(cloud, forest, wssd, 0.5, 2, t)
    return _report(
        "wssd.root-cap-coverage",
        "clustered n=30, cluster diameter ~2t",
        not report.coverage_violations,
        report.coverage_violations[:3],
        seed,
        f"capped={wssd.stats['capped']}",
    )


# --- cech ---------------------------------------------------------------------


def cech_h_invariant(seed: int) -> PropertyReport:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        eps = float(rng.uniform(0.05, 1.0))
        t = float(rng.uniform(0.1, 100.0))
        alpha = float(rng.uniform(0.01, 1.0)) * t
        rl = _forest.root_level(2 * t)
        h = _cech.choose_h(eps, alpha, rl)
        if _forest.COVER_COEF * float(_forest.TAU) ** h > (eps / 7) * alpha * (1 + 1e-9):
            return _report("cech.h-invariant", f"eps={eps} alpha={alpha}", False, f"h={h}", seed, "")
        if h >= rl:
            return _report("cech.h-invariant", f"eps={eps} alpha={alpha}", False, f"h={h}>=rl", seed, "")
        uncapped_next = _forest.COVER_COEF * float(_forest.TAU) ** (h + 1)
        if h < rl - 1 and uncapped_next <= (eps / 7) * alpha * (1 - 1e-9):
            return _report(
                "cech.h-invariant", f"eps={eps} alpha={alpha}", False, "h not maximal", seed, ""
            )
    return _report("cech.h-invariant", "100 random (eps, alpha, t)", True, None, seed, "")


def _cech_instance(seed: int, eps=0.5):
    cloud = _geom.generate("uniform", n=18, d=3, seed=seed)
    t = _quantile_scale(cloud, 0.3)
    grid = np.geomspace(0.2 * t, t, 6)
    forest, wssd, out = _cech.build_cech_pipeline(cloud, eps, 2, t, seed=seed, grid=grid)
    return cloud, t, out


def cech_sandwich(seed: int) -> PropertyReport:
    cloud, t, out = _cech_instance(seed)
    report = _cech.verify_sandwich(cloud, out, 0.5, 2)
    return _report(
        "cech.sandwich",
        "uniform n=18 eps=0.5",
        report.ok,
        (report.lower_violations + report.upper_violations)[:3],
        seed,
        f"t={t:.4g}",
    )


def cech_vertex_closure(seed: int) -> PropertyReport:
    cloud, t, out = _cech_instance(seed)
    for sl in out.slices:
        image = set(sl.vertex_map.values())
        for simplex in sl.simplices:
            if not set(simplex) <= image:
                return _report(
                    "cech.vertex-closure",
                    f"alpha={sl.alpha}",
                    False,
                    f"simplex {simplex} off-image",
                    seed,
                    "",
                )
    return _report("cech.vertex-closure", "uniform n=18", True, None, seed, "")


def cech_determinism(seed: int) -> PropertyReport:
    import os
    import tempfile

    cloud = _geom.generate("uniform", n=15, d=3, seed=seed)
    t = _quantile_scale(cloud, 0.3)
    grid = np.geomspace(0.2 * t, t, 5)
    texts = []
    for _ in range(2):
        _, _, out = _cech.build_cech_pipeline(cloud, 0.5, 2, t, seed=seed, grid=grid)
        fd, path = tempfile.mkstemp(suffix=".txt")
        os.close(fd)
        try:
            _cech.write_filtration(path, out)
            with open(path) as fh:
                texts.append(fh.read())
        finally:
            os.unlink(path)
    return _report(
        "cech.determinism", "uniform n=15 twice", texts[0] == texts[1], "outputs differ", seed, ""
    )


# --- dimension ------------------------------------------------------------------


def dimension_rigid_motion(seed: int) -> PropertyReport:
    cloud = _geom.generate("uniform", n=60, d=3, seed=seed)
    t = _quantile_scale(cloud, 0.2)
    est = _dimension.estimate_dim(_forest_at(cloud, t))
    shifted = _geom.PointCloud(cloud.points + np.array([7.25, -3.5, 11.0]))
    est2 = _dimension.estimate_dim(_forest_at(shifted, t))
    return _report(
        "dimension.rigid-motion",
        "uniform n=60 translated",
        est.max_out_degree == est2.max_out_degree,
        f"{est.max_out_degree} vs {est2.max_out_degree}",
        seed,
        f"t={t:.4g}",
    )


def dimension_monotone_trend(seed: int) -> PropertyReport:
    lo, hi = [], []
    for s in range(5):
        cloud = _geom.generate("affine", n=80, d=4, flat_dim=2, seed=seed + s)
        t2 = _quantile_scale(cloud, 0.3)
        t1 = t2 / 4
        lo.append(_dimension.estimate_dim(_forest_at(cloud, t1)).estimate)
        hi.append(_dimension.estimate_dim(_forest_at(cloud, t2)).estimate)
    ok = float(np.median(lo)) <= float(np.median(hi)) + 1.0
    return _report(
        "dimension.monotone-trend",
        "affine 2-flat, t vs 4t, 5 builds",
        ok,
        f"medians {np.median(lo)} vs {np.median(hi)}",
        seed,
        "",
    )


def dimension_zero_below_closest(seed: int) -> PropertyReport:
    cloud = _geom.generate("uniform", n=12, d=2, seed=seed)
    d = _geom.pairwise_distances(cloud)
    t = float(d[d > 0].min()) * 0.9
    est = _dimension.estimate_dim(_forest_at(cloud, t))
    return _report(
        "dimension.zero-below-closest-pair",
        "uniform n=12",
        est.estimate == 0.0,
        f"estimate={est.estimate}",
        seed,
        f"t={t:.4g}",
    )


PROPERTIES: dict[str, tuple[str, Callable[[int], PropertyReport]]] = {
    "geometry.triangle-inequality": ("tiny", geometry_triangle_inequality),
    "geometry.meb-bounds": ("tiny", geometry_meb_bounds),
    "geometry.doubling-monotone": ("tiny", geometry_doubling_monotone),
    "geometry.doubling-caps-at-diameter": ("tiny", geometry_doubling_caps),
    "lsh.soundness": ("small", lsh_soundness),
    "lsh.completeness-band": ("medium", lsh_completeness_band),
    "lsh.bucket-bound": ("medium", lsh_bucket_bound),
    "lsh.determinism": ("small", lsh_determinism),
    "netforest.net-validity": ("small", netforest_net_validity),
    "netforest.partition": ("small", netforest_partition),
    "netforest.node-covering-packing": ("small", netforest_covering_packing),
    "netforest.rel-equivalence": ("small", netforest_rel_equivalence),
    "netforest.rel-radius-grid": ("tiny", netforest_rel_radius_grid),
    "netforest.root-rel-size-trend": ("medium", netforest_root_rel_trend),
    "wspd.separation": ("small", wspd_separation),
    "wspd.coverage": ("small", wspd_coverage),
    "wspd.size-slope": ("medium", wspd_size_slope),
    "wspd.truncation": ("small", wspd_truncation),
    "wssd.base-tier-wspd": ("small", wssd_base_tier),
    "wssd.coverage": ("small", wssd_coverage),
    "wssd.separation": ("small", wssd_separation),
    "wssd.size-slope": ("medium", wssd_size_slope),
    "wssd.root-cap-coverage": ("small", wssd_root_cap),
    "cech.h-invariant": ("tiny", cech_h_invariant),
    "cech.sandwich": ("small", cech_sandwich),
    "cech.vertex-closure": ("small", cech_vertex_closure),
    "cech.determinism": ("small", cech_determinism),
    "dimension.rigid-motion": ("small", dimension_rigid_motion),
    "dimension.monotone-trend": ("small", dimension_monotone_trend),
    "dimension.zero-below-closest-pair": ("tiny", dimension_zero_below_closest),
}


def run_suite(scale: str, seed: int) -> list[PropertyReport]:
    """Run every property whose scale gate admits `scale` (cumulative)."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    level = SCALES.index(scale)
    reports = []
    for pid in sorted(PROPERTIES):
        tag, fn = PROPERTIES[pid]
        if SCALES.index(tag) <= level:
            reports.append(fn(seed))
    return reports


def reports_tsv(reports: list[PropertyReport]) -> str:
    rows = ["property\tinstance\tstatus\tcounterexample\tseed\tconfig"]
    for r in reports:
        rows.append(
            "%s\t%s\t%s\t%s\t%d\t%s"
            % (
                r.property_id,
                r.instance,
                "pass" if r.passed else "FAIL",
                "" if r.counterexample is None else r.counterexample,
                r.seed,
                r.config,
            )
        )
    return "\n".join(rows) + "\n"
