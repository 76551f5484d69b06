import math

import numpy as np
import pytest

from scalenets.forest import build_forest
from scalenets.geometry import PointCloud, exact_meb, generate, pairwise_distances
from scalenets.wssd import (
    Wssd,
    approx_meb,
    gen_wssd,
    read_wssd,
    verify_wssd,
    write_wssd,
)

from conftest import DEEP_CLOUDS, quantile_scale, structural_corpora


def build2t(cloud, t):
    return build_forest(cloud, 2 * t, nn="exact")


# --- approximate minimum enclosing ball -------------------------------------


def test_approx_meb_singleton():
    ball = approx_meb(np.array([[1.0, 2.0]]))
    assert ball.radius == 0.0


def test_approx_meb_antipodal_pair():
    ball = approx_meb(np.array([[-1.0, 0.0], [1.0, 0.0]]), 0.05)
    assert ball.contains(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert ball.radius <= 1.05


def test_approx_meb_within_budget_of_exact():
    rng = np.random.default_rng(1)
    for trial in range(100):
        d = (2, 5, 10)[trial % 3]
        pts = rng.standard_normal((10, d))
        approx = approx_meb(pts, 0.05)
        exact = exact_meb(pts)
        assert approx.contains(pts)
        assert approx.radius <= 1.05 * exact.radius


def test_approx_meb_validation():
    with pytest.raises(ValueError):
        approx_meb(np.empty((0, 2)))
    with pytest.raises(ValueError):
        approx_meb(np.zeros((2, 2)), 0.9)


# --- generation -------------------------------------------------------------


def test_unit_triangle_covered():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    cloud = PointCloud(tri)
    t = 1.0
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, 2)
    report = verify_wssd(cloud, forest, wssd, 0.5, 2, t)
    assert report.ok  # in particular the triangle itself is covered


def test_two_points_high_k_degenerate_cover():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    t = 1.0
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, 3)
    # the only pair has enclosing radius 1/2 <= t; some 4-node tuple must admit
    # both points in distinct positions (repeated nodes allowed)
    masks = []
    for nodes in wssd.tiers[3].tolist():
        sets = [set(forest.points(v).tolist()) for v in nodes]
        masks.append(sets)
    def covers_multiset(sets):
        # assign two positions to point 0 and two to point 1
        from itertools import permutations
        for perm in permutations(range(4)):
            want = [0, 0, 1, 1]
            if all(want[i] in sets[perm[i]] for i in range(4)):
                return True
        return False
    assert any(covers_multiset(sets) for sets in masks)


def test_out_of_scale_simplices_ignored():
    cloud = PointCloud(np.array([[0.0], [3.1]]))
    t = 1.0
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, 2)
    report = verify_wssd(cloud, forest, wssd, 0.5, 2, t)
    assert report.ok  # pair radius 1.55 > t carries no coverage obligation


def test_gen_validation():
    cloud = generate("uniform", n=10, d=2, seed=1)
    t = 0.3
    forest = build2t(cloud, t)
    with pytest.raises(ValueError):
        gen_wssd(forest, cloud, 1.5, 2)
    with pytest.raises(ValueError):
        gen_wssd(forest, cloud, 0.5, 0)


def test_random_clouds_zero_violations():
    for seed in (3, 4):
        cloud = generate("uniform", n=30, d=3, seed=seed)
        t = quantile_scale(cloud, 0.15)
        forest = build2t(cloud, t)
        wssd = gen_wssd(forest, cloud, 0.5, 2)
        report = verify_wssd(cloud, forest, wssd, 0.5, 2, t)
        assert report.ok, (seed, report.coverage_violations[:2], report.separation_violations[:2])


def test_tier1_matches_wspd_coverage_at_doubled_scale():
    from scalenets.wspd import Wspd, verify_wspd

    cloud = generate("clustered", n=25, d=2, seed=9, clusters=3)
    t = quantile_scale(cloud, 0.2)
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, 1)
    pairs = np.sort(wssd.tiers[1], axis=1)
    as_wspd = Wspd(pairs=np.unique(pairs, axis=0), epsilon=0.25, t=2 * t)
    assert verify_wspd(cloud, forest, as_wspd, 0.25, 2 * t).ok
    assert verify_wssd(cloud, forest, wssd, 0.5, 1, t).ok


def test_fabricated_separation_violation_detected():
    # two-point nodes glued across a long gap: at a tiny epsilon their
    # diameters dwarf the allowed inflation of any transversal ball
    cloud = PointCloud(
        np.array([[0.0, 0.0], [0.05, 0.0], [10.0, 0.0], [10.05, 0.0], [5.0, 8.0]])
    )
    t = 3.0
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, 2)
    pair_nodes = {
        frozenset(forest.points(v).tolist()): v
        for v in range(forest.n_nodes)
        if forest.points(v).size == 2
    }
    assert frozenset({0, 1}) in pair_nodes and frozenset({2, 3}) in pair_nodes
    leaf_far = int(forest.leaf_of[4])
    fake = [pair_nodes[frozenset({0, 1})], pair_nodes[frozenset({2, 3})], leaf_far]
    broken = Wssd(
        tiers={1: wssd.tiers[1], 2: np.vstack([wssd.tiers[2], [fake]])},
        epsilon=wssd.epsilon,
        t=wssd.t,
        k=2,
    )
    report = verify_wssd(cloud, forest, broken, 0.001, 2, t)
    assert report.separation_violations


def test_fabricated_coverage_violation_detected():
    # without the tier-1 rows that cover the closest pair, that pair (radius
    # well below t) is reported uncovered
    cloud = generate("uniform", n=15, d=2, seed=2)
    t = quantile_scale(cloud, 0.2)
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, 1)
    assert verify_wssd(cloud, forest, wssd, 0.5, 1, t).ok
    d = pairwise_distances(cloud) + np.diag(np.full(cloud.n, np.inf))
    p, q = sorted(np.unravel_index(int(np.argmin(d)), d.shape))
    holds = [set(forest.points(v).tolist()) for v in range(forest.n_nodes)]
    covers = np.array([(p in holds[u] and q in holds[v]) or (q in holds[u] and p in holds[v])
                       for u, v in wssd.tiers[1].tolist()])
    assert covers.any()
    broken = Wssd(tiers={1: wssd.tiers[1][~covers]}, epsilon=wssd.epsilon, t=wssd.t, k=1)
    assert (p, q) in verify_wssd(cloud, forest, broken, 0.5, 1, t).coverage_violations


def test_root_cap_instances_still_cover():
    cloud = generate(
        "clustered", n=28, d=3, seed=6, clusters=3, separation=6.0, spread=0.9
    )
    t = 1.6
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, 2)
    assert wssd.stats["capped"] > 0
    report = verify_wssd(cloud, forest, wssd, 0.5, 2, t)
    assert not report.coverage_violations


@pytest.mark.parametrize(
    "seed",
    [
        42,
        pytest.param(
            7,
            marks=pytest.mark.xfail(
                strict=True,
                reason="slope 1.224 (tier-2 sizes 3743/7227/19055/45860): tuples per "
                "point keep rising with n at this seed; open whether gen_wssd or the "
                "sizes of this check are at fault",
            ),
        ),
    ],
)
def test_tier2_size_slope_at_constant_density(seed):
    # the domain grows with n at a fixed t, so the local geometry the linear
    # size bound speaks about is the same at every size
    sizes = []
    ns = (50, 100, 200, 400)
    t = None
    for n in ns:
        cloud = generate("affine", n=n, d=5, flat_dim=2, seed=seed, extent=math.sqrt(n / ns[0]))
        if t is None:
            t = quantile_scale(cloud, 0.05)
        wssd = gen_wssd(build2t(cloud, t), cloud, 0.5, 2)
        sizes.append(len(wssd.tiers[2]))
    slope = float(np.polyfit(np.log(ns), np.log(sizes), 1)[0])
    assert 0.8 <= slope <= 1.2, (slope, sizes)


def assert_tiers_distinct(cloud, t, k, label):
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, k)
    assert sorted(wssd.tiers) == list(range(1, k + 1)), label
    for j, tier in wssd.tiers.items():
        keys = np.ravel_multi_index(tier.T, (forest.n_nodes,) * (j + 1))
        assert len(np.unique(keys)) == len(tier), f"{label} tier {j}"


def test_tier_rows_are_distinct():
    # extension keeps no seen-set: distinct rows gain distinct cells, since
    # the cells come from disjoint subtrees. Tier 3 of the deep clouds other
    # than the line runs to millions of tuples, so they stop at tier 2
    for name, cloud, t in structural_corpora(30):
        assert_tiers_distinct(cloud, t, 3, name)
    for name, cloud, t in DEEP_CLOUDS:
        assert_tiers_distinct(cloud, t / 2, 2, name)
    name, cloud, t = DEEP_CLOUDS[0]
    assert_tiers_distinct(cloud, t / 2, 3, name)


def test_wssd_file_roundtrip(tmp_path):
    cloud = generate("uniform", n=15, d=2, seed=2)
    t = quantile_scale(cloud, 0.2)
    forest = build2t(cloud, t)
    wssd = gen_wssd(forest, cloud, 0.5, 2)
    path = tmp_path / "out.wssd"
    write_wssd(path, wssd)
    back = read_wssd(path)
    assert back.k == 2 and back.epsilon == 0.5 and back.t == t
    assert sorted(back.tiers) == sorted(wssd.tiers) == [1, 2]
    for j in wssd.tiers:
        assert back.tiers[j].dtype == np.intp
        assert np.array_equal(back.tiers[j], wssd.tiers[j])
    write_wssd(tmp_path / "again.wssd", back)
    assert (tmp_path / "again.wssd").read_text() == path.read_text()


def test_verify_size_gate():
    cloud = generate("uniform", n=70, d=2, seed=1)
    with pytest.raises(ValueError):
        verify_wssd(cloud, None, Wssd({}, 0.5, 1.0, 2), 0.5, 2, 1.0)


GOOD_WSSD = ["wssd v1 epsilon=0.5 k=2 t=1", "tuple 1 0 1", "tuple 2 0 1 2"]


@pytest.mark.parametrize(
    "line, bad",
    [
        (1, "tuple"),                   # no tier, no nodes
        (0, "wssd v1 epsilon=0.5 t=1"),  # header without k
        (0, "wssd v1 k=2 t=1"),          # header without epsilon
        (0, "wssd v1 epsilon=0.5 k=2 t"),  # field without a value
        (0, "wssd v1 epsilon=0.5 k=0 t=1"),  # no tiers
        (1, "tuple 1 0 -3"),            # negative node id
        (2, "tuple 5 0 1 2 3 4 5"),     # tier above k
        (1, "tuple 0 4"),               # tier below 1
        (1, "tuple 1 0 1 2"),           # three nodes in tier 1
        (1, "tuple 1 0 x"),             # not an id
        (1, "pair 0 1"),                # not a tuple line
    ],
)
def test_read_wssd_rejects_malformed(tmp_path, line, bad):
    lines = list(GOOD_WSSD)
    path = tmp_path / "good.wssd"
    path.write_text("\n".join(lines) + "\n")
    assert read_wssd(path).tiers[2].tolist() == [[0, 1, 2]]
    lines[line] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_wssd(path)
