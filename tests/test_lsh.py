import math

import numpy as np
import pytest
from scipy.integrate import quad

from scalenets.geometry import PointCloud, brute_near_neighbours, generate, pairwise_distances
from scalenets.lsh import (
    LshIndex,
    collision_probability,
    concat_length,
    derive_params,
    select_width,
    table_count,
)

from conftest import quantile_scale


def test_table_count_example():
    # 2 * sqrt(1000) * ln(1000/0.1) rounded up
    assert table_count(1000, 0.5, 0.01) == 583


def test_concat_length_example():
    assert concat_length(1000, 0.1) == 3


def test_small_n_positive_params():
    params = derive_params(2, 1.0, 0.5, 0.5)
    assert params.k >= 1 and params.l >= 1


def test_collision_probability_coincident():
    assert collision_probability(0.0, 4.0) == 1.0


def test_collision_probability_monotone():
    vals = [collision_probability(c, 4.0) for c in np.linspace(0.01, 50, 200)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


def test_collision_probability_matches_quadrature():
    w, c = 4.0, 1.0
    integrand = lambda tau: (2.0 / c) * math.exp(-((tau / c) ** 2) / 2) / math.sqrt(
        2 * math.pi
    ) * (1 - tau / w)
    expected, _ = quad(integrand, 0.0, w)
    assert collision_probability(c, w) == pytest.approx(expected, abs=1e-6)


def test_selected_width_achieves_exponent():
    for rho in (0.25, 0.5, 0.75):
        w = select_width(rho)
        p1 = collision_probability(1.0, w)
        p2 = collision_probability(1.0 / rho, w)
        assert math.log(p1) / math.log(p2) <= rho


def test_derive_params_validation():
    with pytest.raises(ValueError):
        derive_params(1, 1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        derive_params(10, -1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        derive_params(10, 1.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        derive_params(10, 1.0, 0.5, 0.0)


def test_build_single_point():
    params = derive_params(2, 1.0, 0.5, 0.1)
    # params fixed to n=2; index two coincident points: one bucket per table
    pts = np.zeros((2, 3))
    index = LshIndex(pts, params, seed=0)
    for table in range(params.l):
        assert len(np.unique(index._gids[table])) == 1


def test_duplicates_share_all_buckets():
    pts = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
    params = derive_params(3, 1.0, 0.5, 0.1)
    index = LshIndex(pts, params, seed=1)
    assert np.array_equal(index._gids[:, 0], index._gids[:, 1])


@pytest.mark.parametrize("far", [1.0, 1e12])
def test_buckets_group_keys_exactly(far):
    # with one point out at 1e12 the k hash columns span too much to share
    # one int64 code, while the unit cube still fills shared buckets
    cloud = generate("uniform", n=80, d=3, seed=8)
    pts = np.vstack([cloud.points, cloud.points[:5], [[far, -far, far]]])
    params = derive_params(86, 0.1, 0.5, 0.1)
    index = LshIndex(pts, params, seed=4)
    for i in range(params.l):
        keys = np.floor((pts @ index._dirs[i].T + index._offs[i]) / params.w).astype(np.int64)
        _, want = np.unique(keys, axis=0, return_inverse=True)
        assert np.array_equal(index._gids[i] - index._gids[i].min(), want.ravel())


def test_total_stored_entries():
    cloud = generate("uniform", n=200, d=4, seed=3)
    r = quantile_scale(cloud, 0.05)
    params = derive_params(200, r, 0.5, 0.1)
    index = LshIndex(cloud.points, params, seed=2)
    # every table stores every point exactly once
    per_table = np.sort(index._order.reshape(params.l, 200), axis=1)
    assert np.array_equal(per_table, np.tile(np.arange(200), (params.l, 1)))


def test_query_soundness_and_isolated_point():
    rng = np.random.default_rng(5)
    blob = rng.normal(size=(30, 3)) * 0.05
    isolated = np.array([[50.0, 50.0, 50.0]])
    cloud = PointCloud(np.vstack([blob, isolated]))
    r = 0.5
    params = derive_params(31, r, 0.5, 0.1)
    index = LshIndex(cloud.points, params, seed=7)
    report = index.query(30, r)
    assert report.neighbours == frozenset({30})
    for q in range(31):
        got = set(map(int, index(q)))
        want = set(brute_near_neighbours(cloud, q, r).tolist())
        assert got <= want


def test_query_validation():
    pts = np.zeros((4, 2))
    params = derive_params(4, 1.0, 0.5, 0.1)
    index = LshIndex(pts, params, seed=0)
    with pytest.raises(ValueError):
        index.query(9, 1.0)
    with pytest.raises(ValueError):
        index.query(0, 2.0)


def test_determinism_same_seed():
    cloud = generate("uniform", n=80, d=4, seed=9)
    r = quantile_scale(cloud, 0.1)
    params = derive_params(80, r, 0.5, 0.1)
    a = LshIndex(cloud.points, params, seed=11)
    b = LshIndex(cloud.points, params, seed=11)
    assert np.array_equal(a._gids, b._gids)
    for q in range(0, 80, 9):
        assert a.query(q, r) == b.query(q, r)


def test_all_near_pairs_matches_queries():
    cloud = generate("clustered", n=70, d=3, seed=13, clusters=5)
    r = quantile_scale(cloud, 0.1)
    params = derive_params(70, r, 0.5, 0.1)
    index = LshIndex(cloud.points, params, seed=17)
    from_queries = set()
    for q in range(70):
        for j in index(q):
            if q < j:
                from_queries.add((q, int(j)))
    from_pairs = {(int(i), int(j)) for i, j in index.all_near_pairs()}
    assert from_queries == from_pairs


def test_candidates_scanned_clustered_bound():
    # clusters much tighter than r2: aggregate bucket occupancy stays near
    # l * (cluster size + 1); the second corpus keeps the default cluster
    # separation, so neighbouring clusters can share buckets
    corpora = [
        (generate("clustered", n=250, d=4, seed=19, clusters=10, separation=40.0, spread=0.02), 23),
        (generate("clustered", n=600, d=6, seed=42, clusters=30, spread=0.05), 42),
    ]
    r = 1.0
    for cloud, index_seed in corpora:
        params = derive_params(cloud.n, r, 0.5, 0.1)
        index = LshIndex(cloud.points, params, seed=index_seed)
        dm = pairwise_distances(cloud)
        c_max = int((dm <= params.r2).sum(axis=1).max())
        scanned = [index.query(q, r).candidates_scanned for q in range(cloud.n)]
        assert float(np.mean(scanned)) <= params.l * (c_max + 1) * 1.5, cloud.n
