import numpy as np
import pytest

from scalenets.dimension import estimate_dim
from scalenets.forest import NetForest, build_forest
from scalenets.geometry import (
    PointCloud,
    brute_restricted_doubling,
    generate,
    pairwise_distances,
    restricted_dim,
)

from conftest import quantile_scale


def test_all_leaf_forest_estimate_zero():
    cloud = PointCloud(np.array([[0.0], [10.0], [20.0]]))
    forest = build_forest(cloud, 1.0, nn="exact")
    est = estimate_dim(forest)
    assert est.max_out_degree == 1 and est.estimate == 0.0


def test_binary_chain_estimate_one():
    # two points in one cluster: root -> chain node -> two leaves
    cloud = PointCloud(np.array([[0.0], [0.4]]))
    forest = build_forest(cloud, 1.0, nn="exact")
    est = estimate_dim(forest)
    assert est.max_out_degree == 2 and est.estimate == 1.0


def test_empty_forest_rejected():
    forest = NetForest([], [], [], [0], [], 1.0)
    with pytest.raises(ValueError):
        estimate_dim(forest)


def test_collinear_within_constant_factor_of_oracle():
    # the bound here is the 4x ratio band; the additive band is exercised at
    # a slightly smaller scale in the acceptance suite
    pts = np.zeros((50, 3))
    pts[:, 0] = np.arange(50.0)
    cloud = PointCloud(pts)
    t = 49.0 / 4
    forest = build_forest(cloud, t, nn="exact")
    est = estimate_dim(forest)
    sub = PointCloud(pts[np.round(np.linspace(0, 49, 12)).astype(int)])
    oracle = restricted_dim(brute_restricted_doubling(sub, t))
    assert oracle / 4 <= max(est.estimate, 0.25) <= 4 * oracle


def test_translation_invariance():
    cloud = generate("uniform", n=60, d=3, seed=4)
    t = quantile_scale(cloud, 0.25)
    est = estimate_dim(build_forest(cloud, t, nn="exact"))
    moved = PointCloud(cloud.points + np.array([5.25, -2.0, 7.5]))
    est2 = estimate_dim(build_forest(moved, t, nn="exact"))
    assert est.max_out_degree == est2.max_out_degree


def test_monotone_trend_in_t():
    lo, hi = [], []
    for s in range(5):
        cloud = generate("affine", n=70, d=4, flat_dim=2, seed=10 + s)
        t2 = quantile_scale(cloud, 0.3)
        t1 = t2 / 4
        lo.append(estimate_dim(build_forest(cloud, t1, nn="exact")).estimate)
        hi.append(estimate_dim(build_forest(cloud, t2, nn="exact")).estimate)
    assert float(np.median(lo)) <= float(np.median(hi)) + 1.0


def test_zero_below_closest_pair():
    cloud = generate("uniform", n=25, d=3, seed=9)
    d = pairwise_distances(cloud)
    t = float(d[d > 0].min()) * 0.9
    est = estimate_dim(build_forest(cloud, t, nn="exact"))
    assert est.estimate == 0.0
