import math

import numpy as np
import pytest

from scalenets.cech import (
    build_cech_pipeline,
    build_filtration,
    choose_h,
    default_grid,
    read_filtration,
    verify_sandwich,
    write_filtration,
)
from scalenets.forest import COVER_COEF, TAU, build_forest, root_level
from scalenets.geometry import PointCloud, generate, pairwise_distances
from scalenets.wssd import gen_wssd

from conftest import quantile_scale


def test_choose_h_is_maximal_below_root():
    rng = np.random.default_rng(0)
    for _ in range(200):
        eps = float(rng.uniform(0.05, 1.0))
        t = float(rng.uniform(0.05, 50.0))
        alpha = t * float(rng.uniform(0.01, 1.0))
        rl = root_level(2 * t)
        h = choose_h(eps, alpha, rl)
        assert COVER_COEF * TAU**h <= (eps / 7) * alpha * (1 + 1e-9)
        assert h < rl
        if h < rl - 1:
            assert COVER_COEF * TAU ** (h + 1) > (eps / 7) * alpha * (1 - 1e-9)


def test_two_point_edge_thresholds():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    t = 1.0
    forest = build_forest(cloud, 2 * t, nn="exact")
    # fine coarsening: tiny epsilon keeps cells at the leaves
    eps = 0.01
    wssd = gen_wssd(forest, cloud, eps / 42, 1, t)
    out = build_filtration(forest, cloud, wssd, eps, t, np.array([0.49, 0.5, 0.9]))
    by_alpha = {round(s.alpha, 3): s.simplices for s in out.slices}
    assert by_alpha[0.49] == set()        # radius 0.5 > (1+eps/2)*0.49
    assert by_alpha[0.5] == {(0, 1)}      # radius 0.5 <= (1+eps/2)*0.5
    assert by_alpha[0.9] == {(0, 1)}


def test_unit_triangle_two_simplex_present():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    cloud = PointCloud(tri)
    t = 1.0
    for eps in (0.25, 1.0):
        forest, wssd, out = build_cech_pipeline(
            cloud, eps, 2, t, grid=np.array([0.6]), nn="exact"
        )
        (sl,) = out.slices
        assert (0, 1, 2) in sl.simplices  # enclosing radius 0.577 < 0.6


def test_grid_validation():
    cloud = generate("uniform", n=10, d=2, seed=1)
    t = 0.4
    forest = build_forest(cloud, 2 * t, nn="exact")
    wssd = gen_wssd(forest, cloud, 0.5 / 42, 2, t)
    with pytest.raises(ValueError):
        build_filtration(forest, cloud, wssd, 0.5, t, np.array([0.2, 0.8]))  # > t
    with pytest.raises(ValueError):
        build_filtration(forest, cloud, wssd, 0.5, t, np.array([0.3, 0.2]))  # not increasing
    with pytest.raises(ValueError):
        build_filtration(forest, cloud, wssd, 0.5, t, np.array([-0.1, 0.2]))


def test_depth_requirement_enforced():
    cloud = generate("uniform", n=10, d=2, seed=1)
    t = 0.4
    forest = build_forest(cloud, 2 * t, nn="exact")
    shallow = gen_wssd(forest, cloud, 0.9, 2, t)
    with pytest.raises(ValueError):
        build_filtration(forest, cloud, shallow, 0.5, t, np.array([0.2]))


def test_default_grid_shape():
    cloud = generate("uniform", n=12, d=2, seed=3)
    t = quantile_scale(cloud, 0.5)
    grid = default_grid(cloud, 0.5, t)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] > 0 and grid[-1] <= t
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, 1 + 0.5 / 7)


def matrix_grid(cloud, epsilon, t):
    """default_grid's definition, read off the full distance matrix."""
    d = pairwise_distances(cloud)
    positive = d[d > 0]
    if positive.size == 0:
        return np.array([t])
    alpha, out = float(positive.min()) / 2.0, []
    while alpha <= t:
        out.append(alpha)
        alpha *= 1.0 + epsilon / 7.0
    return np.array(out)


def test_default_grid_matches_distance_matrix(corpora):
    base = generate("uniform", n=30, d=2, seed=8).points
    clouds = [(name, cloud, t) for name, cloud, t in corpora]
    clouds += [
        ("duplicate-only", PointCloud(np.tile([[1.5, -2.0]], (5, 1))), 1.0),
        ("with-duplicates", PointCloud(np.vstack([base, base[:7]])), 0.5),
        ("lattice", PointCloud(0.1 * np.indices((6, 6)).reshape(2, -1).T), 1.0),
    ]
    for name, cloud, t in clouds:
        for eps in (0.2, 0.9):
            assert np.array_equal(default_grid(cloud, eps, t), matrix_grid(cloud, eps, t)), name


def test_sandwich_on_random_clouds():
    for seed in (1, 5):
        cloud = generate("uniform", n=16, d=3, seed=seed)
        t = quantile_scale(cloud, 0.35)
        grid = np.geomspace(0.2 * t, t, 5)
        for eps in (0.25, 1.0):
            _, _, out = build_cech_pipeline(cloud, eps, 2, t, grid=grid, nn="exact")
            report = verify_sandwich(cloud, out, eps, 2)
            assert report.ok, (seed, eps, report.lower_violations[:2], report.upper_violations[:2])


def test_fabricated_slices_flagged():
    cloud = generate("uniform", n=12, d=2, seed=7)
    t = quantile_scale(cloud, 0.4)
    grid = np.array([t])
    _, _, out = build_cech_pipeline(cloud, 0.5, 2, t, grid=grid, nn="exact")
    (sl,) = out.slices
    # (a) remove a mapped exact edge
    import copy

    d = np.linalg.norm(cloud.points[0] - cloud.points, axis=1)
    partner = int(np.argsort(d)[1])
    image_edge = tuple(sorted({sl.vertex_map[0], sl.vertex_map[partner]}))
    broken = copy.deepcopy(out)
    if len(image_edge) == 2 and image_edge in broken.slices[0].simplices:
        broken.slices[0].simplices.discard(image_edge)
        assert verify_sandwich(cloud, broken, 0.5, 2).lower_violations
    # (b) add a far-flung pair
    far = tuple(sorted({int(np.argmax(d)), 0}))
    broken2 = copy.deepcopy(out)
    broken2.slices[0].alpha = float(d.max()) / 100.0
    broken2.slices[0].simplices.add(far)
    assert verify_sandwich(cloud, broken2, 0.5, 2).upper_violations


def test_simplices_reference_vertex_image():
    cloud = generate("clustered", n=18, d=2, seed=4, clusters=3)
    t = quantile_scale(cloud, 0.4)
    _, _, out = build_cech_pipeline(cloud, 0.5, 2, t, grid=np.geomspace(0.3 * t, t, 4), nn="exact")
    for sl in out.slices:
        image = set(sl.vertex_map.values())
        for simplex in sl.simplices:
            assert set(simplex) <= image


def test_filtration_roundtrip_and_determinism(tmp_path):
    cloud = generate("uniform", n=14, d=2, seed=8)
    t = quantile_scale(cloud, 0.4)
    grid = np.geomspace(0.25 * t, t, 4)
    paths = []
    for run in range(2):
        _, _, out = build_cech_pipeline(cloud, 0.5, 2, t, grid=grid, nn="exact")
        path = tmp_path / f"run{run}.txt"
        write_filtration(path, out)
        paths.append(path.read_text())
    assert paths[0] == paths[1]
    back = read_filtration(tmp_path / "run0.txt")
    write_filtration(tmp_path / "back.txt", back)
    assert (tmp_path / "back.txt").read_text() == paths[0]
