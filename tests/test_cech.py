import math
from itertools import combinations

import numpy as np
import pytest

import scalenets.cech as cech_mod
from scalenets.cech import (
    build_cech_pipeline,
    build_filtration,
    choose_h,
    default_grid,
    read_filtration,
    verify_sandwich,
    write_filtration,
)
from scalenets.forest import COVER_COEF, TAU, build_forest, root_level, vcell
from scalenets.geometry import PointCloud, exact_meb, generate, meb_radii, pairwise_distances
from scalenets.wssd import gen_wssd

from conftest import DEEP_CLOUDS, quantile_scale, structural_corpora


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
    wssd = gen_wssd(forest, cloud, eps / 42, 1)
    out = build_filtration(forest, cloud, wssd, eps, np.array([0.49, 0.5, 0.9]))
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
    wssd = gen_wssd(forest, cloud, 0.5 / 42, 2)
    with pytest.raises(ValueError):
        build_filtration(forest, cloud, wssd, 0.5, np.array([0.2, 0.8]))  # > t
    with pytest.raises(ValueError):
        build_filtration(forest, cloud, wssd, 0.5, np.array([0.3, 0.2]))  # not increasing
    with pytest.raises(ValueError):
        build_filtration(forest, cloud, wssd, 0.5, np.array([-0.1, 0.2]))


def test_depth_requirement_enforced():
    cloud = generate("uniform", n=10, d=2, seed=1)
    t = 0.4
    forest = build_forest(cloud, 2 * t, nn="exact")
    shallow = gen_wssd(forest, cloud, 0.9, 2)
    with pytest.raises(ValueError):
        build_filtration(forest, cloud, shallow, 0.5, np.array([0.2]))


def test_default_grid_shape():
    cloud = generate("uniform", n=12, d=2, seed=3)
    t = quantile_scale(cloud, 0.5)
    grid = default_grid(cloud, 0.5, t)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] > 0 and grid[-1] <= t
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, 1 + 0.5 / 7)
    # a pipeline run without a grid takes this one
    _, _, out = build_cech_pipeline(cloud, 0.5, 2, t, nn="exact")
    assert out == build_cech_pipeline(cloud, 0.5, 2, t, nn="exact", grid=grid)[2]
    assert verify_sandwich(cloud, out, 0.5, 2).ok


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


# --- the batched slices against the scalar loop they replaced ---------------


def reference_keys(forest, cloud, wssd, h):
    """Sorted rep sets of at least 2 reps from the tuples below level h, one tuple at a time."""
    cell = [int(forest.rep[vcell(forest, p, h)]) for p in range(cloud.n)]
    keys = set()
    for nodes in wssd.tiers.values():
        for row in nodes.tolist():
            if max(forest.low[v] for v in row) < h:
                key = tuple(sorted({cell[int(forest.rep[v])] for v in row}))
                if len(key) >= 2:
                    keys.add(key)
    return cell, keys


def reference_slices(forest, cloud, wssd, epsilon, grid):
    """The scalar slice loop `build_filtration` replaced: `exact_meb` on every rep set."""
    radius = {}
    out = []
    for alpha in grid:
        h = choose_h(epsilon, float(alpha), forest.root_level)
        theta = (1.0 + epsilon / 2.0) * float(alpha)
        cell, keys = reference_keys(forest, cloud, wssd, h)
        simplices = set()
        for key in keys:
            if key not in radius:
                radius[key] = exact_meb(cloud.points[list(key)]).radius
            if radius[key] <= theta * (1 + 1e-12):
                simplices.add(key)
        for simplex in list(simplices):
            for size in range(2, len(simplex)):
                simplices.update(combinations(simplex, size))
        out.append((float(alpha), h, dict(enumerate(cell)), simplices))
    return out


def assert_slices_match_reference(cloud, t, k, label, epsilon=0.5, grid=None):
    forest = build_forest(cloud, 2 * t, nn="exact")
    wssd = gen_wssd(forest, cloud, epsilon / 42, k)
    if grid is None:
        grid = np.geomspace(0.15 * t, t, 4)
    out = build_filtration(forest, cloud, wssd, epsilon, grid)
    got = [(sl.alpha, sl.h, sl.vertex_map, sl.simplices) for sl in out.slices]
    assert got == reference_slices(forest, cloud, wssd, epsilon, grid), label


def collinear_cloud(n, spacing=0.1, d=3):
    """Evenly spaced points on a line in a direction with inexact coordinates."""
    direction = np.random.default_rng(3).standard_normal(d)
    return PointCloud(spacing * np.arange(n)[:, None] * (direction / np.linalg.norm(direction)))


def degenerate_clouds(n):
    base = generate("uniform", n=n, d=2, seed=8).points
    side = int(math.isqrt(n))
    return [
        ("duplicates", PointCloud(np.vstack([base, base[: n // 3]]))),
        ("collinear", collinear_cloud(n)),
        ("lattice", PointCloud(0.1 * np.indices((side, side)).reshape(2, -1).T.astype(float))),
        ("d=1", PointCloud(np.random.default_rng(5).uniform(0.0, 1.0, size=(n, 1)))),
    ]


@pytest.mark.parametrize("k", [1, 2])
def test_slices_match_reference_on_corpora(k):
    # the structural generators at n=30: at n=150 the tier-2 tuples number
    # up to 1.3 million and the reference loop takes minutes per corpus
    for name, cloud, t in structural_corpora(30):
        assert_slices_match_reference(cloud, t, k, f"{name} k={k}")


def test_slices_match_reference_on_deep_clouds():
    # the decomposition lives on a forest at 2t, so t is half the forest scale
    for name, cloud, t in DEEP_CLOUDS:
        assert_slices_match_reference(cloud, t / 2, 1, f"{name} k=1")
    name, cloud, t = DEEP_CLOUDS[0]
    assert_slices_match_reference(cloud, t / 2, 2, f"{name} k=2")


def test_slices_match_reference_at_every_level():
    # one scale per level h that a scale in (0, t] selects, from the level
    # below every internal node (all cells leaves) up to the cap below the
    # root level, so each cell lookup is pinned against the `vcell` walk
    epsilon = 0.5
    for name, cloud, t in DEEP_CLOUDS:
        forest = build_forest(cloud, t, nn="exact")
        top = choose_h(epsilon, t / 2, forest.root_level)
        levels = list(range(int(forest.level[~forest.is_leaf].min()) - 1, top + 1))
        grid = np.array([min(t / 2, 7 * COVER_COEF * TAU ** (h + 0.5) / epsilon) for h in levels])
        assert [choose_h(epsilon, a, forest.root_level) for a in grid] == levels, name
        assert_slices_match_reference(cloud, t / 2, 1, name, epsilon, grid)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_slices_match_reference_on_degenerate_clouds(k):
    for name, cloud in degenerate_clouds(12 if k == 3 else 25):
        t = quantile_scale(cloud, 0.3)
        for eps in (0.25, 1.0):
            assert_slices_match_reference(cloud, t, k, f"{name} k={k} eps={eps}", epsilon=eps)
    # one structural corpus, for 4-point sets off any line or lattice
    name, cloud, t = structural_corpora(30)[-1]
    assert_slices_match_reference(cloud, t, k, f"{name} k={k}")


def threshold_grid(forest, cloud, wssd, epsilon, t, per_scale=3):
    """Scales whose threshold theta*(1+1e-12) equals, bit for bit, a radius.

    For rep sets whose closed-form and `exact_meb` radii differ, one scale
    puts the threshold on the smaller radius, so the two solvers decide
    apart, and one puts it on the `exact_meb` radius, which only the
    inclusive test keeps.
    """
    pts = cloud.points
    grid, split, on_oracle = set(), 0, 0
    for alpha in np.geomspace(0.15 * t, t, 6):
        h = choose_h(epsilon, float(alpha), forest.root_level)
        found = 0
        for key in sorted(reference_keys(forest, cloud, wssd, h)[1]):
            closed = float(meb_radii(pts[np.array([key])])[0])
            oracle = exact_meb(pts[list(key)]).radius
            if closed == oracle or found == per_scale:
                continue
            found += 1
            for target in (min(closed, oracle), oracle):
                a = target / ((1.0 + epsilon / 2.0) * (1 + 1e-12))
                for _ in range(8):
                    got = (1.0 + epsilon / 2.0) * a * (1 + 1e-12)
                    if got == target:
                        break
                    a = float(np.nextafter(a, np.inf if got < target else -np.inf))
                if got == target and a <= t and choose_h(epsilon, a, forest.root_level) == h:
                    grid.add(a)
                    split += target < max(closed, oracle)
                    on_oracle += target == oracle
    return np.array(sorted(grid)), split, on_oracle


@pytest.mark.parametrize("shift", [0.0, 1e9])
def test_band_decides_radii_on_the_threshold(monkeypatch, shift):
    # at these scales the closed form and exact_meb fall on opposite sides
    # of the threshold, or exact_meb lands on it: only the band re-decision
    # with the inclusive test keeps the slices equal to the reference. Far
    # from the origin, exact_meb's center rounds to 1e-7 of the radii, past
    # the relative band; the band's coordinate-scale term covers that.
    cloud = PointCloud(collinear_cloud(20).points + shift)
    t, epsilon = quantile_scale(cloud, 0.3), 0.5
    forest = build_forest(cloud, 2 * t, nn="exact")
    wssd = gen_wssd(forest, cloud, epsilon / 42, 2)
    grid, split, on_oracle = threshold_grid(forest, cloud, wssd, epsilon, t)
    assert split >= 3 and on_oracle >= 3, (split, on_oracle)

    calls = []
    monkeypatch.setattr(cech_mod, "exact_meb", lambda p: calls.append(1) or exact_meb(p))
    out = build_filtration(forest, cloud, wssd, epsilon, grid)
    monkeypatch.undo()
    assert len(calls) >= len(grid)
    got = [(sl.alpha, sl.h, sl.vertex_map, sl.simplices) for sl in out.slices]
    assert got == reference_slices(forest, cloud, wssd, epsilon, grid)


# --- loader rejections --------------------------------------------------------


GOOD_FILTRATION = [
    "cechapprox v1 epsilon=0.5 t=1",
    "slice alpha=0.5 h=-2",
    "vmap 0 0",
    "vmap 1 0",
    "vmap 2 2",
    "simplex 1 0 2",
]


@pytest.mark.parametrize(
    "line, bad",
    [
        (5, "simplex 1 0"),            # dimension 1 with one vertex
        (5, "simplex 2 0 1"),          # dimension 2 with two vertices
        (5, "simplex 0 2"),            # a vertex is no simplex of a slice
        (5, "simplex 1 2 0"),          # vertices not ascending
        (5, "simplex 1 2 2"),          # repeated vertex
        (5, "simplex 1 -1 2"),         # negative id
        (4, "vmap 3"),                 # no rep
        (4, "vmap 2 2 2"),             # one id too many
        (4, "vmap x 2"),               # not an id
        (0, "cechapprox v1 t=1"),      # header without epsilon
        (0, "cechapprox v1 epsilon=0.5"),  # header without t
        (1, "slice h=-2"),             # slice without alpha
        (1, "slice alpha=0.5"),        # slice without h
        (1, "slice alpha=0.5 h"),      # field without a value
    ],
)
def test_read_filtration_rejects_malformed(tmp_path, line, bad):
    lines = list(GOOD_FILTRATION)
    path = tmp_path / "good.txt"
    path.write_text("\n".join(lines) + "\n")
    assert read_filtration(path).slices[0].simplices == {(0, 2)}
    lines[line] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_filtration(path)
