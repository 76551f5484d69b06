import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalenets.geometry import (
    Ball,
    ExactNearNeighbours,
    PointCloud,
    brute_near_neighbours,
    brute_restricted_doubling,
    distance,
    exact_meb,
    generate,
    meb_radii,
    pairwise_distances,
    parse_fields,
    read_points,
    read_records,
    restricted_dim,
    write_points,
)


def test_distance_pythagorean():
    assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_distance_identity():
    p = np.array([1.5, -2.0, 3.0])
    assert distance(p, p) == 0.0


def test_distance_nine_dims():
    assert distance(np.ones(9), np.zeros(9)) == 3.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(np.zeros(2), np.zeros(3))


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(st.lists(coords, min_size=d, max_size=d), min_size=3, max_size=3)))
def test_triangle_inequality(triple):
    p, q, r = (np.array(x) for x in triple)
    assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-6 * (1 + distance(p, r))


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([1.0, 2.0]))


def test_brute_near_neighbours_line():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0], [10.0]]))
    assert brute_near_neighbours(cloud, 0, 2.5).tolist() == [0, 1, 2]


def test_brute_near_neighbours_zero_radius():
    cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    assert brute_near_neighbours(cloud, 0, 0.0).tolist() == [0, 1]


def test_brute_near_neighbours_errors():
    cloud = PointCloud(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        brute_near_neighbours(cloud, 0, -1.0)
    with pytest.raises(ValueError):
        brute_near_neighbours(cloud, 5, 1.0)


# --- exact minimum enclosing ball -----------------------------------------


def test_meb_singleton():
    ball = exact_meb(np.array([[2.0, 3.0]]))
    assert ball.radius == 0.0
    assert np.allclose(ball.center, [2.0, 3.0])


def test_meb_two_points():
    ball = exact_meb(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert ball.radius == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(ball.center, [1.0, 0.0])


def test_meb_unit_equilateral_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    ball = exact_meb(tri)
    assert ball.radius == pytest.approx(1 / math.sqrt(3), rel=1e-9)


def test_meb_empty_is_error():
    with pytest.raises(ValueError):
        exact_meb(np.empty((0, 2)))


def test_meb_contains_and_bounded_by_max_pair():
    rng = np.random.default_rng(0)
    for _ in range(40):
        m, d = int(rng.integers(1, 10)), int(rng.integers(1, 6))
        pts = rng.uniform(-3, 3, size=(m, d))
        ball = exact_meb(pts)
        assert ball.contains(pts)
        if m >= 2:
            diffs = pts[:, None, :] - pts[None, :, :]
            maxpair = float(np.sqrt((diffs**2).sum(-1)).max())
            assert ball.radius <= maxpair * (1 + 1e-9)


# --- closed-form radii of 2- and 3-point sets --------------------------------


def assert_radii_match_oracle(stack, label=""):
    """Closed-form radii equal `exact_meb`'s within 1e-9 relative, plus 1e-12
    of the largest coordinate for rounding far from the origin."""
    stack = np.asarray(stack, dtype=np.float64)
    closed = meb_radii(stack)
    assert closed.shape == (len(stack),)
    for pts, got in zip(stack, closed):
        want = exact_meb(pts).radius
        slack = 1e-9 * want + 1e-12 * float(np.abs(pts).max())
        assert abs(got - want) <= slack, (label, pts.tolist(), got, want)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("m", [2, 3])
def test_meb_radii_random_sets(m, d):
    rng = np.random.default_rng(10 * m + d)
    assert_radii_match_oracle(rng.standard_normal((300, m, d)), "normal")
    assert_radii_match_oracle(rng.uniform(-1e3, 1e3, (100, m, d)), "wide")


def test_meb_radii_degenerate_sets():
    rng = np.random.default_rng(4)
    direction = rng.standard_normal(3)
    collinear = rng.uniform(-2, 2, (200, 3, 1)) * direction
    spaced = np.arange(3)[:, None] * direction + rng.standard_normal((50, 1, 3))
    p = rng.standard_normal((50, 1, 3))
    q = rng.standard_normal((50, 1, 3))
    duplicates = np.concatenate([p, p, q], axis=1)
    # q and a copy of q moved by far less than the rounding of |p - q|: the
    # two long sides tie, and the angle at q is not the largest one
    nudged = np.concatenate([p, q, q + np.array([0.0, 0.0, 1e-17])], axis=1)
    underflow = np.concatenate([p, q, q + np.array([0.0, 0.0, 5e-168])], axis=1)
    lattice = np.indices((4, 4)).reshape(2, -1).T.astype(float)
    triples = np.array([lattice[list(c)] for c in combinations(range(16), 3)])
    pairs = np.array([lattice[list(c)] for c in combinations(range(16), 2)])
    for label, stack in [
        ("collinear", collinear),
        ("evenly spaced", spaced),
        ("duplicate pair", duplicates),
        ("nudged duplicate", nudged),
        ("underflowing duplicate", underflow),
        ("all equal", np.repeat(p, 3, axis=1)),
        ("equal pair", np.repeat(p, 2, axis=1)),
        ("lattice triples", triples),
        ("lattice pairs", pairs),
    ]:
        assert_radii_match_oracle(stack, label)
    assert np.all(meb_radii(np.repeat(p, 3, axis=1)) == 0.0)


def test_meb_radii_right_and_near_right_triangles():
    # right angle at the origin: the hypotenuse is a diameter
    right = np.array([[[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], [[1.0, 1.0], [2.0, 2.0], [3.0, 1.0]]])
    assert meb_radii(right).tolist() == [2.5, 1.0]
    assert_radii_match_oracle(right, "right")
    # the apex moves through the right angle: acute above, obtuse below
    near = []
    for offset in (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6):
        for a in (0.2, 0.5, 0.9):
            y = math.sqrt(a * (1 - a)) + offset  # on the unit-diameter circle at offset 0
            near.append([[0.0, 0.0], [1.0, 0.0], [a, y]])
    assert_radii_match_oracle(near, "near right")
    rotation = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 5)))[0]
    embedded = np.concatenate([np.array(near), np.zeros((len(near), 3, 3))], axis=2) @ rotation.T
    assert_radii_match_oracle(embedded, "near right in R^5")


def test_meb_radii_far_below_and_above_unit_scale():
    # squared lengths of these sets under- or overflow; the radii must not
    cases = [
        ([[0.0], [2.7994374991302657e-160]], 1.3997187495651329e-160),
        ([[1.0, 0.0], [1.0, 1e-200]], 5e-201),
        ([[1.0, 0.0], [1.0, 1e-200], [1.0, 3e-200]], 1.5e-200),
        ([[0.0, 0.0], [3e-170, 0.0], [0.0, 4e-170]], 2.5e-170),
        ([[0.0, 0.0], [3e200, 0.0], [0.0, 4e200]], 2.5e200),
    ]
    for pts, want in cases:
        stack = np.array([pts])
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isclose(meb_radii(stack)[0], want, rel_tol=1e-12), pts
            assert math.isclose(exact_meb(np.array(pts)).radius, want, rel_tol=1e-12), pts
            assert_radii_match_oracle(stack, "far scale")


def test_meb_radii_rejects_other_sizes():
    with pytest.raises(ValueError):
        meb_radii(np.zeros((2, 4, 3)))


small_sets = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=d, max_size=d),
        min_size=2,
        max_size=3,
    )
)


@settings(max_examples=300, deadline=None)
@given(small_sets)
def test_meb_radii_property(points):
    assert_radii_match_oracle([points])


# --- scale-restricted doubling oracle --------------------------------------


def test_doubling_single_point():
    cloud = PointCloud(np.array([[0.0, 0.0]]))
    lam = brute_restricted_doubling(cloud, 1.0)
    assert lam == 1 and restricted_dim(lam) == 0


def test_doubling_two_points():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    lam = brute_restricted_doubling(cloud, 2.0)
    assert lam == 2 and restricted_dim(lam) == 1


def test_doubling_five_collinear_matches_exhaustive_cover():
    pts = np.array([[float(i)] for i in range(5)])
    cloud = PointCloud(pts)
    diam = 4.0
    lam = brute_restricted_doubling(cloud, diam)
    # independent by-hand check: worst radius is r=1 (three points, balls of
    # radius 1/2 around points hold one point each)
    assert lam == 3


def test_doubling_monotone_in_t():
    cloud = generate("uniform", n=12, d=2, seed=3)
    diam = float(pairwise_distances(cloud).max())
    lams = [brute_restricted_doubling(cloud, f * diam) for f in (0.25, 0.5, 1.0)]
    assert lams == sorted(lams)


def test_doubling_caps_at_diameter():
    cloud = generate("clustered", n=10, d=2, seed=5, clusters=3)
    diam = float(pairwise_distances(cloud).max())
    assert brute_restricted_doubling(cloud, diam) == brute_restricted_doubling(cloud, 2 * diam)


def test_doubling_input_errors():
    cloud = PointCloud(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        brute_restricted_doubling(cloud, 0.0)
    with pytest.raises(ValueError):
        brute_restricted_doubling(generate("uniform", n=20, d=2, seed=1), 1.0)


# --- generators -------------------------------------------------------------


def test_affine_deterministic():
    a = generate("affine", n=100, d=10, flat_dim=1, seed=7)
    b = generate("affine", n=100, d=10, flat_dim=1, seed=7)
    assert np.array_equal(a.points, b.points)


def test_sphere_norms():
    cloud = generate("sphere", n=50, d=3, seed=2, radius=2.0, noise=0.1)
    norms = np.linalg.norm(cloud.points, axis=1)
    assert np.all(norms >= 1.9 - 1e-12) and np.all(norms <= 2.1 + 1e-12)


def test_curve_spacing_and_low_restricted_dim():
    spacing = 0.08
    cloud = generate("curve", n=12, d=3, seed=4, spacing=spacing)
    steps = np.linalg.norm(np.diff(cloud.points, axis=0), axis=1)
    assert np.allclose(steps, spacing)
    # at the vertex spacing scale a curve is one-dimensional-ish
    assert restricted_dim(brute_restricted_doubling(cloud, spacing)) <= 2
    # at twice the spacing, a ball of radius just under 2*spacing holds five
    # vertices while half-radius balls centered at vertices hold one each,
    # so any strictly curved sample sits exactly one notch higher
    assert restricted_dim(brute_restricted_doubling(cloud, 2 * spacing)) <= 3


def test_generate_bad_params():
    with pytest.raises(ValueError):
        generate("affine", n=10, d=3, flat_dim=5, seed=1)
    with pytest.raises(ValueError, match="noise"):
        generate("affine", n=10, d=3, flat_dim=2, seed=1, noise=-0.5)
    with pytest.raises(ValueError, match="noise"):
        generate("sphere", n=10, d=3, seed=1, noise=-0.5)
    with pytest.raises(ValueError):
        generate("nope", n=10, d=3, seed=1)
    with pytest.raises(ValueError):
        generate("uniform", n=10, d=3, seed=1, bogus=2)


# --- point files ------------------------------------------------------------


def test_point_file_roundtrip(tmp_path):
    cloud = generate("uniform", n=37, d=5, seed=9)
    path = tmp_path / "pts.txt"
    write_points(path, cloud)
    back = read_points(path)
    assert np.array_equal(back.points, cloud.points)
    assert path.read_text().splitlines()[0] == "# dim=5"


def test_point_file_headerless(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("0 0\n1 1\n")
    cloud = read_points(path)
    assert cloud.n == 2 and cloud.dim == 2


def test_point_file_bad_dims(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 1 1\n")
    with pytest.raises(ValueError):
        read_points(path)


def test_read_records(tmp_path):
    path = tmp_path / "rec.txt"
    path.write_text("demo v1 extra=x n=3 t=0.5\n\nrow a  b\n   \nrow c\n")
    assert read_records(path, "demo", t=float, n=int) == ([0.5, 3], [["row", "a", "b"], ["row", "c"]])
    for text, message in [
        ("", "not a demo v1 file"),
        ("demo v2 n=3 t=0.5\n", "not a demo v1 file"),
        ("demo v1 n=3\n", "malformed header"),
        ("demo v1 n=x t=0.5\n", "malformed header"),
        ("demo v1 n=3 t\n", "malformed header"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_records(path, "demo", n=int, t=float)


def test_parse_fields():
    assert parse_fields(["b=2", "a=x=y", "c=1"], {"a": str, "b": int}) == ["x=y", 2]
    with pytest.raises(KeyError):
        parse_fields(["a=1"], {"b": int})
    with pytest.raises(ValueError):
        parse_fields(["a"], {"a": str})


def test_exact_near_neighbours_matches_brute():
    cloud = generate("clustered", n=60, d=3, seed=11)
    nn = ExactNearNeighbours(cloud.points, 0.8)
    for q in range(0, 60, 5):
        assert nn(q).tolist() == brute_near_neighbours(cloud, q, 0.8).tolist()


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -1.0)
