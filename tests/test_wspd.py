import numpy as np
import pytest

import scalenets.wspd as wspd_mod
from scalenets.forest import build_forest
from scalenets.geometry import PointCloud, generate
from scalenets.wspd import Wspd, gen_wspd, read_wspd, verify_wspd, write_wspd

from conftest import median_nn, quantile_scale


def build(cloud, t):
    return build_forest(cloud, t, nn="exact")


def reference_pairs(forest, cloud, epsilon):
    """The scalar stack loop `gen_wspd` replaced: one pair per step.

    Same reach rule, separation test, split rule and self-pair expansion,
    with the distance taken by a scalar norm; independent of the block code.
    It seeds on the wider 7t root lists, so a match also shows that the 3t
    seeds lose no pair.
    """
    pts = cloud.points
    out = set()
    limit = forest.t * (1 + 1e-9)
    neighbours = forest.roots_within_7t(cloud)
    stack = [(r, s) for r in forest.roots for s in neighbours[r] if s >= r]
    while stack:
        a, b = stack.pop()
        if a == b:
            ch = forest.children_of(a)
            if not ch:
                continue
            for i in range(len(ch)):
                for j in range(i, len(ch)):
                    stack.append((min(ch[i], ch[j]), max(ch[i], ch[j])))
            continue
        da, db = 2.0 * forest.cover[a], 2.0 * forest.cover[b]
        dist = float(np.linalg.norm(pts[forest.rep[a]] - pts[forest.rep[b]]))
        if dist - forest.cover[a] - forest.cover[b] > limit:
            continue  # no point pair within t below this pair
        if max(da, db) <= epsilon * dist:
            out.add((a, b))
            continue
        split = a if (da > db or (da == db and a < b)) else b
        keep = b if split == a else a
        for c in forest.children_of(split):
            stack.append((min(c, keep), max(c, keep)))
    return sorted(out)


def assert_matches_reference(forest, cloud, epsilon, label):
    wspd = gen_wspd(forest, cloud, epsilon)
    assert wspd.pairs.dtype == np.intp and wspd.pairs.shape[1:] == (2,), label
    assert wspd.pairs.tolist() == [list(p) for p in reference_pairs(forest, cloud, epsilon)], label
    return wspd


def test_matches_scalar_reference_on_corpora(corpora):
    for name, cloud, t in corpora:
        forest = build(cloud, t)
        for eps in (0.1, 0.5, 0.9):
            assert_matches_reference(forest, cloud, eps, f"{name} eps={eps}")


def test_matches_scalar_reference_on_degenerate_clouds():
    base = generate("uniform", n=40, d=2, seed=4).points
    dups = PointCloud(np.vstack([base, base[:10], base[:3], np.zeros((3, 2))]))
    builds = [
        ("duplicates", dups, quantile_scale(dups, 0.3)),
        ("n=1", PointCloud(np.array([[0.3, -1.2]])), 1.0),
        ("n=2 near", PointCloud(np.array([[0.0, 0.0], [0.4, 0.1]])), 1.0),
        ("n=2 far", PointCloud(np.array([[0.0, 0.0], [3.0, 0.0]])), 1.0),
    ]
    for name, cloud, t in builds:
        forest = build(cloud, t)
        for eps in (0.1, 0.5, 0.9):
            assert_matches_reference(forest, cloud, eps, f"{name} eps={eps}")


def test_exact_separation_tie_is_emitted():
    # two 2-point roots with bound 2t = 2 and representatives 2.5 apart:
    # max(da, db) == 0.8 * 2.5 exactly in floating point, and `<=` must keep
    # the pair; its reach 2.5 - 1 - 1 = 0.5 lies within t
    cloud = PointCloud(np.array([[0.0], [0.5], [2.5], [3.0]]))
    forest = build(cloud, 1.0)
    r0, r1 = forest.roots
    dist = abs(cloud.points[forest.rep[r0], 0] - cloud.points[forest.rep[r1], 0])
    assert 2 * forest.cover[r0] == 2 * forest.cover[r1] == 0.8 * dist
    assert dist - forest.cover[r0] - forest.cover[r1] <= forest.t
    wspd = assert_matches_reference(forest, cloud, 0.8, "tie")
    assert [min(r0, r1), max(r0, r1)] in wspd.pairs.tolist()


def test_block_splitting_matches_reference(corpora, monkeypatch):
    monkeypatch.setattr(wspd_mod, "_BLOCK", 1)
    for name, cloud, t in corpora[:2]:
        assert_matches_reference(build(cloud, t), cloud, 0.5, f"{name} block=1")


def test_two_tight_clusters_coverage():
    cloud = PointCloud(np.array([[0.0], [0.1], [10.0], [10.1]]))
    t = 20.0
    forest = build(cloud, t)
    wspd = gen_wspd(forest, cloud, 0.5)
    report = verify_wspd(cloud, forest, wspd, 0.5, t)
    assert report.ok
    # every cross point pair is covered by an emitted pair
    covered_cross = set()
    for u, v in wspd.pairs.tolist():
        pu = set(forest.points(u).tolist())
        pv = set(forest.points(v).tolist())
        for p in pu & {0, 1}:
            for q in pv & {2, 3}:
                covered_cross.add((p, q))
        for p in pv & {0, 1}:
            for q in pu & {2, 3}:
                covered_cross.add((p, q))
    assert covered_cross == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_single_point_empty():
    cloud = PointCloud(np.array([[0.0, 0.0]]))
    forest = build(cloud, 1.0)
    wspd = gen_wspd(forest, cloud, 0.5)
    assert wspd.pairs.shape == (0, 2)


def test_far_singletons_no_pairs():
    cloud = PointCloud(np.array([[0.0], [1000.0]]))
    t = 1.0
    forest = build(cloud, t)
    wspd = gen_wspd(forest, cloud, 0.5)
    assert wspd.pairs.shape == (0, 2)
    assert verify_wspd(cloud, forest, wspd, 0.5, t).ok  # coverage vacuous past t


def test_epsilon_validation():
    cloud = generate("uniform", n=10, d=2, seed=1)
    forest = build(cloud, 0.5)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            gen_wspd(forest, cloud, bad)


def test_random_clouds_zero_violations(corpora):
    for name, cloud, t in corpora[:4]:
        forest = build(cloud, t)
        for eps in (0.3, 0.7):
            wspd = gen_wspd(forest, cloud, eps)
            report = verify_wspd(cloud, forest, wspd, eps, t)
            assert report.ok, f"{name} eps={eps}"


def test_verifier_flags_fabricated_violations():
    cloud = generate("clustered", n=40, d=2, seed=3, clusters=3)
    t = quantile_scale(cloud, 0.3)
    forest = build(cloud, t)
    wspd = gen_wspd(forest, cloud, 0.5)
    # separation: two non-leaf nodes, each holding points a positive distance
    # apart, are far from separated at this epsilon
    fat = np.flatnonzero(~forest.is_leaf)[-2:]
    assert len(fat) == 2 and all(len(np.unique(cloud.points[forest.points(v)], axis=0)) > 1
                                 for v in fat)
    broken = Wspd(pairs=np.unique(np.vstack([wspd.pairs, fat]), axis=0), epsilon=1e-6, t=t)
    assert tuple(fat) in verify_wspd(cloud, forest, broken, 1e-6, t).separation_violations
    # coverage: delete one pair
    if len(wspd.pairs):
        pruned = Wspd(pairs=wspd.pairs[1:], epsilon=0.5, t=t)
        full = verify_wspd(cloud, forest, wspd, 0.5, t)
        broken = verify_wspd(cloud, forest, pruned, 0.5, t)
        assert len(broken.coverage_violations) >= len(full.coverage_violations)


REACH_CLOUDS = {
    "uniform": dict(d=3),
    "affine": dict(d=6, flat_dim=2),
    "clustered": dict(d=4, clusters=6),
    "curve": dict(d=3, spacing=0.04),
}


@pytest.mark.parametrize("kind", REACH_CLOUDS)
@pytest.mark.parametrize("scale", [0.5, 3, 30, 300])
def test_pairs_reach_within_t(kind, scale):
    # every emitted pair can hold a point pair within t, and pruning the
    # others loses no coverage
    cloud = generate(kind, n=200, seed=2, **REACH_CLOUDS[kind])
    t = scale * median_nn(cloud)
    forest = build(cloud, t)
    wspd = gen_wspd(forest, cloud, 0.5)
    u, v = wspd.pairs[:, 0], wspd.pairs[:, 1]
    dist = np.linalg.norm(cloud.points[forest.rep[u]] - cloud.points[forest.rep[v]], axis=1)
    assert np.all(dist - forest.cover[u] - forest.cover[v] <= t * (1 + 1e-9))
    report = verify_wspd(cloud, forest, wspd, 0.5, t)
    assert report.ok, (len(report.separation_violations), len(report.coverage_violations))


def test_pair_count_grows_subquadratically():
    # constant-density affine 2-flat in R^8 at a fixed scale of 30 median
    # NN distances: without the reach pruning the pairs grow like n^2
    ns = (500, 1000, 2000)
    clouds = [generate("affine", n=n, d=8, flat_dim=2, seed=5, extent=2 * np.sqrt(n / 1000))
              for n in ns]
    t = 30 * median_nn(clouds[1])
    counts = [len(gen_wspd(build(cloud, t), cloud, 0.5).pairs) for cloud in clouds]
    slope = float(np.polyfit(np.log(ns), np.log(counts), 1)[0])
    assert slope < 1.5, (slope, counts)


def test_pairs_below_root_level(corpora):
    _, cloud, t = corpora[1]
    forest = build(cloud, t)
    wspd = gen_wspd(forest, cloud, 0.5)
    for u, v in wspd.pairs.tolist():
        assert forest.level[u] <= forest.root_level
        assert forest.level[v] <= forest.root_level


def test_leaf_and_root_diameter_bounds():
    cloud = PointCloud(np.array([[0.0], [0.3], [9.0]]))
    forest = build(cloud, 1.0)
    for v in range(forest.n_nodes):
        if not forest.children_of(v):
            assert 2 * forest.cover[v] == 0.0
        elif forest.parent[v] < 0:
            assert 2 * forest.cover[v] == 2.0


def test_wspd_file_roundtrip(tmp_path, monkeypatch):
    cloud = generate("uniform", n=30, d=2, seed=5)
    t = quantile_scale(cloud, 0.3)
    forest = build(cloud, t)
    wspd = gen_wspd(forest, cloud, 0.5)
    path = tmp_path / "out.wspd"
    write_wspd(path, wspd)
    first = path.read_text()
    back = read_wspd(path)
    assert np.array_equal(back.pairs, wspd.pairs) and back.pairs.dtype == np.intp
    assert back.epsilon == wspd.epsilon and back.t == wspd.t
    write_wspd(tmp_path / "again.wspd", back)
    assert (tmp_path / "again.wspd").read_text() == first
    lines = ["wspd v1 epsilon=%.17g t=%.17g" % (wspd.epsilon, wspd.t)]
    lines += [f"pair {u} {v}" for u, v in wspd.pairs.tolist()]
    assert first == "\n".join(lines) + "\n"
    # chunk boundaries leave no trace in the file
    monkeypatch.setattr(wspd_mod, "_WRITE_CHUNK", 7)
    write_wspd(tmp_path / "chunked.wspd", wspd)
    assert (tmp_path / "chunked.wspd").read_text() == first


def test_verify_size_gate():
    cloud = generate("uniform", n=501, d=2, seed=1)
    with pytest.raises(ValueError):
        verify_wspd(cloud, None, Wspd(np.empty((0, 2), dtype=np.intp), 0.5, 1.0), 0.5, 1.0)


def test_read_rejects_descending_pair(tmp_path):
    path = tmp_path / "bad.wspd"
    path.write_text("wspd v1 epsilon=0.5 t=1\npair 1 2\npair 2 2\npair 4 3\n")
    with pytest.raises(ValueError, match="u <= v"):
        read_wspd(path)


@pytest.mark.parametrize(
    "line", ["pair 1", "pair 1 2 3", "pear 1 2", "pair 1 x", "pair 1.5 2"]
)
def test_read_rejects_malformed_line(tmp_path, line):
    path = tmp_path / "bad.wspd"
    path.write_text(f"wspd v1 epsilon=0.5 t=1\npair 0 1\n{line}\n")
    with pytest.raises(ValueError, match="unexpected line"):
        read_wspd(path)


@pytest.mark.parametrize(
    "header", ["wspd v1 t=1", "wspd v1 epsilon=0.5", "wspd v1 epsilon=x t=1", "wspd v1 epsilon t=1"]
)
def test_read_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.wspd"
    path.write_text(f"{header}\npair 0 1\n")
    with pytest.raises(ValueError, match="malformed header"):
        read_wspd(path)
