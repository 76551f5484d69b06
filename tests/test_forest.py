import numpy as np
import pytest

from scalenets.forest import (
    COVER_COEF,
    PACK_COEF,
    REL_COEF,
    TAU,
    brute_force_rel,
    build_cluster_tree,
    build_forest,
    build_net,
    build_root_rel,
    check_forest,
    extract_net,
    read_forest,
    root_level,
    vcell,
    write_forest,
)
from scalenets.geometry import ExactNearNeighbours, PointCloud, generate, pairwise_distances

from conftest import quantile_scale


def test_root_level_examples():
    assert root_level(2.2) == 0
    assert root_level(24.2) == 1
    assert root_level(1.0) == -1


def test_root_level_error():
    with pytest.raises(ValueError):
        root_level(0.0)


def test_root_level_rel_radius_grid():
    for t in np.geomspace(1e-4, 1e4, 50):
        assert REL_COEF * float(TAU) ** root_level(float(t)) <= 7 * t * (1 + 1e-9)


def test_build_net_collinear_replay():
    # hand-simulated greedy run: scan ascending, reassign strictly closer
    pts = np.array([[float(i)] for i in range(11)])
    cloud = PointCloud(pts)
    nn = ExactNearNeighbours(pts, 3.0)
    netpoint, nets = build_net(cloud, 3.0, nn)
    assert nets == [0, 4, 8]
    expected = [0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8]
    assert netpoint.tolist() == expected


def test_build_net_single_cluster():
    cloud = generate("uniform", n=30, d=2, seed=1)
    diam = float(pairwise_distances(cloud).max())
    nn = ExactNearNeighbours(cloud.points, diam * 1.01)
    _, nets = build_net(cloud, diam * 1.01, nn)
    assert nets == [0]


def test_build_net_duplicates():
    pts = np.tile(np.array([[1.0, 2.0]]), (6, 1))
    cloud = PointCloud(pts)
    nn = ExactNearNeighbours(pts, 1.0)
    netpoint, nets = build_net(cloud, 1.0, nn)
    assert nets == [0]
    assert netpoint.tolist() == [0] * 6


def test_closest_assignment_postcondition():
    cloud = generate("uniform", n=120, d=2, seed=5)
    t = quantile_scale(cloud, 0.3)
    nn = ExactNearNeighbours(cloud.points, t)
    netpoint, nets = build_net(cloud, t, nn)
    net_pts = cloud.points[nets]
    for p in range(cloud.n):
        d = np.linalg.norm(net_pts - cloud.points[p], axis=1)
        assert np.linalg.norm(cloud.points[netpoint[p]] - cloud.points[p]) <= d.min() + 1e-12
        # assigned net point of a net point is itself
    for m in nets:
        assert netpoint[m] == m


def test_build_root_rel_threshold_boundary():
    # t=2.2 puts the root level at 0: rel radius exactly 14
    for gap, related in [(14.0, True), (14.1, False)]:
        pts = np.array([[0.0], [gap]])
        nn7 = ExactNearNeighbours(pts, 7 * 2.2)
        rel = build_root_rel(pts, 2.2, nn7)
        assert (1 in rel[0]) is related


def test_build_root_rel_singleton():
    pts = np.array([[3.0, 1.0]])
    rel = build_root_rel(pts, 1.0, ExactNearNeighbours(pts, 7.0))
    assert rel == [[0]]


def test_build_root_rel_far_clusters():
    pts = np.array([[0.0], [500.0]])
    t = 1.0
    rel = build_root_rel(pts, t, ExactNearNeighbours(pts, 7 * t))
    assert rel == [[0], [1]]


def test_cluster_tree_singleton():
    cloud = PointCloud(np.array([[1.0, 1.0]]))
    nodes = build_cluster_tree(cloud, np.array([0]), 0, 3)
    assert len(nodes) == 1 and nodes[0].is_leaf and nodes[0].level == 3


def test_cluster_tree_two_points():
    cloud = PointCloud(np.array([[0.0], [0.5]]))
    nodes = build_cluster_tree(cloud, np.array([0, 1]), 0, 0)
    root = nodes[0]
    assert root.level == 0 and root.points.tolist() == [0, 1]
    leaves = [v for v in nodes if v.is_leaf]
    assert sorted(leaf.points[0] for leaf in leaves) == [0, 1]
    for v in nodes:
        if v.parent is not None:
            assert v.level < nodes[v.parent].level


def test_cluster_tree_invariants_hundred_points(corpora):
    _, cloud, t = corpora[0]
    forest = build_forest(cloud, t, nn="exact")
    assert check_forest(forest, cloud) == []


def test_forest_invariants_all_corpora(corpora):
    for name, cloud, t in corpora:
        forest = build_forest(cloud, t, nn="exact")
        bad = check_forest(forest, cloud)
        assert bad == [], f"{name}: {bad[:3]}"


def test_rel_equals_bruteforce(corpora):
    builds = [(name, cloud, t, "exact") for name, cloud, t in corpora]
    builds += [
        ("duplicates", PointCloud(np.vstack([np.zeros((3, 2)), [[4.0, 0.0]]])), 1.0, "exact"),
        ("single", PointCloud(np.array([[0.3, -1.2]])), 1.0, "exact"),
    ]
    lsh_cloud = generate("clustered", n=100, d=3, seed=21, clusters=5)
    builds.append(("clustered-lsh", lsh_cloud, quantile_scale(lsh_cloud, 0.2), "lsh"))
    for name, cloud, t, nn in builds:
        forest = build_forest(cloud, t, seed=2, nn=nn)
        for v in forest.nodes:
            assert v.rel == brute_force_rel(forest, cloud, v.id), f"{name} node {v.id}"


def test_roots_within_7t_built_and_loaded_agree(tmp_path, corpora):
    # 1-d root pairs exactly at 7t and one ulp beyond it
    for gap, kept in [(7.0, True), (np.nextafter(7.0, 8.0), False)]:
        cloud = PointCloud(np.array([[0.0], [gap]]))
        forest = build_forest(cloud, 1.0, nn="exact")
        assert len(forest.roots) == 2
        a, b = forest.roots
        want = {a: [a, b], b: [a, b]} if kept else {a: [a], b: [b]}
        assert forest.roots_within_7t(cloud) == want
    for name, cloud, t in corpora:
        forest = build_forest(cloud, t, nn="exact")
        write_forest(tmp_path / "forest.txt", forest, cloud.dim)
        back = read_forest(tmp_path / "forest.txt")
        assert back.roots_within_7t(cloud) == forest.roots_within_7t(cloud), name


def test_rel_symmetric_for_roots(corpora):
    _, cloud, t = corpora[1]
    forest = build_forest(cloud, t, nn="exact")
    for r in forest.roots:
        for s in forest.nodes[r].rel:
            assert r in forest.nodes[s].rel


def test_isolated_cluster_rel_stays_home():
    rng = np.random.default_rng(3)
    near_blob = rng.uniform(0, 1, size=(20, 2))
    far_blob = rng.uniform(0, 1, size=(20, 2)) + 500.0
    cloud = PointCloud(np.vstack([near_blob, far_blob]))
    t = 0.4
    forest = build_forest(cloud, t, nn="exact")
    far_roots = {r for r in forest.roots if forest.nodes[r].rep >= 20}
    for v in forest.nodes:
        in_far = forest.root_of(v.id) in far_roots
        for w in v.rel:
            assert (forest.root_of(w) in far_roots) == in_far


def test_extract_net_boundaries(corpora):
    _, cloud, t = corpora[0]
    forest = build_forest(cloud, t, nn="exact")
    top = extract_net(forest, forest.root_level)
    assert sorted(top) == sorted(forest.nodes[r].rep for r in forest.roots)
    below = min(v.level for v in forest.nodes) - 1
    assert len(extract_net(forest, below)) == cloud.n
    with pytest.raises(ValueError):
        extract_net(forest, forest.root_level + 1)


def test_extract_net_mid_level_bounds(corpora):
    for name, cloud, t in corpora[:2]:
        forest = build_forest(cloud, t, nn="exact")
        levels = sorted({v.level for v in forest.nodes})
        if len(levels) < 3:
            continue
        mid = levels[len(levels) // 2]
        reps = extract_net(forest, mid)
        cover = COVER_COEF * float(TAU) ** mid
        rep_pts = cloud.points[reps]
        for p in range(cloud.n):
            d = np.linalg.norm(rep_pts - cloud.points[p], axis=1)
            assert d.min() <= cover * (1 + 1e-9), f"{name}: point {p} uncovered at {mid}"
        # separation within each tree
        sep = PACK_COEF * float(TAU) ** mid
        by_tree: dict[int, list[int]] = {}
        rep_to_node = {}
        for v in forest.nodes:
            low_ok = v.is_leaf or v.level <= mid
            high_ok = v.is_root or mid < forest.nodes[v.parent].level
            if low_ok and high_ok:
                by_tree.setdefault(forest.root_of(v.id), []).append(v.rep)
        for tree_reps in by_tree.values():
            sub = cloud.points[tree_reps]
            if len(tree_reps) < 2:
                continue
            diff = sub[:, None, :] - sub[None, :, :]
            dmat = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            np.fill_diagonal(dmat, np.inf)
            assert dmat.min() >= sep * (1 - 1e-9), name


def test_vcell_is_level_interval_cell(corpora):
    _, cloud, t = corpora[1]
    forest = build_forest(cloud, t, nn="exact")
    for h in range(forest.root_level - 3, forest.root_level):
        for p in range(0, cloud.n, 7):
            node = forest.nodes[vcell(forest, p, h)]
            assert p in set(node.points.tolist())
            assert np.linalg.norm(cloud.points[p] - cloud.points[node.rep]) <= COVER_COEF * float(
                TAU
            ) ** h * (1 + 1e-9)
            if not node.is_leaf:
                assert node.level < h
            if node.parent is not None:
                assert h <= forest.nodes[node.parent].level
    with pytest.raises(ValueError):
        vcell(forest, 0, forest.root_level)


def test_forest_roundtrip(tmp_path, corpora):
    _, cloud, t = corpora[2]
    forest = build_forest(cloud, t, nn="exact")
    path = tmp_path / "forest.txt"
    write_forest(path, forest, cloud.dim)
    first = path.read_text()
    back = read_forest(path)
    write_forest(tmp_path / "again.txt", back, cloud.dim)
    assert (tmp_path / "again.txt").read_text() == first
    assert back.root_level == forest.root_level and back.t == forest.t
    for a, b in zip(forest.nodes, back.nodes):
        assert (a.id, a.rep, a.level, a.parent, a.children, a.rel) == (
            b.id,
            b.rep,
            b.level,
            b.parent,
            b.children,
            b.rel,
        )
        assert np.array_equal(a.points, b.points)


def test_forest_with_lsh_primitive_matches_exact_when_lucky():
    # LSH is probabilistic; with these sizes a correct build is overwhelmingly
    # likely, and structure must then pass the same checks
    cloud = generate("clustered", n=100, d=3, seed=21, clusters=5)
    t = quantile_scale(cloud, 0.2)
    forest = build_forest(cloud, t, seed=2, nn="lsh")
    assert check_forest(forest, cloud) == []


def test_duplicate_points_tree_terminates():
    pts = np.vstack([np.zeros((3, 2)), np.array([[4.0, 0.0]])])
    cloud = PointCloud(pts)
    forest = build_forest(cloud, 1.0, nn="exact")
    leaves = [v for v in forest.nodes if v.is_leaf]
    assert len(leaves) == 4
    assert sum(forest.nodes[r].points.size for r in forest.roots) == 4
