import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalenets.forest import (
    COVER_COEF,
    PACK_COEF,
    REL_COEF,
    TAU,
    NetForest,
    brute_force_rel,
    build_cluster_tree,
    build_forest,
    build_net,
    build_root_rel,
    check_forest,
    descend_to_level,
    extract_net,
    read_forest,
    root_level,
    vcell,
    write_forest,
)
from scalenets.geometry import ExactNearNeighbours, PointCloud, generate, pairwise_distances
from scalenets.lsh import LshIndex, derive_params

from conftest import DEEP_CLOUDS, quantile_scale, root_of
from forest_reference import reference_forest


def test_root_level_examples():
    assert root_level(2.2) == 0
    assert root_level(24.2) == 1
    assert root_level(1.0) == -1


def test_root_level_error():
    # 5e-324 is positive, but (10/22) t rounds to 0
    for t in (0.0, -1.0, math.inf, math.nan, 5e-324):
        with pytest.raises(ValueError):
            root_level(t)


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


def fragment_forest(parent, level, rep):
    """A cluster-tree fragment as a forest without rel lists, at a t whose
    root level is its root's."""
    t = 3.0 * float(TAU) ** int(level[0])
    return NetForest(parent, level, rep, np.zeros(parent.size + 1), [], t)


def test_cluster_tree_singleton():
    cloud = PointCloud(np.array([[1.0, 1.0]]))
    parent, level, rep = build_cluster_tree(cloud, np.array([0]), 3)
    assert parent.tolist() == [-1] and rep.tolist() == [0] and level.tolist() == [3]


def test_cluster_tree_two_points():
    cloud = PointCloud(np.array([[0.0], [0.5]]))
    parent, level, rep = build_cluster_tree(cloud, np.array([0, 0]), 0)
    fragment = fragment_forest(parent, level, rep)
    assert parent[0] == -1 and level[0] == 0 and fragment.points(0).tolist() == [0, 1]
    leaves = np.setdiff1d(np.arange(parent.size), parent)
    assert sorted(rep[leaves].tolist()) == [0, 1]
    assert np.all(level[1:] < level[parent[1:]])


def test_cluster_tree_rejects_bad_representatives():
    cloud = PointCloud(np.array([[0.0], [0.0], [3.0]]))
    with pytest.raises(ValueError, match="maps to itself"):
        build_cluster_tree(cloud, np.array([0, 0, 1]), 0)
    with pytest.raises(ValueError, match="lowest index of its duplicates"):
        build_cluster_tree(cloud, np.array([1, 1, 2]), 0)


def line(*xs):
    return PointCloud(np.array(xs, dtype=float)[:, None])


LATTICE = np.array([[x, y] for x in range(12) for y in range(12)], dtype=float)
SCALED = generate("uniform", n=80, d=3, seed=4).points

# (name, cloud, t) with ties, duplicates and extreme magnitudes
REFERENCE_EXTRAS = [
    # cluster {0, 0.001}: its root has one child, and keeps the root level
    ("one-child-root", line(0.0, 0.001, 5.0), 1.0),
    # -0.0 and 0.0 are one site
    ("duplicates", PointCloud(np.array(
        [[0.0, 0.0], [-0.0, 0.0], [4.0, 0.0], [0.0, -0.0], [4.0, 0.0], [0.3, 0.1]])), 1.0),
    ("lattice", PointCloud(LATTICE), 30.0),
    ("lattice-eleventh", PointCloud(LATTICE / 11.0), 3.0),
    ("even-line", PointCloud(np.arange(40.0)[:, None] / 11.0), 2.5),
    ("single", PointCloud(np.array([[0.5, 0.5]])), 1.0),
    ("tiny", PointCloud(SCALED * 1e-150), 2e-150),
    ("huge", PointCloud(SCALED * 1e150), 2e150),
]


def assert_matches_reference(name, cloud, t):
    forest, want = build_forest(cloud, t, nn="exact"), reference_forest(cloud, t)
    for attr in ("parent", "level", "rep", "rel_ptr", "rel_ids"):
        assert np.array_equal(getattr(forest, attr), getattr(want, attr)), (name, attr)


def test_forest_matches_per_cluster_reference(corpora):
    for name, cloud, t in corpora + DEEP_CLOUDS + REFERENCE_EXTRAS:
        assert_matches_reference(name, cloud, t)


def test_reference_extras_shapes():
    forest = build_forest(REFERENCE_EXTRAS[0][1], 1.0, nn="exact")
    root = int(forest.roots[0])
    assert forest.level[root] == forest.root_level and forest.children_of(root) == [root + 1]
    forest = build_forest(REFERENCE_EXTRAS[1][1], 1.0, nn="exact")
    assert len({int(forest.parent[forest.leaf_of[p]]) for p in (0, 1, 3)}) == 1


# small integer clouds in 1-3 dimensions, where duplicates are common; a
# flipped sign turns 0.0 into -0.0
lattice_clouds = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.tuples(st.lists(st.integers(-3, 3), min_size=d, max_size=d), st.booleans()),
        min_size=1,
        max_size=30,
    )
)


def lattice_points(rows, scale=1.0):
    pts = np.array([coords for coords, _ in rows], dtype=float) * scale
    flip = np.array([flipped for _, flipped in rows])
    pts[flip] = -pts[flip]
    return pts


@settings(max_examples=60, deadline=None)
@given(lattice_clouds, st.sampled_from([0.5, 1.0, 2.5, 6.0]), st.sampled_from(["exact", "lsh"]),
       st.integers(0, 2**16))
def test_duplicates_share_their_lowest_index_net_point(rows, t, nn, seed):
    pts = lattice_points(rows)
    cloud = PointCloud(pts)
    if nn == "exact" or cloud.n < 2:
        index = ExactNearNeighbours(pts, t)
    else:
        index = LshIndex(pts, derive_params(cloud.n, t), seed)
    netpoint, nets = build_net(cloud, t, index)
    _, lowest, group = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    lowest = lowest[group.ravel()]
    assert np.array_equal(netpoint, netpoint[lowest])
    assert np.array_equal(lowest[nets], nets)


@settings(max_examples=40, deadline=None)
@given(lattice_clouds, st.sampled_from([0.3, 1.0, 2.2, 7.5]), st.sampled_from([1e-150, 0.1, 1e150]))
def test_forest_matches_reference_on_lattice_clouds(rows, t, scale):
    assert_matches_reference("lattice cloud", PointCloud(lattice_points(rows, scale)), t * scale)


def test_cluster_tree_invariants_hundred_points(corpora):
    _, cloud, t = corpora[0]
    forest = build_forest(cloud, t, nn="exact")
    assert check_forest(forest, cloud) == []


def test_forest_invariants_all_corpora(corpora):
    for name, cloud, t in corpora:
        forest = build_forest(cloud, t, nn="exact")
        bad = check_forest(forest, cloud)
        assert bad == [], f"{name}: {bad[:3]}"


def test_forest_invariants_deep_clouds():
    for name, cloud, t in DEEP_CLOUDS:
        bad = check_forest(build_forest(cloud, t, nn="exact"), cloud)
        assert bad == [], f"{name}: {bad[:3]}"


def bare_forest(parent, level, rep):
    """A forest from node arrays with roots at level -1, so t = 1, and empty rel lists."""
    return NetForest(parent, level, rep, np.zeros(len(parent) + 1), [], 1.0)


def test_check_forest_flags_each_violation():
    line = lambda *xs: PointCloud(np.array(xs)[:, None])
    # root 0 over node 1 (leaves 2, 3) and leaf 4; valid on the points 0, 0.001, 0.5
    parent, level, rep = [-1, 0, 1, 1, 0], [-1, -2, -3, -3, -2], [0, 0, 0, 1, 2]
    cloud = line(0.0, 0.001, 0.5)
    assert check_forest(bare_forest(parent, level, rep), cloud) == []
    cases = [
        (bare_forest(parent, [-1, -2, -3, -3, -1], rep), cloud,
         ["node 4: level not below parent"]),
        (bare_forest(parent, level, [1, 0, 0, 1, 2]), cloud,
         ["node 0: rep not inherited from a child"]),
        (bare_forest(parent, [-1, -4, -5, -5, -2], rep), cloud,
         ["node 1: covering radius exceeded"]),
        (bare_forest(parent, level, rep), line(0.0, 0.001, 0.002),
         ["node 1: packing misses points [2]", "node 4: packing misses points [0, 1]"]),
        (bare_forest(parent, level, rep), line(0.0, 0.001, 0.5, 0.3),
         ["root point sets do not partition the cloud"]),
        (bare_forest(parent, level, rep), line(0.0, 0.001, 5.0),
         ["point 2 not covered by any root within t", "node 0: covering radius exceeded"]),
        (bare_forest([-1, -1], [-1, -1], [0, 1]), line(0.0, 0.5),
         ["roots 0,1 closer than t"]),
        (bare_forest([-1, 0, 1, 2, 2], [-1, -2, -3, -4, -4], [0, 0, 0, 0, 1]), line(0.0, 0.001),
         ["node 1: internal node with fewer than 2 children"]),
        (bare_forest([-1, 0, 1, 0], [-1, -2, -3, -2], [0, 0, 0, 1]), line(0.0, 0.5),
         ["node 1: leaf with children"]),
    ]
    for forest, points, want in cases:
        assert check_forest(forest, points) == want


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
        for v in range(forest.n_nodes):
            assert forest.rel_of(v) == brute_force_rel(forest, cloud, v), f"{name} node {v}"


def test_root_rel_size_flat_at_constant_density():
    # the domain grows with n at a fixed t, so the local geometry a root's
    # rel list sees is the same at every size
    sizes = {}
    t = None
    for n in (500, 1000, 2000):
        cloud = generate("affine", n=n, d=6, flat_dim=2, seed=42, extent=math.sqrt(n / 500))
        if t is None:
            t = quantile_scale(cloud, 0.05)
        forest = build_forest(cloud, t, nn="exact")
        sizes[n] = int(np.diff(forest.rel_ptr)[forest.roots].max())
    assert sizes[2000] <= 3 * max(sizes[500], 1), sizes


def test_roots_within_7t_built_and_loaded_agree(tmp_path, corpora):
    # 1-d root pairs exactly at 7t and one ulp beyond it
    for gap, kept in [(7.0, True), (np.nextafter(7.0, 8.0), False)]:
        cloud = PointCloud(np.array([[0.0], [gap]]))
        forest = build_forest(cloud, 1.0, nn="exact")
        assert len(forest.roots) == 2
        a, b = forest.roots.tolist()
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
    for r in forest.roots.tolist():
        for s in forest.rel_of(r):
            assert r in forest.rel_of(s)


def test_isolated_cluster_rel_stays_home():
    rng = np.random.default_rng(3)
    near_blob = rng.uniform(0, 1, size=(20, 2))
    far_blob = rng.uniform(0, 1, size=(20, 2)) + 500.0
    cloud = PointCloud(np.vstack([near_blob, far_blob]))
    t = 0.4
    forest = build_forest(cloud, t, nn="exact")
    far_roots = {r for r in forest.roots.tolist() if forest.rep[r] >= 20}
    for v in range(forest.n_nodes):
        in_far = root_of(forest, v) in far_roots
        for w in forest.rel_of(v):
            assert (root_of(forest, w) in far_roots) == in_far


def test_extract_net_boundaries(corpora):
    _, cloud, t = corpora[0]
    forest = build_forest(cloud, t, nn="exact")
    top = extract_net(forest, forest.root_level)
    assert sorted(top) == sorted(forest.rep[forest.roots].tolist())
    below = int(forest.level.min()) - 1
    assert len(extract_net(forest, below)) == cloud.n
    with pytest.raises(ValueError):
        extract_net(forest, forest.root_level + 1)


def test_extract_net_mid_level_bounds(corpora):
    # the structural corpora give root-and-leaf trees, which have no middle
    # level; DEEP_CLOUDS have 3 to 5 levels
    checked = 0
    for name, cloud, t in corpora[:2] + DEEP_CLOUDS:
        forest = build_forest(cloud, t, nn="exact")
        levels = sorted(set(forest.level.tolist()))
        if len(levels) < 3:
            continue
        checked += 1
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
        for v in range(forest.n_nodes):
            parent = forest.parent[v]
            low_ok = not forest.children_of(v) or forest.level[v] <= mid
            high_ok = parent < 0 or mid < forest.level[parent]
            if low_ok and high_ok:
                by_tree.setdefault(root_of(forest, v), []).append(forest.rep[v])
        for tree_reps in by_tree.values():
            sub = cloud.points[tree_reps]
            if len(tree_reps) < 2:
                continue
            diff = sub[:, None, :] - sub[None, :, :]
            dmat = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            np.fill_diagonal(dmat, np.inf)
            assert dmat.min() >= sep * (1 - 1e-9), name
    assert checked > 0


def test_vcell_is_level_interval_cell(corpora):
    # the structural corpora give root-and-leaf trees; DEEP_CLOUDS have
    # internal nodes below their roots
    for _, cloud, t in corpora + DEEP_CLOUDS:
        check_vcell(build_forest(cloud, t, nn="exact"), cloud)


def check_vcell(forest, cloud):
    # the levels of internal nodes put h on the boundary of their children's intervals
    stored = forest.level[forest.level < forest.root_level].tolist()
    for h in sorted(set(range(forest.root_level - 3, forest.root_level)) | set(stored)):
        for p in range(0, cloud.n, 7):
            node = vcell(forest, p, h)
            assert p in set(forest.points(node).tolist())
            rep_pt = cloud.points[forest.rep[node]]
            assert np.linalg.norm(cloud.points[p] - rep_pt) <= COVER_COEF * float(
                TAU
            ) ** h * (1 + 1e-9)
            if forest.children_of(node):
                assert forest.level[node] < h
            if forest.parent[node] >= 0:
                assert h <= forest.level[forest.parent[node]]
    with pytest.raises(ValueError):
        vcell(forest, 0, forest.root_level)


def walk_cells(forest, node, level):
    """The tree walk the level queries replaced: stop at leaves and at levels <= `level`."""
    out, stack = [], [node]
    while stack:
        v = stack.pop()
        children = forest.children_of(v)
        if not children or forest.level[v] <= level:
            out.append(v)
        else:
            stack.extend(reversed(children))
    return out


def test_level_queries_match_tree_walks(corpora):
    for name, cloud, t in corpora[:1] + DEEP_CLOUDS:
        forest = build_forest(cloud, t, nn="exact")
        for level in range(int(forest.level.min()) - 1, forest.root_level + 1):
            want = [v for r in forest.roots.tolist() for v in walk_cells(forest, r, level)]
            assert forest.cells(level).tolist() == want, (name, level)
            assert extract_net(forest, level) == sorted({int(forest.rep[v]) for v in want})
            for v in range(forest.n_nodes):
                parent = forest.parent[v]
                if parent < 0 or level < forest.level[parent]:
                    assert descend_to_level(forest, v, level) == walk_cells(forest, v, level)


FOREST_ARRAYS = (
    "parent", "level", "rep", "rel_ptr", "rel_ids", "roots", "child_ptr", "child_ids",
    "size", "is_leaf", "leaf_of", "low", "high", "cover",
)


def test_forest_roundtrip(tmp_path, corpora):
    _, cloud, t = corpora[2]
    forest = build_forest(cloud, t, nn="exact")
    path = tmp_path / "forest.txt"
    write_forest(path, forest, cloud.dim)
    first = path.read_text()
    back = read_forest(path)
    write_forest(tmp_path / "again.txt", back, cloud.dim)
    assert (tmp_path / "again.txt").read_text() == first
    assert back.root_level == forest.root_level and back.t == forest.t and back.n == forest.n
    for name in FOREST_ARRAYS:
        assert np.array_equal(getattr(back, name), getattr(forest, name)), name
    for v in range(forest.n_nodes):
        assert np.array_equal(back.points(v), forest.points(v))


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
    leaves = np.setdiff1d(np.arange(forest.n_nodes), forest.parent)
    assert len(leaves) == 4
    assert sum(forest.points(r).size for r in forest.roots) == 4


# a valid three-point forest: root 0 over the subtrees {1, 2, 3} and {4}
FOREST_HEADER = "netforest v1 n=3 dim=1 t=1 tau=11 root_level=-1"
FOREST_NODES = [
    "node 0 parent=- level=-1 rep=0 children=1,4 rel=0",
    "node 1 parent=0 level=-2 rep=0 children=2,3 rel=1,4",
    "node 2 parent=1 level=-3 rep=0 children= rel=2",
    "node 3 parent=1 level=-3 rep=1 children= rel=3",
    "node 4 parent=0 level=-2 rep=2 children= rel=1,4",
]


def write_nodes(tmp_path, changes=(), header=FOREST_HEADER):
    """The valid forest file with some node lines replaced."""
    nodes = list(FOREST_NODES)
    for i, line in changes:
        nodes[i] = line
    path = tmp_path / "forest.txt"
    path.write_text("\n".join([header, *nodes]) + "\n")
    return path


def test_read_accepts_hand_written_forest(tmp_path):
    forest = read_forest(write_nodes(tmp_path))
    assert forest.n == 3 and forest.roots.tolist() == [0]
    assert forest.size.tolist() == [5, 3, 1, 1, 1]
    assert forest.points(1).tolist() == [0, 1] and forest.leaf_of.tolist() == [2, 3, 4]


def test_read_rejects_repeated_leaf_rep(tmp_path):
    path = write_nodes(tmp_path, [(2, "node 2 parent=1 level=-3 rep=1 children= rel=2")])
    with pytest.raises(ValueError, match="leaf reps"):
        read_forest(path)


def test_read_rejects_leaf_count_not_header_n(tmp_path):
    path = write_nodes(tmp_path, header=FOREST_HEADER.replace("n=3", "n=4"))
    with pytest.raises(ValueError, match="header says n=4"):
        read_forest(path)


def test_read_rejects_parent_disagreeing_with_children(tmp_path):
    # node 4 moves under node 1 by its parent field alone
    path = write_nodes(tmp_path, [(4, "node 4 parent=1 level=-2 rep=2 children= rel=1,4")])
    with pytest.raises(ValueError, match="children lists disagree"):
        read_forest(path)


def test_read_rejects_out_of_range_rel(tmp_path):
    path = write_nodes(tmp_path, [(2, "node 2 parent=1 level=-3 rep=0 children= rel=2,7")])
    with pytest.raises(ValueError, match="rel id out of range"):
        read_forest(path)


def test_read_rejects_out_of_range_rep(tmp_path):
    path = write_nodes(tmp_path, [(1, "node 1 parent=0 level=-2 rep=5 children=2,3 rel=1,4")])
    with pytest.raises(ValueError, match="rep out of range"):
        read_forest(path)


def test_read_rejects_out_of_range_child(tmp_path):
    path = write_nodes(tmp_path, [(1, "node 1 parent=0 level=-2 rep=0 children=2,9 rel=1,4")])
    with pytest.raises(ValueError, match="children lists disagree"):
        read_forest(path)


def test_read_rejects_ids_not_preorder(tmp_path):
    # parents precede their children, but node 1's subtree {1, 4} is not an id range
    path = write_nodes(tmp_path, [
        (0, "node 0 parent=- level=-1 rep=0 children=1,2 rel=0"),
        (1, "node 1 parent=0 level=-2 rep=0 children=4 rel=1"),
        (2, "node 2 parent=0 level=-2 rep=1 children=3 rel=2"),
        (3, "node 3 parent=2 level=-3 rep=1 children= rel=3"),
        (4, "node 4 parent=1 level=-3 rep=0 children= rel=4"),
    ], header=FOREST_HEADER.replace("n=3", "n=2"))
    with pytest.raises(ValueError, match="not a preorder"):
        read_forest(path)


@pytest.mark.parametrize("changes, header, match", [
    ([], FOREST_HEADER.replace("root_level=-1", "root_level=7"), "header root_level=7"),
    ([(0, "node 0 parent=- level=0 rep=0 children=1,4 rel=0")], FOREST_HEADER, "a root is not"),
    ([], FOREST_HEADER.replace("t=1", "t=inf"), "positive and finite"),
    ([], FOREST_HEADER.replace("t=1", "t=0"), "positive and finite"),
])
def test_read_rejects_root_level_not_of_t(tmp_path, changes, header, match):
    with pytest.raises(ValueError, match=match):
        read_forest(write_nodes(tmp_path, changes, header))


@pytest.mark.parametrize("changes, match", [
    ([(1, FOREST_NODES[2]), (2, FOREST_NODES[1])], "not in id order"),
    # keys reordered, or one key too many
    ([(2, "node 2 level=-3 parent=1 rep=0 children= rel=2")], "unexpected line"),
    ([(2, "node 2 parent=1 level=-3 rep=0 children= rel=2 extra=1")], "unexpected line"),
    # signed, negative and non-ASCII ids, and an empty rel entry
    ([(2, "node 2 parent=+1 level=-3 rep=0 children= rel=2")], "unexpected line"),
    ([(2, "node 2 parent=1 level=-3 rep=0 children= rel=-2")], "unexpected line"),
    ([(2, "node 2 parent=1 level=-3 rep=\u0660 children= rel=2")], "unexpected line"),
    ([(2, "node 2 parent=1 level=-3 rep=0 children= rel=2,")], "unexpected line"),
])
def test_read_rejects_lines_outside_the_writer_grammar(tmp_path, changes, match):
    with pytest.raises(ValueError, match=match):
        read_forest(write_nodes(tmp_path, changes))


def test_read_rejects_parent_after_child(tmp_path):
    path = write_nodes(tmp_path, [
        (1, "node 1 parent=4 level=-2 rep=0 children=2,3 rel=1,4"),
        (4, "node 4 parent=0 level=-2 rep=2 children=1 rel=1,4"),
    ])
    with pytest.raises(ValueError, match="parent id must be below"):
        read_forest(path)
