import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from scalenets import lsh
from scalenets.geometry import PointCloud, brute_near_neighbours, generate, pairwise_distances
from scalenets.lsh import (
    LshIndex,
    collision_probability,
    concat_length,
    derive_params,
    select_width,
    table_count,
)

from conftest import DEEP_CLOUDS, quantile_scale, structural_corpora


def reference_tables(index):
    """(gids, order, starts) from the per-table loop over (n, k) key rows.

    Lexsort ranks rows column 0 first and is stable, so each bucket lists
    its points in ascending order; keys narrow enough for one mixed-radix
    int64 code are sorted by that code.
    """
    points, params = index.points, index.params
    n = points.shape[0]
    gids = np.empty((params.l, n), dtype=np.intp)
    order_all = np.empty(params.l * n, dtype=np.intp)
    starts = []
    buckets = 0
    for i in range(params.l):
        keys = np.floor((points @ index._dirs[i].T + index._offs[i]) / params.w).astype(np.int64)
        keys -= keys.min(axis=0)
        span = keys.max(axis=0) + 1
        if np.prod(span, dtype=np.float64) < 2.0**62:
            keys = (keys @ np.append(np.cumprod(span[::-1])[::-1][1:], 1))[:, None]
        order = np.lexsort(keys.T[::-1])
        ranked = keys[order]
        first = np.ones(n, dtype=bool)
        first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
        gids[i, order] = np.cumsum(first) - 1 + buckets
        order_all[i * n : (i + 1) * n] = order
        starts.append(np.flatnonzero(first) + i * n)
        buckets += starts[-1].size
    return gids, order_all, np.concatenate([*starts, [params.l * n]])


def reference_near_pairs(index):
    """all_near_pairs through an n x n boolean adjacency over the buckets."""
    n = index.n
    adjacency = np.zeros(n * n, dtype=bool)
    for b in range(index._starts.size - 1):
        members = index._order[index._starts[b] : index._starts[b + 1]]
        adjacency[(members[:, None] * n + members[None, :]).ravel()] = True
    ii, jj = np.divmod(np.flatnonzero(adjacency), n)
    ii, jj = ii[ii < jj], jj[ii < jj]
    keep = np.linalg.norm(index.points[ii] - index.points[jj], axis=1) <= index.params.r1
    out = np.stack([ii[keep], jj[keep]], axis=1)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def assert_tables_match_reference(index):
    gids, order, starts = reference_tables(index)
    assert np.array_equal(index._gids, gids)
    assert np.array_equal(index._order, order)
    assert np.array_equal(index._starts, starts)


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


@pytest.mark.parametrize("far", [1.0, 1e3, 1e12, 1e15])
def test_buckets_group_keys_exactly(far):
    # one point out at `far` widens the k hash columns. At 1.0 every table's
    # key code fits in int64 beside the point index (one sort); at 1e3 some
    # tables fit, some fit the code but not code * 2^s (the index takes s
    # bits, 2^s >= n), and some not even the code (the last two are
    # re-ranked part way); at 1e12 every table is re-ranked; at 1e15 single
    # hashes are too wide for that, and whole keys are ranked first.
    # The unit cube still fills shared buckets.
    cloud = generate("uniform", n=80, d=3, seed=8)
    pts = np.vstack([cloud.points, cloud.points[:5], [[far, -far, far]]])
    n = pts.shape[0]
    width = 1 << (n - 1).bit_length()
    params = derive_params(n, 0.1, 0.5, 0.1)
    index = LshIndex(pts, params, seed=4)
    seen = set()
    for i in range(params.l):
        keys = np.floor((pts @ index._dirs[i].T + index._offs[i]) / params.w).astype(np.int64)
        span = [int(b) - int(a) + 1 for a, b in zip(keys.min(axis=0), keys.max(axis=0))]
        cells = math.prod(span)
        if max(span) * n * width >= 2**62:
            seen.add("whole keys")
        elif cells * width >= 2**62:
            seen.add("re-ranked, cells fit" if cells < 2**62 else "re-ranked")
        else:
            seen.add("one sort")
        _, want = np.unique(keys, axis=0, return_inverse=True)
        assert np.array_equal(index._gids[i] - index._gids[i].min(), want.ravel())
    assert seen == {
        1.0: {"one sort"},
        1e3: {"one sort", "re-ranked, cells fit", "re-ranked"},
        1e12: {"re-ranked"},
        1e15: {"whole keys"},
    }[far]
    assert_tables_match_reference(index)


def _table_cases():
    # (name, points, r): every structural corpus and deep cloud at its t,
    # far-off clouds, and degenerate ones
    cases = [(name, cloud.points, t) for name, cloud, t in structural_corpora() + DEEP_CLOUDS]
    cube = generate("uniform", n=100, d=3, seed=21)
    r = quantile_scale(cube, 0.1)
    cases += [("shift+1e9", cube.points + 1e9, r), ("shift-1e12", cube.points - 1e12, r)]
    cases += [
        ("duplicates", np.full((30, 4), 2.5), 1.0),
        ("d=1", generate("uniform", n=60, d=1, seed=5).points, 0.05),
        ("n=2", np.array([[0.0, 1.0], [0.3, 1.0]]), 0.5),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, pts, r", _table_cases())
def test_tables_equal_reference(name, pts, r):
    index = LshIndex(pts, derive_params(len(pts), r, 0.5, 0.1), seed=len(name))
    assert_tables_match_reference(index)


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


def _block_cases():
    # (name, points, r): clustered; a cluster of 12 copies, whose bucket
    # holds 66 pairs, more than a small block; all duplicates, where every
    # pair collides in every table
    blob = generate("clustered", n=70, d=3, seed=13, clusters=5)
    copies = np.vstack([blob.points[:40], np.repeat(blob.points[40:41], 12, axis=0)])
    cases = [
        ("clustered", blob.points, quantile_scale(blob, 0.1)),
        ("copies", copies, quantile_scale(blob, 0.05)),
        ("duplicates", np.full((15, 2), -3.0), 1.0),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("block", [1, 5, lsh._BLOCK])
@pytest.mark.parametrize("name, pts, r", _block_cases())
def test_all_near_pairs_blocks(name, pts, r, block, monkeypatch):
    monkeypatch.setattr(lsh, "_BLOCK", block)
    n = len(pts)
    index = LshIndex(pts, derive_params(n, r, 0.5, 0.1), seed=n)
    got = index.all_near_pairs()
    assert got.shape[1] == 2 and got.dtype == np.intp
    assert np.array_equal(got, reference_near_pairs(index))
    from_queries = [[q, int(j)] for q in range(n) for j in index(q) if q < j]
    assert got.tolist() == from_queries
    largest = int(np.diff(index._starts).max())
    if name == "copies":
        assert largest * (largest - 1) // 2 > 5
    if name == "duplicates":
        assert len(got) == n * (n - 1) // 2


def test_all_near_pairs_memory_is_not_quadratic():
    # 12k points spread far apart: an n x n boolean adjacency would take
    # 144 MB; the blocked merge needs a few block-sized arrays
    n = 12_000
    pts = generate("uniform", n=n, d=2, seed=3).points * 100.0
    index = LshIndex(pts, derive_params(n, 0.05, 0.2, 0.1), seed=1)
    tracemalloc.start()
    try:
        pairs = index.all_near_pairs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.shape[1] == 2
    assert peak < n * n / 16, peak
