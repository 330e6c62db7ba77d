"""The selecting kernels equal their brute-force references, bit for bit.

kNN and ball query answer on the one-GEMM distance matrix.  A 3-D call
large enough to pay for it takes its candidates from a cell index and
decides from their direct distances wherever the GEMM error bound settles
the decision; every other row is selected from row blocks of the matrix.
FPS updates its distances from coordinate columns.  Each keeps a
brute-force reference (full-row lexsort, ``einsum`` loop).  These
properties pin the two together on the inputs where a selection can go
wrong: duplicate points, lattices full of equidistant neighbours, ties at
exactly the k-th distance, a radius exactly at a lattice distance, rows
with more than k pairs in radius, rows with nothing in radius, fewer
references than k, and clouds spanning several row blocks (forced small
by shrinking the block budget).

The small clouds here fall below the kernels' cell-path crossover, so
the suites run on the row blocks as they are and on the cell index with
the crossover forced off (``cell_path``).  The cell path's own cases:
references exactly at the radius, clouds far from the origin (where the
error bound is widest), grids that do not pack, rows whose k-th pick lies
beyond the first block, each kind of fallback, and a jittered lattice
that needs no GEMM at all.  The bound itself is checked on its own: it is
the check that fails on a numpy or BLAS build that rounds outside it.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.mapping import (
    ball_query_bruteforce,
    ball_query_indices,
    farthest_point_sampling,
    fps_bruteforce,
    knn_bruteforce,
    knn_indices,
)
from repro.mapping import ball_query as ball_query_module
from repro.mapping import knn as knn_module
from repro.mapping.fps import coordinate_columns, squared_distances_to
from repro.pointcloud import coords


@contextmanager
def block_bytes(n):
    """Finish the distance matrix in blocks of ``n`` bytes (None: default)."""
    saved = coords._BLOCK_BYTES
    if n is not None:
        coords._BLOCK_BYTES = n
    try:
        yield
    finally:
        coords._BLOCK_BYTES = saved


@st.composite
def clouds(draw, max_points=40):
    """Float clouds of three kinds: integer lattices (exact ties), lattices
    scaled by 0.1 (ties up to rounding), and duplicates of a few points."""
    n = draw(st.integers(1, max_points))
    kind = draw(st.sampled_from(["lattice", "lattice/10", "duplicates"]))
    if kind == "duplicates":
        base = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), 3),
                               elements=st.integers(-5, 5).map(float)))
        picks = draw(hnp.arrays(np.int64, n,
                                elements=st.integers(0, len(base) - 1)))
        return base[picks]
    lattice = draw(hnp.arrays(np.int64, (n, 3), elements=st.integers(-3, 3)))
    return lattice * (0.1 if kind == "lattice/10" else 1.0)


# One row per block, a few rows, and the default ~2 MB budget.
BLOCKS = st.sampled_from([8, 200, None])


@given(queries=clouds(), references=clouds(), k=st.integers(1, 45),
       block=BLOCKS)
@settings(max_examples=300, deadline=None)
def test_knn_equals_bruteforce(queries, references, k, block):
    with block_bytes(block):
        idx = knn_indices(queries, references, k)
    dist = coords.squared_distances_at(queries, references, idx)
    ref_idx, ref_dist = knn_bruteforce(queries, references, k)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)


@given(queries=clouds(), references=clouds(), k=st.integers(1, 45),
       radius=st.sampled_from([0.05, 0.1, 0.3, 1.0, 2 ** 0.5, 3 ** 0.5,
                               2.0, 3.0, 100.0]),
       block=BLOCKS)
@settings(max_examples=300, deadline=None)
def test_ball_query_equals_bruteforce(queries, references, k, radius, block):
    with block_bytes(block):
        got = ball_query_indices(queries, references, radius, k)
    assert np.array_equal(got, ball_query_bruteforce(queries, references,
                                                     radius, k))


@given(queries=clouds(max_points=12), references=clouds(max_points=80),
       k=st.integers(1, 8),
       radius=st.sampled_from([1.0, 2 ** 0.5, 2.0, 3.0, 100.0]),
       block=BLOCKS)
@settings(max_examples=300, deadline=None)
def test_ball_query_dense_rows_equal_bruteforce(queries, references, k,
                                                radius, block):
    """Rows with more than k pairs in radius are cut at their k-th
    smallest distance before the sort, ties at that distance kept; on
    lattices the k-th distance is tied more often than not."""
    sq = coords.pairwise_squared_distance(queries, references)
    assume(((sq <= radius * radius).sum(axis=1) > k).any())
    with block_bytes(block):
        got = ball_query_indices(queries, references, radius, k)
    assert np.array_equal(got, ball_query_bruteforce(queries, references,
                                                     radius, k))


@pytest.mark.parametrize("k", [1, 2, 4, 6, 8])
def test_ball_query_keeps_every_tie_at_the_kth_distance(k):
    """One reference at distance 0.5 and six at exactly 1 in radius 1.5,
    two more outside it: for k = 2, 4 and 6 the row holds more than k
    pairs and its k-th distance is tied, and the lowest-index ties win."""
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    references = np.concatenate([
        [[1.2, 1.2, 0.0], [0.0, 0.0, 0.5]], axes[::-1], [[1.2, 0.0, 1.2]],
    ])
    query = np.zeros((1, 3))
    got = ball_query_indices(query, references, 1.5, k)
    expect = [1, 2, 3, 4, 5, 6, 7][:k]
    expect += [1] * (k - len(expect))  # only 7 in radius: pad with nearest
    assert got.tolist() == [expect]
    assert np.array_equal(got, ball_query_bruteforce(query, references,
                                                     1.5, k))


@given(references=clouds(), k=st.integers(1, 10), block=BLOCKS)
@settings(max_examples=100, deadline=None)
def test_ball_query_with_nothing_in_radius_takes_the_nearest(references, k,
                                                             block):
    # Queries 20 units beyond a cloud that spans at most 10: none in radius.
    queries = references[::2] + [20.0, 0.0, 0.0]
    with block_bytes(block):
        got = ball_query_indices(queries, references, 0.4, k)
    nearest, _ = knn_bruteforce(queries, references, 1)
    assert np.array_equal(got, np.repeat(nearest, k, axis=1))
    assert np.array_equal(got, ball_query_bruteforce(queries, references,
                                                     0.4, k))


@given(points=clouds(max_points=60), data=st.data())
@settings(max_examples=300, deadline=None)
def test_fps_equals_bruteforce(points, data):
    n = len(points)
    start = data.draw(st.integers(0, n - 1))
    n_samples = data.draw(st.integers(1, n + 3))
    got = farthest_point_sampling(points, n_samples, start)
    assert np.array_equal(got, fps_bruteforce(points, min(n_samples, n), start))


@given(points=hnp.arrays(np.float64, st.tuples(st.integers(1, 200), st.just(3)),
                         elements=st.floats(-100, 100, allow_nan=False)),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_column_update_equals_einsum(points, data):
    """The column update adds ``(dx^2 + dz^2) + dy^2``, which equals
    ``einsum('ij,ij->i')`` bit for bit only on numpy builds whose einsum
    reduces a row of three products in that order.  This is the check that
    catches a build where it does not."""
    index = data.draw(st.integers(0, len(points) - 1))
    n = len(points)
    got = squared_distances_to(coordinate_columns(points), index,
                               np.empty(n), np.empty(n))
    diff = points - points[index]
    assert np.array_equal(got, np.einsum("ij,ij->i", diff, diff))


def test_single_point_and_tiny_reference_sets():
    one = np.array([[0.5, -1.0, 2.0]])
    assert np.array_equal(farthest_point_sampling(one, 4), [0])
    idx = knn_indices(one, one, 3)
    dist = coords.squared_distances_at(one, one, idx)
    assert idx.tolist() == [[0, 0, 0]] and dist.tolist() == [[0.0] * 3]
    assert ball_query_indices(one, one, 0.1, 2).tolist() == [[0, 0]]


def test_multi_block_clouds_at_the_default_budget():
    """A cloud big enough that the default ~2 MB budget gives many blocks."""
    rng = np.random.default_rng(0)
    queries = np.round(rng.normal(size=(700, 3)), 1)
    references = np.round(rng.normal(size=(4000, 3)), 1)
    rows = coords._BLOCK_BYTES // (8 * len(references))
    assert len(queries) > 5 * rows
    idx = knn_indices(queries, references, 16)
    dist = coords.squared_distances_at(queries, references, idx)
    ref_idx, ref_dist = knn_bruteforce(queries, references, 16)
    assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)
    for radius in (0.1, 0.3):
        assert np.array_equal(
            ball_query_indices(queries, references, radius, 32),
            ball_query_bruteforce(queries, references, radius, 32))


def test_pairwise_distance_is_the_blocked_tail_of_one_gemm():
    """Every row block carries the matrix's own values: blocking changes
    no distance."""
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(300, 3)), rng.normal(size=(500, 3))
    expect = np.maximum(
        np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T), 0.0)
    assert np.array_equal(coords.pairwise_squared_distance(a, b), expect)
    with block_bytes(8 * 500 * 7):
        blocks = list(coords.squared_distance_blocks(a, b))
    assert [lo for lo, _ in blocks] == list(range(0, 300, 7))
    assert np.array_equal(np.concatenate([blk for _, blk in blocks]), expect)


@pytest.mark.parametrize("k", [1, 3, 32])
def test_knn_picks_lowest_index_among_equal_distances(k):
    """60 references all exactly at distance 1 from the query: the
    selection keeps the k lowest indices, in index order."""
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    ring = np.tile(axes, (10, 1))
    idx = knn_indices(np.zeros((1, 3)), ring, k)
    dist = coords.squared_distances_at(np.zeros((1, 3)), ring, idx)
    assert idx.tolist() == [list(range(k))]
    assert dist.tolist() == [[1.0] * k]
    assert np.array_equal(idx, knn_bruteforce(np.zeros((1, 3)), ring, k)[0])


# ----------------------------------------------------------------------
# The cell path: candidates from a cell index, decided by the GEMM bound
# ----------------------------------------------------------------------

KERNEL_MODULES = (ball_query_module, knn_module)
RADII = st.sampled_from([0.05, 0.1, 0.3, 1.0, 2 ** 0.5, 3 ** 0.5, 2.0, 3.0,
                         100.0])


@contextmanager
def cell_path():
    """Every 3-D call takes the cell index, whatever its size: the
    crossover's fixed cost and per-pair cost set to nothing."""
    saved = [(m._CELL_FIXED, m._CELL_PER_PAIR) for m in KERNEL_MODULES]
    for m in KERNEL_MODULES:
        m._CELL_FIXED, m._CELL_PER_PAIR = 0, 1
    try:
        yield
    finally:
        for m, (fixed, per_pair) in zip(KERNEL_MODULES, saved):
            m._CELL_FIXED, m._CELL_PER_PAIR = fixed, per_pair


@contextmanager
def gemm_rows():
    """The rows each kernel call in the block handed to the one GEMM."""
    handed = []
    for m in KERNEL_MODULES:
        assert m.squared_distance_rows is coords.squared_distance_rows

    def recorded(a, b, rows):
        handed.append(rows.tolist())
        return coords.squared_distance_rows(a, b, rows)

    for m in KERNEL_MODULES:
        m.squared_distance_rows = recorded
    try:
        yield handed
    finally:
        for m in KERNEL_MODULES:
            m.squared_distance_rows = coords.squared_distance_rows


@contextmanager
def gemm_builds():
    """Every GEMM built in the block (the one whole ``a @ b.T``)."""
    built = []
    real = coords._distance_operands

    def counted(a, b):
        built.append((len(a), len(b)))
        return real(a, b)

    coords._distance_operands = counted
    try:
        yield built
    finally:
        coords._distance_operands = real


def assert_both_equal_bruteforce(queries, references, k, radius):
    with cell_path():
        knn = knn_indices(queries, references, k)
        ball = ball_query_indices(queries, references, radius, k)
    assert np.array_equal(knn, knn_bruteforce(queries, references, k)[0])
    assert np.array_equal(ball, ball_query_bruteforce(queries, references,
                                                      radius, k))


@given(queries=clouds(), references=clouds(), k=st.integers(1, 45),
       radius=RADII)
@settings(max_examples=300, deadline=None)
def test_cell_path_equals_bruteforce(queries, references, k, radius):
    assert_both_equal_bruteforce(queries, references, k, radius)


@given(queries=clouds(max_points=20), extra=clouds(max_points=20),
       k=st.integers(1, 12), radius=st.sampled_from([0.5, 1.0, 2.0, 0.3]))
@settings(max_examples=200, deadline=None)
def test_cell_path_with_references_exactly_at_the_radius(queries, extra, k,
                                                         radius):
    """Each query gets six references at exactly ``radius`` along the axes
    (exact on the integer lattices), so the radius test lands on the
    bound's edge."""
    axes = np.concatenate([np.eye(3), -np.eye(3)]) * radius
    references = np.concatenate([(queries[:, None, :] + axes).reshape(-1, 3),
                                 extra])
    assert_both_equal_bruteforce(queries, references, k, radius)


OFFSETS = st.tuples(*[st.sampled_from([-1e6, 0.0, 1e6])] * 3).map(np.array)


@given(queries=clouds(), references=clouds(), k=st.integers(1, 20),
       radius=RADII, offset=OFFSETS,
       jitter=st.sampled_from([0.0, 1e-3, 0.37]))
@settings(max_examples=200, deadline=None)
def test_cell_path_far_from_the_origin(queries, references, k, radius, offset,
                                       jitter):
    """Clouds 1e6 out, where the bound is widest: the GEMM's error there
    is ~1e-3, against lattice distances of 1e-2 and up."""
    rng = np.random.default_rng(len(queries) * 64 + len(references))
    queries = queries + offset + jitter * rng.random(queries.shape)
    references = references + offset + jitter * rng.random(references.shape)
    assert_both_equal_bruteforce(queries, references, k, radius)


@given(queries=clouds(), references=clouds(), k=st.integers(1, 20),
       radius=RADII)
@settings(max_examples=100, deadline=None)
def test_cell_path_hands_an_unpackable_grid_to_the_gemm(queries, references,
                                                        k, radius):
    """1e9 out, no cell grid packs into 21-bit fields: every row takes the
    GEMM, with the brute force's answer."""
    queries, references = queries + 1e9, references + 1e9
    with gemm_rows() as handed:
        assert_both_equal_bruteforce(queries, references, k, radius)
    assert handed == [list(range(len(queries)))] * 2


@given(seed=st.integers(0, 2 ** 16), n=st.integers(24, 80),
       far=st.integers(1, 3), distance=st.sampled_from([7.5, 40.0, 300.0]),
       k=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_cell_knn_rows_beyond_the_first_block(seed, n, far, distance, k):
    """A unit cube of references and a few queries far out: the first
    cells fit the cube (they are sized on the queries' upper quartile),
    and the far rows' k-th picks lie several doublings out."""
    rng = np.random.default_rng(seed)
    references = rng.random((n, 3))
    direction = rng.normal(size=(far, 3))
    lonely = distance * direction / np.linalg.norm(direction, axis=1,
                                                   keepdims=True)
    queries = np.concatenate([references, lonely])
    levels = []
    real = knn_module.cell_candidates

    def counted(*args):
        levels.append(len(args[0]))
        return real(*args)

    knn_module.cell_candidates = counted
    try:
        with cell_path(), gemm_builds() as built:
            got = knn_indices(queries, references, k)
    finally:
        knn_module.cell_candidates = real
    assert np.array_equal(got, knn_bruteforce(queries, references, k)[0])
    assert len(levels) > 1 and levels[-1] <= far
    assert built == []


def jittered_lattice(seed=3, side=7, step=0.1, jitter=0.02):
    rng = np.random.default_rng(seed)
    axis = np.arange(side) * step
    lattice = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    return lattice + rng.uniform(-jitter, jitter, lattice.shape)


def test_a_jittered_lattice_builds_no_gemm():
    """Distinct distances, nothing near the radius, no empty ball: every
    row is settled on the cells, and no GEMM is built."""
    points = jittered_lattice()
    queries = points[::5]
    with cell_path(), gemm_builds() as built:
        knn = knn_indices(queries, points, 8)
        ball = ball_query_indices(queries, points, 0.15, 16)
    assert built == []
    assert np.array_equal(knn, knn_bruteforce(queries, points, 8)[0])
    assert np.array_equal(ball, ball_query_bruteforce(queries, points,
                                                      0.15, 16))


def test_small_calls_take_the_gemm_at_the_default_crossover():
    """The other side of the crossover: the same lattice, at the default
    costs, is too small for the cells and builds one GEMM per call."""
    points = jittered_lattice()
    with gemm_builds() as built:
        knn_indices(points[::5], points, 8)
        ball_query_indices(points[::5], points, 0.15, 16)
    assert built == [(len(points[::5]), len(points))] * 2


FALLBACKS = {
    # A query between two references at equal distance: tied picks.
    "tie": (np.array([[0.0, 0.0, 0.0]]),
            np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 0, 3.0]]), 1, 2.0),
    # A reference exactly at the radius.
    "at the radius": (np.array([[0.25, 0.5, 0.0]]),
                      np.array([[0.25, 1.5, 0.0], [0.5, 0.5, 0.0],
                                [5.0, 5.0, 5.0]]), 2, 1.0),
    # Nothing in radius: the nearest reference pads the group.
    "empty ball": (np.array([[9.0, 9.0, 9.0]]),
                   np.array([[0.0, 0, 0], [0.5, 0, 0], [0, 0.7, 0]]), 2, 0.5),
    # A grid that does not pack into 21-bit fields.
    "unpackable": (np.array([[2e9, 0, 0]]),
                   np.array([[2e9 + 0.3, 0, 0], [2e9, 0.5, 0]]), 1, 1.0),
    # Not 3-D (DGCNN's feature-space kNN).
    "not 3-D": (np.array([[0.0, 0.0]]),
                np.array([[1.0, 0.5], [0.2, 0.1], [3.0, 3.0]]), 2, 1.0),
}


@pytest.mark.parametrize("kind", FALLBACKS)
def test_each_fallback_kind_hands_its_row_to_the_gemm(kind):
    queries, references, k, radius = FALLBACKS[kind]
    with cell_path(), gemm_rows() as handed:
        knn = knn_indices(queries, references, k)
        ball = ball_query_indices(queries, references, radius, k)
    assert np.array_equal(knn, knn_bruteforce(queries, references, k)[0])
    assert np.array_equal(ball, ball_query_bruteforce(queries, references,
                                                      radius, k))
    # Rows handed over by the kNN call, then by the ball query.
    expect = {"tie": [[0], [0]], "at the radius": [[], [0]],
              "empty ball": [[], [0]], "unpackable": [[0], [0]],
              "not 3-D": [[0], [0]]}[kind]
    assert handed == expect


SCALES = st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3])
BOUND_OFFSETS = st.tuples(*[st.sampled_from([0.0, -3.3, 1e3, -1e6, 1e9])] * 3)


@given(a=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
                    elements=st.floats(-1, 1)),
       b=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
                    elements=st.floats(-1, 1)),
       scale=SCALES, offset=BOUND_OFFSETS)
@settings(max_examples=300, deadline=None)
def test_gemm_distance_is_within_the_bound_of_the_direct_one(a, b, scale,
                                                             offset):
    """``|pairwise_squared_distance - e| <= Delta`` elementwise, ``e`` the
    direct distance: every certified decision rests on it.  This is the
    check that fails on a build whose GEMM or norms round outside it."""
    a, b = a * scale + np.array(offset), b * scale + np.array(offset)
    gemm = coords.pairwise_squared_distance(a, b)
    e = coords.direct_squared_distance(np.repeat(a, len(b), axis=0),
                                       np.tile(b, (len(a), 1)))
    e = e.reshape(len(a), len(b))
    delta = coords.gemm_error_bound(np.sum(a * a, axis=1)[:, None],
                                    np.sum(b * b, axis=1)[None, :], e)
    assert np.all(np.abs(gemm - e) <= delta)
