"""The selecting kernels equal their brute-force references, bit for bit.

kNN and ball query select the k nearest from row blocks of the distance
matrix; FPS updates its distances from coordinate columns.  Each keeps a
brute-force reference (full-row lexsort, ``einsum`` loop).  These
properties pin the two together on the inputs where a selection can go
wrong: duplicate points, lattices full of equidistant neighbours, ties at
exactly the k-th distance, a radius exactly at a lattice distance, rows
with more than k pairs in radius, rows with nothing in radius, fewer
references than k, and clouds spanning several row blocks (forced small
by shrinking the block budget).
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
        idx, dist = knn_indices(queries, references, k)
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
    idx, dist = knn_indices(one, one, 3)
    assert idx.tolist() == [[0, 0, 0]] and dist.tolist() == [[0.0] * 3]
    assert ball_query_indices(one, one, 0.1, 2).tolist() == [[0, 0]]


def test_multi_block_clouds_at_the_default_budget():
    """A cloud big enough that the default ~2 MB budget gives many blocks."""
    rng = np.random.default_rng(0)
    queries = np.round(rng.normal(size=(700, 3)), 1)
    references = np.round(rng.normal(size=(4000, 3)), 1)
    rows = coords._BLOCK_BYTES // (8 * len(references))
    assert len(queries) > 5 * rows
    idx, dist = knn_indices(queries, references, 16)
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
    idx, dist = knn_indices(np.zeros((1, 3)), ring, k)
    assert idx.tolist() == [list(range(k))]
    assert dist.tolist() == [[1.0] * k]
    assert np.array_equal(idx, knn_bruteforce(np.zeros((1, 3)), ring, k)[0])
