"""Hypothesis property tests for mapping operations and coordinates."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.mapping import (
    ball_query_indices,
    farthest_point_sampling,
    kernel_map_hash,
    kernel_map_mergesort,
    knn_indices,
)
from repro.pointcloud.coords import (
    coords_to_keys,
    keys_to_coords,
    pairwise_squared_distance,
    quantize,
    squared_distances_at,
    unique_coords,
)

coord_arrays = hnp.arrays(
    np.int64, st.tuples(st.integers(1, 40), st.just(3)),
    elements=st.integers(-30, 30),
)
# Coordinates rounded to a 1e-3 grid: squared distances of distinct points
# stay comfortably above float underflow (the reference FPS, like the
# hardware, cannot separate points whose squared distance underflows).
point_arrays = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 60), st.just(3)),
    elements=st.floats(-10, 10, allow_nan=False).map(lambda v: round(v, 3)),
)


@given(coords=coord_arrays)
@settings(max_examples=60, deadline=None)
def test_key_roundtrip_and_order(coords):
    keys = coords_to_keys(coords)
    assert np.array_equal(keys_to_coords(keys, 3), coords)
    order_by_key = np.argsort(keys, kind="stable")
    assert coords[order_by_key].tolist() == sorted(coords.tolist())


@given(coords=coord_arrays, stride=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_quantize_divisible_and_idempotent(coords, stride):
    q = quantize(coords, stride)
    assert np.all(q % stride == 0)
    assert np.array_equal(quantize(q, stride), q)
    # floor semantics: q <= p < q + stride
    assert np.all(q <= coords)
    assert np.all(coords < q + stride)


@given(coords=coord_arrays, ksize=st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_kernel_map_mergesort_equals_hash(coords, ksize):
    unique, _ = unique_coords(coords)
    out, _ = unique_coords(quantize(unique, 2))
    a = kernel_map_mergesort(unique, out, ksize, 1)
    b = kernel_map_hash(unique, out, ksize, 1)
    assert a.as_set() == b.as_set()
    assert a.kernel_volume == ksize**3


@given(coords=coord_arrays)
@settings(max_examples=40, deadline=None)
def test_submanifold_center_identity(coords):
    unique, _ = unique_coords(coords)
    maps = kernel_map_mergesort(unique, unique, 3, 1)
    center = maps.weight_idx == 13
    assert np.array_equal(maps.in_idx[center], maps.out_idx[center])
    assert center.sum() == len(unique)


@given(points=point_arrays, m=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_fps_unique_and_greedy(points, m):
    m = min(m, len(points))
    idx = farthest_point_sampling(points, m)
    # No duplicates unless the cloud itself has duplicate points.
    unique_pts = len({tuple(p) for p in points[idx].tolist()})
    distinct_cloud = len({tuple(p) for p in points.tolist()})
    assert unique_pts == min(m, distinct_cloud)


@given(points=point_arrays, k=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_knn_distances_sorted_and_minimal(points, k):
    queries = points[: min(5, len(points))]
    idx = knn_indices(queries, points, k)
    dist = squared_distances_at(queries, points, idx)
    # Real columns ascend; padding repeats the nearest neighbor, so only
    # the first k_eff columns carry the ordering guarantee.
    k_eff = min(k, len(points))
    assert np.all(np.diff(dist[:, :k_eff], axis=1) >= 0)
    sq = pairwise_squared_distance(queries, points)
    # The k-th neighbor's distance equals the k-th smallest true distance.
    kth_true = np.sort(sq, axis=1)[:, k_eff - 1]
    assert np.allclose(dist[:, k_eff - 1], kth_true)


@given(points=point_arrays, k=st.integers(1, 8),
       radius=st.floats(0.1, 5.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_ball_query_group_shape(points, k, radius):
    queries = points[: min(4, len(points))]
    idx = ball_query_indices(queries, points, radius, k)
    assert idx.shape == (len(queries), k)
    assert np.all(idx >= 0) and np.all(idx < len(points))
