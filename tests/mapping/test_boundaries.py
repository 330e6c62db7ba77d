"""Boundary conditions and array-ownership contracts of the mapping ops.

Locks in the documented padding / tie-break / clamping semantics at the
edges of each op's domain, plus the ownership contract: mapping ops never
mutate caller arrays, and every returned array is freshly owned (no views
of inputs or internals) — so a caller scribbling on a result can corrupt
neither its own inputs nor another result.
"""

import numpy as np
import pytest

from repro.mapping import (
    ball_query_indices,
    farthest_point_sampling,
    knn_indices,
    random_sampling,
)
from repro.pointcloud.coords import squared_distances_at


class TestKnnBoundaries:
    def test_k_greater_than_n_ref_pads_with_nearest(self):
        queries = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        refs = np.array([[1.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        idx = knn_indices(queries, refs, k=5)
        dist = squared_distances_at(queries, refs, idx)
        assert idx.shape == dist.shape == (2, 5)
        # First k_eff columns are the real neighbors, distance-ascending...
        assert idx[0, :2].tolist() == [0, 1]
        assert idx[1, :2].tolist() == [1, 0]
        # ...and the pad columns repeat the *nearest* neighbor and distance.
        assert np.all(idx[:, 2:] == idx[:, :1])
        assert np.all(dist[:, 2:] == dist[:, :1])

    def test_k_equals_n_ref_has_no_padding(self):
        queries = np.zeros((1, 3))
        refs = np.array([[1.0, 0, 0], [2.0, 0, 0]])
        idx = knn_indices(queries, refs, k=2)
        assert idx[0].tolist() == [0, 1]

    def test_equidistant_ties_break_toward_lower_index(self):
        queries = np.zeros((1, 3))
        refs = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])  # all r=1
        idx = knn_indices(queries, refs, k=3)
        dist = squared_distances_at(queries, refs, idx)
        assert idx[0].tolist() == [0, 1, 2]
        assert np.allclose(dist, 1.0)

    def test_single_reference_single_query(self):
        idx = knn_indices(np.zeros((1, 3)), np.ones((1, 3)), k=3)
        dist = squared_distances_at(np.zeros((1, 3)), np.ones((1, 3)), idx)
        assert idx[0].tolist() == [0, 0, 0]
        assert np.allclose(dist, 3.0)

    def test_rejects_empty_references_and_bad_k(self):
        with pytest.raises(ValueError):
            knn_indices(np.zeros((1, 3)), np.zeros((0, 3)), k=1)
        with pytest.raises(ValueError):
            knn_indices(np.zeros((1, 3)), np.zeros((1, 3)), k=0)


class TestFpsBoundaries:
    def test_n_samples_greater_than_n_clamps_to_permutation(self):
        points = np.random.default_rng(0).normal(size=(7, 3))
        selected = farthest_point_sampling(points, n_samples=100)
        assert len(selected) == 7
        assert sorted(selected.tolist()) == list(range(7))

    def test_single_point_cloud(self):
        assert farthest_point_sampling(np.zeros((1, 3)), 5).tolist() == [0]

    def test_start_index_respected_at_boundary(self):
        points = np.arange(12, dtype=np.float64).reshape(4, 3)
        selected = farthest_point_sampling(points, 2, start_index=3)
        assert selected[0] == 3
        assert selected[1] == 0  # farthest from point 3 is point 0

    def test_random_sampling_clamps(self):
        assert len(random_sampling(5, 100, seed=0)) == 5


class TestBallQueryBoundaries:
    def test_zero_in_radius_neighbors_fall_back_to_nearest(self):
        queries = np.array([[100.0, 0.0, 0.0]])
        refs = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        idx = ball_query_indices(queries, refs, radius=0.5, k=4)
        # Nothing within radius: every slot repeats the nearest ref (index 1).
        assert idx.shape == (1, 4)
        assert np.all(idx == 1)

    def test_partial_fill_pads_with_first_neighbor(self):
        queries = np.zeros((1, 3))
        refs = np.array([[0.1, 0, 0], [0.2, 0, 0], [9.0, 0, 0]])
        idx = ball_query_indices(queries, refs, radius=1.0, k=4)
        assert idx[0].tolist() == [0, 1, 0, 0]  # 2 in radius, padded with #0

    def test_k_greater_than_n_ref_pads(self):
        queries = np.zeros((1, 3))
        refs = np.array([[0.1, 0, 0]])
        idx = ball_query_indices(queries, refs, radius=1.0, k=3)
        assert idx[0].tolist() == [0, 0, 0]

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            ball_query_indices(np.zeros((1, 3)), np.ones((1, 3)), 0.0, 1)


def _frozen(arr):
    """A read-only copy: any in-place write inside the callee raises."""
    out = arr.copy()
    out.setflags(write=False)
    return out


class TestOwnershipContracts:
    """Regression tests for the never-mutate / owned-result guarantees."""

    @pytest.fixture
    def points(self, rng):
        return rng.normal(size=(40, 3))

    def test_inputs_never_mutated(self, points):
        queries = _frozen(points[:10])
        refs = _frozen(points)
        before_q, before_r = queries.copy(), refs.copy()
        farthest_point_sampling(refs, 8)
        knn_indices(queries, refs, 4)
        ball_query_indices(queries, refs, 0.8, 4)
        assert np.array_equal(queries, before_q)
        assert np.array_equal(refs, before_r)

    def test_results_are_owned_not_views(self, points):
        selected = farthest_point_sampling(points, 8)
        idx = knn_indices(points[:10], points, 4)
        dist = squared_distances_at(points[:10], points, idx)
        ball = ball_query_indices(points[:10], points, 0.8, 4)
        for arr in (selected, idx, dist, ball):
            assert arr.base is None, "mapping op returned a view"
            assert not np.shares_memory(arr, points)

    def test_knn_owned_even_when_padded(self, points):
        idx = knn_indices(points[:4], points[:2], k=6)
        dist = squared_distances_at(points[:4], points[:2], idx)
        assert idx.base is None and dist.base is None

    def test_mutating_one_result_does_not_affect_another(self, points):
        first = farthest_point_sampling(points, 8)
        second = farthest_point_sampling(points, 8)
        first[:] = 0
        assert not np.array_equal(first, second)
