"""Tests for FPS, kNN and ball query reference implementations."""

import numpy as np
import pytest

from repro.mapping import (
    ball_query_indices,
    ball_query_maps,
    farthest_point_sampling,
    knn_indices,
    knn_maps,
    random_sampling,
)
from repro.pointcloud.coords import (
    pairwise_squared_distance,
    squared_distances_at,
)


class TestFPS:
    def test_first_sample_is_start_index(self, rng):
        pts = rng.random((50, 3))
        idx = farthest_point_sampling(pts, 5, start_index=7)
        assert idx[0] == 7

    def test_samples_unique(self, rng):
        pts = rng.random((100, 3))
        idx = farthest_point_sampling(pts, 40)
        assert len(set(idx.tolist())) == 40

    def test_greedy_invariant(self, rng):
        """Each selected point is the arg-max of distance-to-selected-set."""
        pts = rng.random((60, 3))
        idx = farthest_point_sampling(pts, 10)
        for t in range(1, 10):
            selected = pts[idx[:t]]
            dists = pairwise_squared_distance(pts, selected).min(axis=1)
            assert np.isclose(dists[idx[t]], dists.max())

    def test_second_point_is_farthest_from_first(self, rng):
        pts = rng.random((80, 3))
        idx = farthest_point_sampling(pts, 2)
        d = ((pts - pts[idx[0]]) ** 2).sum(axis=1)
        assert idx[1] == int(np.argmax(d))

    def test_oversampling_clamps(self, rng):
        pts = rng.random((10, 3))
        idx = farthest_point_sampling(pts, 50)
        assert len(idx) == 10

    def test_coverage_beats_random(self, rng):
        """FPS spreads samples: max gap to nearest sample is smaller than
        for random sampling (the reason PointNet++ uses it)."""
        pts = rng.random((400, 3))
        fps_idx = farthest_point_sampling(pts, 32)
        rand_idx = random_sampling(400, 32, seed=0)
        gap_fps = pairwise_squared_distance(pts, pts[fps_idx]).min(axis=1).max()
        gap_rand = pairwise_squared_distance(pts, pts[rand_idx]).min(axis=1).max()
        assert gap_fps <= gap_rand

    def test_errors(self, rng):
        pts = rng.random((5, 3))
        with pytest.raises(ValueError):
            farthest_point_sampling(np.empty((0, 3)), 1)
        with pytest.raises(ValueError):
            farthest_point_sampling(pts, 0)
        with pytest.raises(ValueError):
            farthest_point_sampling(pts, 2, start_index=9)


class TestRandomSampling:
    def test_deterministic_given_seed(self):
        a = random_sampling(100, 20, seed=3)
        b = random_sampling(100, 20, seed=3)
        assert np.array_equal(a, b)

    def test_unique_and_sorted(self):
        idx = random_sampling(50, 30, seed=1)
        assert len(set(idx.tolist())) == 30
        assert np.all(np.diff(idx) > 0)


class TestKNN:
    def test_matches_naive(self, rng):
        q = rng.random((15, 3))
        r = rng.random((40, 3))
        idx = knn_indices(q, r, 5)
        dist = squared_distances_at(q, r, idx)
        sq = pairwise_squared_distance(q, r)
        for row in range(15):
            naive = np.lexsort((np.arange(40), sq[row]))[:5]
            assert idx[row].tolist() == naive.tolist()
            assert np.allclose(dist[row], sq[row][naive])

    def test_distances_ascending(self, rng):
        q = rng.random((10, 3))
        r = rng.random((100, 3))
        dist = squared_distances_at(q, r, knn_indices(q, r, 8))
        assert np.all(np.diff(dist, axis=1) >= 0)

    def test_pads_when_too_few_references(self, rng):
        q = rng.random((4, 3))
        r = rng.random((3, 3))
        idx = knn_indices(q, r, 5)
        assert idx.shape == (4, 5)
        assert np.array_equal(idx[:, 3], idx[:, 0])

    def test_self_query_returns_self_first(self, rng):
        pts = rng.random((30, 3))
        idx = knn_indices(pts, pts, 3)
        dist = squared_distances_at(pts, pts, idx)
        assert np.array_equal(idx[:, 0], np.arange(30))
        assert np.allclose(dist[:, 0], 0.0)

    def test_maps_structure(self, rng):
        q = rng.random((6, 3))
        r = rng.random((20, 3))
        maps = knn_maps(q, r, 4)
        assert maps.n_maps == 24
        assert maps.kernel_volume == 4
        # Weight index is the neighbor rank.
        assert maps.weight_idx.tolist() == [0, 1, 2, 3] * 6

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            knn_indices(rng.random((2, 3)), rng.random((5, 3)), 0)


class TestBallQuery:
    def test_respects_radius(self, rng):
        q = rng.random((10, 3))
        r = rng.random((200, 3))
        idx = ball_query_indices(q, r, 0.25, 8)
        sq = pairwise_squared_distance(q, r)
        for row in range(10):
            group = idx[row]
            # All non-fallback members within radius, OR the whole group is
            # the nearest-point fallback.
            in_r = sq[row][group] <= 0.25**2
            if not in_r.all():
                nearest = np.lexsort((np.arange(200), sq[row]))[0]
                assert set(group.tolist()) <= {nearest} | set(
                    np.flatnonzero(sq[row] <= 0.25**2).tolist()
                )

    def test_pads_with_first_neighbor(self, rng):
        q = np.array([[0.0, 0.0, 0.0]])
        r = np.array([[0.01, 0.0, 0.0], [0.02, 0.0, 0.0], [9.0, 9.0, 9.0]])
        idx = ball_query_indices(q, r, 0.1, 5)
        assert idx[0].tolist() == [0, 1, 0, 0, 0]

    def test_fallback_when_nothing_in_radius(self, rng):
        q = np.array([[0.0, 0.0, 0.0]])
        r = np.array([[5.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
        idx = ball_query_indices(q, r, 0.1, 3)
        assert idx[0].tolist() == [0, 0, 0]  # nearest point repeated

    def test_subset_of_knn(self, rng):
        """Ball query = kNN restricted to the radius (paper Table 1)."""
        q = rng.random((12, 3))
        r = rng.random((100, 3))
        knn_idx = knn_indices(q, r, 16)
        knn_dist = squared_distances_at(q, r, knn_idx)
        bq_idx = ball_query_indices(q, r, 0.3, 16)
        for row in range(12):
            within = set(knn_idx[row][knn_dist[row] <= 0.09].tolist())
            if within:
                assert set(bq_idx[row].tolist()) <= within

    def test_maps_group_sizes_constant(self, rng):
        maps = ball_query_maps(rng.random((7, 3)), rng.random((50, 3)), 0.4, 6)
        counts = maps.maps_per_output(7)
        assert np.all(counts == 6)

    def test_validation(self, rng):
        q, r = rng.random((2, 3)), rng.random((5, 3))
        with pytest.raises(ValueError):
            ball_query_indices(q, r, -1.0, 4)
        with pytest.raises(ValueError):
            ball_query_indices(q, r, 0.5, 0)
