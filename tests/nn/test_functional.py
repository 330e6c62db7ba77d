"""Tests for stateless numpy kernels (repro.nn.functional)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.ghost import GhostFeatures, is_ghost


class TestBasics:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert F.relu(x).tolist() == [[0.0, 0.0, 2.0]]

    def test_linear(self, rng):
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        assert np.allclose(F.linear(x, w, b), x @ w + b)
        assert np.allclose(F.linear(x, w), x @ w)

    def test_batch_norm_normalizes(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(1000, 4))
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        y = F.batch_norm(x, mean, var, np.ones(4), np.zeros(4))
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(y.std(axis=0), 1.0, atol=1e-3)

    def test_batch_norm_affine(self, rng):
        x = rng.normal(size=(10, 2))
        y = F.batch_norm(
            x, np.zeros(2), np.ones(2) - 1e-5, np.array([2.0, 3.0]),
            np.array([1.0, -1.0]),
        )
        assert np.allclose(y, x * [2.0, 3.0] + [1.0, -1.0], atol=1e-4)

    def test_softmax_sums_to_one(self, rng):
        x = rng.normal(size=(6, 10)) * 50  # large logits: stability check
        p = F.softmax(x)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(size=(4, 7))
        assert np.allclose(F.log_softmax(x), np.log(F.softmax(x)))


class TestPooling:
    def test_max_pool_groups(self):
        x = np.array([[1.0], [5.0], [2.0], [0.0], [3.0], [4.0]])
        out = F.max_pool_groups(x, 3)
        assert out.ravel().tolist() == [5.0, 4.0]
        ghost = F.max_pool_groups(GhostFeatures(6, 1), 3)
        assert is_ghost(ghost) and ghost.shape == out.shape

    def test_max_pool_indivisible_raises(self):
        for x in (np.zeros((5, 2)), GhostFeatures(5, 2)):
            with pytest.raises(ValueError):
                F.max_pool_groups(x, 3)

    def test_avg_pool_groups(self):
        x = np.array([[2.0], [4.0], [6.0], [8.0]])
        assert F.avg_pool_groups(x, 2).ravel().tolist() == [3.0, 7.0]

    def test_global_max_pool(self, rng):
        x = rng.normal(size=(20, 5))
        assert np.allclose(F.global_max_pool(x), x.max(axis=0))
        assert F.global_max_pool(GhostFeatures(20, 5)).shape == (5,)

    def test_global_max_pool_empty_raises(self):
        for x in (np.empty((0, 3)), GhostFeatures(0, 3)):
            with pytest.raises(ValueError):
                F.global_max_pool(x)


class TestScatter:
    def test_scatter_add(self):
        vals = np.array([[1.0], [2.0], [4.0]])
        out = F.scatter_add(vals, np.array([0, 1, 0]), 3)
        assert out.ravel().tolist() == [5.0, 2.0, 0.0]

    def test_scatter_add_duplicate_indices_accumulate(self, rng):
        vals = rng.normal(size=(100, 3))
        idx = rng.integers(0, 5, size=100)
        out = F.scatter_add(vals, idx, 5)
        for slot in range(5):
            assert np.allclose(out[slot], vals[idx == slot].sum(axis=0))

    def test_scatter_max(self):
        vals = np.array([[1.0], [7.0], [3.0]])
        out = F.scatter_max(vals, np.array([1, 1, 1]), 3, fill=-9.0)
        assert out.ravel().tolist() == [-9.0, 7.0, -9.0]


class TestInterpolation:
    def test_exact_at_source_points(self, rng):
        src = rng.random((20, 3))
        feats = rng.normal(size=(20, 4))
        out = F.three_nn_interpolate(src, src, feats)
        # Querying at the sources returns (nearly) the source features.
        assert np.allclose(out, feats, atol=1e-4)

    def test_ghost_features_keep_shape_checks(self, rng):
        src, tgt = rng.random((20, 3)), rng.random((7, 3))
        out = F.three_nn_interpolate(tgt, src, GhostFeatures(20, 4))
        assert is_ghost(out) and out.shape == (7, 4)
        with pytest.raises(ValueError, match="19 source feature rows"):
            F.three_nn_interpolate(tgt, src, GhostFeatures(19, 4))

    def test_interpolation_within_convex_range(self, rng):
        src = rng.random((30, 3))
        feats = rng.normal(size=(30, 1))
        tgt = rng.random((10, 3))
        out = F.three_nn_interpolate(tgt, src, feats)
        assert np.all(out >= feats.min() - 1e-9)
        assert np.all(out <= feats.max() + 1e-9)

    def test_weights_favor_nearest(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]])
        feats = np.array([[0.0], [10.0], [100.0]])
        tgt = np.array([[0.05, 0.0, 0.0]])
        out = F.three_nn_interpolate(tgt, src, feats)
        assert out[0, 0] < 5.0  # dominated by the nearest source
