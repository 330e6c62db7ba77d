"""Unit tests for PointCloud / SparseTensor containers."""

import numpy as np
import pytest

from repro.nn.ghost import GhostFeatures
from repro.pointcloud import PointCloud, SparseTensor
from repro.pointcloud.coords import coords_to_keys


class TestPointCloud:
    def test_basic_properties(self, rng):
        pts = rng.random((10, 3))
        feats = rng.random((10, 4))
        cloud = PointCloud(pts, feats)
        assert cloud.n == 10 and cloud.ndim == 3 and cloud.channels == 4

    def test_no_features(self, rng):
        cloud = PointCloud(rng.random((5, 3)))
        assert cloud.channels == 0 and cloud.features is None

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            PointCloud(rng.random((5, 3)), rng.random((4, 2)))

    def test_select(self, rng):
        cloud = PointCloud(rng.random((10, 3)), rng.random((10, 2)))
        sub = cloud.select(np.array([1, 3, 5]))
        assert sub.n == 3
        assert np.array_equal(sub.points, cloud.points[[1, 3, 5]])
        assert np.array_equal(sub.features, cloud.features[[1, 3, 5]])

    def test_with_features(self, rng):
        cloud = PointCloud(rng.random((6, 3)))
        new = cloud.with_features(rng.random((6, 7)))
        assert new.channels == 7 and cloud.channels == 0

    def test_voxelize_averages_features(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [1.5, 0.0, 0.0]])
        feats = np.array([[2.0], [4.0], [10.0]])
        tensor = PointCloud(pts, feats).voxelize(1.0)
        assert tensor.n == 2
        # Voxel (0,0,0) holds the first two points, averaged.
        assert sorted(tensor.features.ravel().tolist()) == [3.0, 10.0]


class TestSparseTensor:
    def test_sorts_and_keeps_features_aligned(self, rng):
        coords = np.array([[2, 0, 0], [0, 0, 0], [1, 0, 0]])
        feats = np.array([[2.0], [0.0], [1.0]])
        tensor = SparseTensor(coords, feats)
        assert tensor.coords[:, 0].tolist() == [0, 1, 2]
        assert tensor.features.ravel().tolist() == [0.0, 1.0, 2.0]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[0, 0, 0], [0, 0, 0]]))

    def test_rejects_unaligned_stride(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[1, 0, 0]]), tensor_stride=2)

    def test_keys_sorted(self, voxel_tensor):
        keys = voxel_tensor.keys
        assert np.all(np.diff(keys) > 0)

    def test_downsample_stride_and_uniqueness(self, voxel_tensor):
        down = voxel_tensor.downsample(2)
        assert down.tensor_stride == 2
        assert np.all(down.coords % 2 == 0)
        assert len(np.unique(coords_to_keys(down.coords))) == down.n
        assert down.n <= voxel_tensor.n

    def test_downsample_covers_all_inputs(self, voxel_tensor):
        down = voxel_tensor.downsample(2)
        down_keys = set(coords_to_keys(down.coords).tolist())
        quantized = (voxel_tensor.coords // 2) * 2
        for key in coords_to_keys(quantized).tolist():
            assert key in down_keys

    def test_repeated_downsample_doubles_stride(self, voxel_tensor):
        d4 = voxel_tensor.downsample(2).downsample(2)
        assert d4.tensor_stride == 4
        assert np.all(d4.coords % 4 == 0)

    def test_to_point_cloud(self, voxel_tensor):
        cloud = voxel_tensor.to_point_cloud()
        assert cloud.n == voxel_tensor.n
        assert cloud.channels == voxel_tensor.channels

    def test_with_features_validates_length(self, voxel_tensor):
        with pytest.raises(ValueError):
            voxel_tensor.with_features(np.zeros((voxel_tensor.n + 1, 2)))


class TestSparseTensorWithFeatures:
    """``with_features`` keeps the cloud and checks only the features."""

    def test_shares_coords_and_stride(self, voxel_tensor):
        down = voxel_tensor.downsample(2)
        new = down.with_features(np.ones((down.n, 3), dtype=np.int64))
        assert new.coords is down.coords
        assert new.tensor_stride == 2 and new.channels == 3
        assert down.features is None
        assert new.features.dtype == np.float64

    @pytest.mark.parametrize("extra_rows, shape", [
        (-1, (2,)), (0, ()), (0, (2, 1)),
    ])
    def test_rejects_wrong_length_or_rank(self, voxel_tensor, extra_rows, shape):
        features = np.zeros((voxel_tensor.n + extra_rows, *shape))
        with pytest.raises(ValueError):
            voxel_tensor.with_features(features)

    def test_accepts_none_and_ghost(self, voxel_tensor):
        assert voxel_tensor.with_features(None).features is None
        ghost = GhostFeatures(voxel_tensor.n, 5)
        new = voxel_tensor.with_features(ghost)
        assert new.features is ghost and new.channels == 5

    def test_new_coordinates_are_still_checked(self, voxel_tensor):
        down = voxel_tensor.downsample(2)
        with pytest.raises(ValueError, match="divisible"):
            SparseTensor(down.coords + 1, None, tensor_stride=2, _sorted=True)
