"""Shared fixtures: small deterministic clouds and tensors."""

import numpy as np
import pytest

from repro.nn.models.registry import CLOUD_SCHEMES
from repro.pointcloud import PointCloud, generate_sample


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def object_cloud():
    """A small ModelNet-like object (256 points, unit sphere)."""
    return generate_sample("modelnet40", seed=7, n_points=256)


@pytest.fixture
def indoor_cloud():
    """A small S3DIS-like room (1500 points, meters)."""
    return generate_sample("s3dis", seed=7, n_points=1500)


@pytest.fixture
def outdoor_cloud():
    """A small SemanticKITTI-like LiDAR scan."""
    return generate_sample("semantickitti", seed=7, n_points=2000)


@pytest.fixture
def duplicated_source(monkeypatch):
    """A cloud source for ``"<benchmark>@<source>"`` notations: an S3DIS
    cloud with every third point repeated (ties in FPS, ball query and
    kNN), model seed 0."""

    def resolve(token, scale, seed):
        cloud = generate_sample("s3dis", seed=seed, scale=scale)
        return PointCloud(np.concatenate([cloud.points, cloud.points[::3]])), 0

    monkeypatch.setitem(CLOUD_SCHEMES, "dup", resolve)
    return "dup:x"


@pytest.fixture
def voxel_tensor(indoor_cloud):
    """A stride-1 sparse tensor with features attached."""
    tensor = indoor_cloud.voxelize(0.08)
    rng = np.random.default_rng(0)
    return tensor.with_features(rng.normal(size=(tensor.n, 8)))
