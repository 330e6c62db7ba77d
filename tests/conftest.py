"""Shared fixtures: small deterministic clouds and tensors."""

import importlib
import sys
from contextlib import contextmanager

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


#: Every public mapping entry point, as ``(module, function)``.
MAPPING_ENTRY_POINTS = (
    ("repro.mapping.fps", "farthest_point_sampling"),
    ("repro.mapping.knn", "knn_indices"),
    ("repro.mapping.knn", "knn_maps"),
    ("repro.mapping.ball_query", "ball_query_indices"),
    ("repro.mapping.ball_query", "ball_query_maps"),
    ("repro.mapping.kernel_map", "kernel_map"),
    ("repro.mapping.kernel_map", "kernel_map_mergesort"),
    ("repro.mapping.kernel_map", "kernel_map_hash"),
    ("repro.mapping.kernel_map", "kernel_map_bruteforce"),
    ("repro.pointcloud.coords", "voxelize"),
)


def _fingerprint(value):
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    return repr(value)


@contextmanager
def _record_mapping_calls():
    """Record ``(function, args, kwargs)`` of every mapping call made in
    the block, arrays by dtype, shape and bytes.  Every ``repro.*``
    module binding of each entry point is patched, so ``from x import f``
    call sites are recorded too; the originals come back on exit."""
    calls = []
    undo = []
    for module_name, name in MAPPING_ENTRY_POINTS:
        original = getattr(importlib.import_module(module_name), name)

        def recorded(*args, _original=original, **kwargs):
            calls.append((
                _original.__name__,
                [_fingerprint(a) for a in args],
                sorted((k, _fingerprint(v)) for k, v in kwargs.items()),
            ))
            return _original(*args, **kwargs)

        for module_name_, module in list(sys.modules.items()):
            if module is None or not (module_name_ == "repro"
                                      or module_name_.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, recorded)
    try:
        yield calls
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


@pytest.fixture
def record_mapping_calls():
    """``with record_mapping_calls() as calls:`` lists the mapping calls
    made inside the block."""
    return _record_mapping_calls
