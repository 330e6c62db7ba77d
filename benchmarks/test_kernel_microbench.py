"""Microbenchmarks of the library's core kernels (wall-clock timings).

Unlike the experiment benches (which regenerate paper artifacts), these
time the actual Python implementations so performance regressions in the
substrate show up in ``--benchmark-only`` runs.
"""

import numpy as np
import pytest

from repro.core import PointAccModel
from repro.core.config import POINTACC_FULL
from repro.core.mmu import MemoryManagementUnit
from repro.core.mmu.cache import CacheConfig, simulate_conv_cache
from repro.core.mpu import ComparatorArray, StreamingMerger, mpu_topk
from repro.mapping import (
    farthest_point_sampling,
    kernel_map_hash,
    kernel_map_mergesort,
    knn_indices,
)
from repro.mapping.maps import copy_value
from repro.nn.models.registry import run_benchmark
from repro.nn.trace import LayerKind, LayerSpec
from repro.pointcloud import generate_sample


@pytest.fixture(scope="module")
def voxel_coords():
    cloud = generate_sample("s3dis", seed=0, n_points=20_000)
    return cloud.voxelize(0.05).coords


@pytest.fixture(scope="module")
def lidar_points():
    return generate_sample("semantickitti", seed=0, n_points=8192).points


def test_kernel_map_mergesort_speed(benchmark, voxel_coords):
    maps = benchmark(kernel_map_mergesort, voxel_coords, voxel_coords, 3, 1)
    assert maps.n_maps > len(voxel_coords)


def test_kernel_map_hash_speed(benchmark, voxel_coords):
    maps = benchmark(kernel_map_hash, voxel_coords, voxel_coords, 3, 1)
    assert maps.n_maps > len(voxel_coords)


def test_fps_speed(benchmark, lidar_points):
    idx = benchmark(farthest_point_sampling, lidar_points, 512)
    assert len(idx) == 512


def test_knn_speed(benchmark, lidar_points):
    queries = lidar_points[:512]
    idx, _ = benchmark(knn_indices, queries, lidar_points, 32)
    assert idx.shape == (512, 32)


def test_streaming_merger_speed(benchmark):
    rng = np.random.default_rng(0)
    a = np.sort(rng.integers(0, 10**6, size=2000))
    b = np.sort(rng.integers(0, 10**6, size=2000))
    merger = StreamingMerger(64)

    def run():
        return merger.merge(
            ComparatorArray(a.copy(), np.arange(len(a))),
            ComparatorArray(b.copy(), np.arange(len(b))),
        )

    merged, stats = benchmark(run)
    assert len(merged) == 4000


def test_mpu_topk_speed(benchmark):
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 10**9, size=4096)

    def run():
        return mpu_topk(ComparatorArray.from_keys(keys), 32, 64)

    out, _ = benchmark(run)
    assert len(out) == 32


def test_cache_simulation_speed(benchmark, voxel_coords):
    # Replays are memoized per table, so every round gets a fresh copy:
    # reusing one table would time a dict lookup after the first round.
    maps = kernel_map_mergesort(voxel_coords, voxel_coords, 3, 1)
    cfg = CacheConfig(capacity_bytes=256 * 1024, block_points=16, c_in=64)
    stats = benchmark.pedantic(
        simulate_conv_cache,
        setup=lambda: ((copy_value(maps), cfg), {}),
        rounds=20,
    )
    assert 0.0 <= stats.miss_rate <= 1.0


def test_block_size_sweep_speed(benchmark, voxel_coords):
    """One SparseConv layer's MMU block-size sweep on a fresh table."""
    maps = kernel_map_mergesort(voxel_coords, voxel_coords, 3, 1)
    spec = LayerSpec(
        name="conv", kind=LayerKind.SPARSE_CONV, n_in=len(voxel_coords),
        n_out=len(voxel_coords), c_in=96, c_out=96, rows=maps.n_maps,
        n_maps=maps.n_maps, kernel_volume=maps.kernel_volume,
    )
    mmu = MemoryManagementUnit(POINTACC_FULL)
    cost = benchmark.pedantic(
        mmu.sparse_conv_cost,
        setup=lambda: ((spec, copy_value(maps)), {}),
        rounds=20,
    )
    assert cost.block_points is not None


def test_backend_cost_model_speed(benchmark):
    """``PointAccModel.run`` on a geometry-only MinkNet(o) trace.  Every
    round gets a fresh model and a freshly built trace, so no table's
    replay memo is timed."""

    def setup():
        trace, _ = run_benchmark("MinkNet(o)", scale=0.25, seed=0,
                                 geometry_only=True)
        return (PointAccModel(POINTACC_FULL), trace), {}

    report = benchmark.pedantic(
        lambda model, trace: model.run(trace), setup=setup, rounds=10
    )
    assert report.total_seconds > 0
