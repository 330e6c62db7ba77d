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
    ball_query_indices,
    farthest_point_sampling,
    kernel_map_hash,
    kernel_map_mergesort,
    knn_indices,
)
from repro.mapping.maps import copy_value
from repro.nn.models.registry import _resident_model, run_benchmark
from repro.nn.trace import LayerKind, LayerSpec
from repro.pointcloud import generate_sample
from repro.stream import FrameSequence, SequenceConfig


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
    """Two shapes per round: 512 queries x 8k points at k = 32, and a
    PointNet++ feature-propagation layer (fp1: ~4k points interpolated
    from ~1k centroids, k = 3)."""
    queries = lidar_points[:512]
    dense, centroids = lidar_points[:4096], lidar_points[:4096:4]

    def both():
        return (knn_indices(queries, lidar_points, 32),
                knn_indices(dense, centroids, 3))

    (idx, _), (fp_idx, _) = benchmark(both)
    assert idx.shape == (512, 32)
    assert fp_idx.shape == (4096, 3)


def test_ball_query_speed(benchmark, lidar_points):
    """A PointNet++ set-abstraction layer (sa1: ~1k centroids grouping
    ~4k points, r = 0.1, k = 32)."""
    points = lidar_points[:4096]
    centroids = points[::4]
    idx = benchmark(ball_query_indices, centroids, points, 0.1, 32)
    assert idx.shape == (1024, 32)


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


@pytest.mark.parametrize("geometry_only", [False, True],
                         ids=["full", "geometry_only"])
def test_pointnet2_stream_trace_speed(benchmark, geometry_only):
    """One PointNet++(s) stream-frame trace build (~4k points), full vs
    geometry-only (weightless model, ghost features).  Every round gets a
    fresh resident model, built in setup, so a round times the forward and
    its mapping only, on a model no earlier round ran."""
    sequence = FrameSequence(SequenceConfig(seed=11, n_frames=2))
    notation = sequence.notation("PointNet++(s)")

    def setup():
        _resident_model.cache_clear()
        _resident_model("PointNet++(s)", sequence.config.seed, geometry_only)
        return (), {}

    trace, _ = benchmark.pedantic(
        lambda: run_benchmark(notation, scale=0.2, seed=1,
                              geometry_only=geometry_only),
        setup=setup, rounds=5,
    )
    _resident_model.cache_clear()
    assert len(trace.by_kind(LayerKind.MAP_FPS)) == 4
