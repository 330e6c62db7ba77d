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
from repro.pointcloud import SparseTensor, generate_sample
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


def test_kernel_map_strided_speed(benchmark, voxel_coords):
    """A k=2, stride-2 downsampling conv's map onto the quantized cloud:
    every voxel maps once, onto its parent."""
    parents = SparseTensor(voxel_coords, _sorted=True).downsample(2).coords
    maps = benchmark(kernel_map_mergesort, voxel_coords, parents, 2, 1)
    assert maps.n_maps == len(voxel_coords)


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

    idx, fp_idx = benchmark(both)
    assert idx.shape == (512, 32)
    assert fp_idx.shape == (4096, 3)


def test_ball_query_speed(benchmark, lidar_points):
    """A PointNet++ set-abstraction layer (sa1: ~1k centroids grouping
    ~4k points, r = 0.1, k = 32)."""
    points = lidar_points[:4096]
    centroids = points[::4]
    idx = benchmark(ball_query_indices, centroids, points, 0.1, 32)
    assert idx.shape == (1024, 32)


@pytest.fixture(scope="module")
def duplicate_points(lidar_points):
    """The first 4k lidar points with every third one repeated: ties
    everywhere, so rows the cell index cannot settle go to the one GEMM
    (and a call whose blocks are that dense never indexes)."""
    points = lidar_points[:4096]
    return np.concatenate([points, points[::3]])


def test_knn_with_duplicates_speed(benchmark, duplicate_points):
    """fp1's shape on a duplicate-laden cloud: the cost of the fallback
    (no floor; it stays visible in the benchmark table)."""
    centroids = duplicate_points[::4]
    idx = benchmark(knn_indices, duplicate_points, centroids, 3)
    assert idx.shape == (len(duplicate_points), 3)


def test_ball_query_with_duplicates_speed(benchmark, duplicate_points):
    """sa1's shape on a duplicate-laden cloud (no floor, as above)."""
    centroids = duplicate_points[::4]
    idx = benchmark(ball_query_indices, centroids, duplicate_points, 0.1, 32)
    assert idx.shape == (len(centroids), 32)


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


@pytest.mark.parametrize("c_in", [96, 384])
def test_block_size_sweep_speed(benchmark, voxel_coords, c_in):
    """One SparseConv layer's MMU block-size sweep on a fresh table.  Both
    channel counts leave odd set counts to the sweep; at 384 a MinkNet(o)
    frame's costliest layer (``dec0.block0.conv1``) replays five block
    sizes without the per-weight-group miss bound."""
    maps = kernel_map_mergesort(voxel_coords, voxel_coords, 3, 1)
    spec = LayerSpec(
        name="conv", kind=LayerKind.SPARSE_CONV, n_in=len(voxel_coords),
        n_out=len(voxel_coords), c_in=c_in, c_out=c_in, rows=maps.n_maps,
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


def test_minknet_stream_trace_speed(benchmark):
    """One MinkNet(o) geometry-only stream-frame trace build at scale 0.4
    (~8k voxels): voxelize, 9 kernel maps shared by 26 convs, and the
    ghost forward.  Every round gets a fresh resident weightless model,
    built in setup, as in :func:`test_pointnet2_stream_trace_speed`."""
    sequence = FrameSequence(SequenceConfig(seed=11, n_frames=2))
    notation = sequence.notation("MinkNet(o)")

    def setup():
        _resident_model.cache_clear()
        _resident_model("MinkNet(o)", sequence.config.seed, True)
        return (), {}

    trace, _ = benchmark.pedantic(
        lambda: run_benchmark(notation, scale=0.4, seed=1, geometry_only=True),
        setup=setup, rounds=5,
    )
    _resident_model.cache_clear()
    assert len(trace.by_kind(LayerKind.MAP_KERNEL)) == 26
