"""Tests for the DRAM timing model and the six-stage MPU pipeline."""

import numpy as np
import pytest

from repro.core.mmu.dram import (
    DRAMTimingModel,
    TIMINGS,
    sequential_vs_random_gap,
)
from repro.core.mpu.pipeline import MPUPipeline, STAGES, StageTrace
from repro.mapping import kernel_map_hash
from repro.pointcloud import generate_sample
from repro.pointcloud.coords import kernel_offsets


class TestDRAMTiming:
    def test_sequential_trace_hits_rows(self):
        model = DRAMTimingModel(TIMINGS["DDR4-2133"])
        addrs = np.arange(500) * 64
        stats = model.run_trace(addrs, 64)
        assert stats.row_hit_rate > 0.9
        assert stats.bytes == 500 * 64

    def test_random_trace_misses_rows(self):
        rng = np.random.default_rng(0)
        model = DRAMTimingModel(TIMINGS["HBM2"])
        addrs = rng.integers(0, 2**26, size=500)
        stats = model.run_trace(addrs, 64)
        assert stats.row_hit_rate < 0.3

    def test_sequential_faster_than_random(self):
        for name, timing in TIMINGS.items():
            gap = sequential_vs_random_gap(timing, n_requests=400)
            assert gap["sequential_gbps"] > gap["random_gbps"], name

    def test_row_misses_cost_activation_energy(self):
        timing = TIMINGS["DDR4-2133"]
        model = DRAMTimingModel(timing)
        model.access(0, 64)  # cold: one activation
        e_first = model.stats.energy_pj
        model.access(64, 64)  # same row: no activation
        e_second = model.stats.energy_pj - e_first
        assert e_first - e_second == pytest.approx(timing.e_activate_pj)

    def test_large_access_splits_into_bursts(self):
        timing = TIMINGS["DDR4-2133"]
        model = DRAMTimingModel(timing)
        model.access(0, 256)
        assert model.stats.accesses == 256 // timing.bus_bytes

    def test_invalid_size(self):
        model = DRAMTimingModel(TIMINGS["HBM2"])
        with pytest.raises(ValueError):
            model.access(0, 0)

    def test_reset(self):
        model = DRAMTimingModel(TIMINGS["HBM2"])
        model.access(0, 64)
        model.reset()
        assert model.stats.accesses == 0

    def test_hbm_fastest_sequential(self):
        bws = {
            name: sequential_vs_random_gap(t, n_requests=400)["sequential_gbps"]
            for name, t in TIMINGS.items()
        }
        assert bws["HBM2"] > bws["DDR4-2133"] > bws["LPDDR3-1600"]


@pytest.fixture(scope="module")
def small_scene():
    cloud = generate_sample("s3dis", seed=5, n_points=600)
    return cloud, cloud.voxelize(0.2)


class TestMPUPipeline:
    def test_stage_trace_validation(self):
        trace = StageTrace()
        with pytest.raises(ValueError):
            trace.touch("XX", 1)

    def test_kernel_mapping_path(self, small_scene):
        _, tensor = small_scene
        pipe = MPUPipeline(width=16)
        maps, trace = pipe.kernel_mapping(
            tensor.coords, tensor.coords, kernel_offsets(3, 3)
        )
        ref = kernel_map_hash(tensor.coords, tensor.coords, 3, 1)
        assert set(maps) == ref.as_set()
        # Fig. 7 red path: merge + detect-intersection, no distance stage.
        assert trace.active_stages() == ["FS", "MS", "DI"]
        assert trace.elements["CD"] == 0

    def test_knn_path(self, small_scene):
        cloud, _ = small_scene
        pipe = MPUPipeline(width=16)
        assert pipe.verify_knn(cloud.points[:8], cloud.points, 6)
        _, trace = pipe.knn(cloud.points[:8], cloud.points, 6)
        # Fig. 7 green path: DI bypassed, MS->BF loop active.
        assert "DI" not in trace.active_stages()
        assert "MS->BF" in trace.loops

    def test_fps_path(self, small_scene):
        cloud, _ = small_scene
        pipe = MPUPipeline(width=16)
        assert pipe.verify_fps(cloud.points, 16)
        _, trace = pipe.fps(cloud.points, 16)
        # Fig. 7 blue path: forwarding through FS/CD/ST only.
        assert trace.active_stages() == ["FS", "CD", "ST"]
        assert {"CD->FS", "ST->CD"} <= trace.loops

    @pytest.mark.parametrize("lattice", [
        # Points 1 and 2 are equidistant from point 0.
        [[-1, 3, 1], [-1, 0, 1], [1, 2, 3]],
        [[1, -3, 0], [2, 0, 1], [2, -2, -3]],
    ])
    def test_fps_breaks_ties_like_the_reference(self, lattice):
        pipe = MPUPipeline()
        assert pipe.verify_fps(np.array(lattice) * 0.1, 3)

    def test_fps_matches_reference_on_lattices(self):
        """Integer lattices scaled by 0.1 are full of equidistant points;
        every tie must fall the way the reference breaks it."""
        pipe = MPUPipeline()
        rng = np.random.default_rng(0)
        grid = np.stack(np.meshgrid(*[np.arange(3)] * 3), -1).reshape(-1, 3)
        for _ in range(100):
            cloud = rng.integers(-3, 4, size=(int(rng.integers(3, 30)), 3))
            assert pipe.verify_fps(cloud * 0.1, 8)
            assert pipe.verify_fps(rng.permutation(grid) * 0.1, 10)

    def test_knn_ranks_exact_distances_of_tiny_clouds(self):
        """Clouds 1e-4 across: their squared distances sit far below any
        fixed-point grid, yet every neighbour must rank as the reference
        ranks it."""
        pipe = MPUPipeline()
        rng = np.random.default_rng(0)
        for _ in range(20):
            refs = rng.random((40, 3)) * 1e-4
            assert pipe.verify_knn(refs[:10] + 1e-5, refs, 5)

    @pytest.mark.parametrize("spacing", [1.0, 0.1])
    def test_knn_matches_reference_on_lattices(self, spacing):
        """Lattices are full of equidistant neighbours.  At spacing 1 the
        distances are exact, so ties break by index; at 0.1 "equal"
        distances may differ in the last bit, and each must rank by the
        reference's own value, not by a rounded one."""
        pipe = MPUPipeline()
        rng = np.random.default_rng(1)
        for _ in range(40):
            refs = rng.integers(-2, 3, size=(int(rng.integers(5, 40)), 3))
            queries = rng.integers(-2, 3, size=(6, 3))
            assert pipe.verify_knn(queries * spacing, refs * spacing, 5)

    def test_stage_names_constant(self):
        assert STAGES == ("FS", "CD", "ST", "BF", "MS", "DI")

    def test_downsampled_kernel_mapping(self, small_scene):
        _, tensor = small_scene
        down = tensor.downsample(2)
        pipe = MPUPipeline(width=16)
        offsets = kernel_offsets(2, 3) * tensor.tensor_stride
        maps, _ = pipe.kernel_mapping(tensor.coords, down.coords, offsets)
        ref = kernel_map_hash(tensor.coords, down.coords, 2,
                              tensor.tensor_stride)
        assert set(maps) == ref.as_set()
