"""Fleet equivalence properties: sharing may never change a result.

The acceptance contract of ``repro.fleet``: each stream served through a
:class:`~repro.fleet.FleetSession` — interleaved rounds, shared executor,
world-keyed cross-stream tile store, incremental voxelizer — produces
per-frame ``PerfReport``\\ s exactly equal to running that stream **cold
and alone** (:func:`repro.engine.run_cold` per frame: fresh functional
simulation, no caches, no fleet).  The matrix covers {2, 4} streams x
overlapping vs disjoint world regions x engine vs cluster execution x
a SparseConv network (whole-op digest sharing only) vs a PointNet++
network (kNN / ball-query world tiles, shared across streams).
"""

import pytest

from repro.engine import SimRequest, run_cold
from repro.fleet import FleetSession, StreamSpec
from repro.stream import FrameSequence, SequenceConfig

N_FRAMES = 2
SCALE = 0.2
BASE = dict(n_frames=N_FRAMES, base_points=1800, fov=14.0, speed=2.0,
            n_dynamic=2)


def _configs(n_streams: int, regions: str):
    if regions == "overlapping":
        # One world: staggered trajectories and per-vehicle sensor noise.
        return [
            SequenceConfig(seed=31, start_x=0.4 * i, sensor_seed=i, **BASE)
            for i in range(n_streams)
        ]
    return [SequenceConfig(seed=40 + i, **BASE) for i in range(n_streams)]


BENCHMARKS = ["MinkNet(o)", "PointNet++(c)"]


def _specs(n_streams: int, regions: str, benchmark: str):
    return [
        StreamSpec(name=f"veh{i}", sequence=FrameSequence(config),
                   benchmark=benchmark, scale=SCALE, n_frames=N_FRAMES)
        for i, config in enumerate(_configs(n_streams, regions))
    ]


@pytest.fixture(scope="module")
def oracles():
    """Cold per-frame runs for every (sequence, network) the matrix uses,
    computed once per distinct pair."""
    out = {}
    for benchmark in BENCHMARKS:
        for regions in ("overlapping", "disjoint"):
            for spec in _specs(4, regions, benchmark):
                notation = spec.sequence.notation(benchmark)
                out[notation] = [
                    run_cold(SimRequest(benchmark=notation, scale=SCALE,
                                        seed=i))
                    for i in range(N_FRAMES)
                ]
    return out


@pytest.mark.parametrize("bench_name", BENCHMARKS)
@pytest.mark.parametrize("n_shards", [0, 2], ids=["engine", "cluster"])
@pytest.mark.parametrize("regions", ["overlapping", "disjoint"])
@pytest.mark.parametrize("n_streams", [2, 4])
def test_fleet_bit_identical_to_cold_alone(oracles, n_streams, regions,
                                           n_shards, bench_name):
    specs = _specs(n_streams, regions, bench_name)
    fleet = FleetSession(specs, n_shards=n_shards, min_points=64)
    results = fleet.run()
    for spec in specs:
        cold = oracles[spec.sequence.notation(bench_name)]
        frames = results[spec.name]
        assert len(frames) == N_FRAMES
        for cold_result, frame in zip(cold, frames):
            assert frame.completed and not frame.dropped
            # Dataclass equality covers every field of every LayerRecord.
            assert (
                frame.result.reports["pointacc"]
                == cold_result.reports["pointacc"]
            ), f"{spec.name} frame {frame.index} diverged from cold oracle"
    world = fleet.world_store.stats()
    if bench_name == "MinkNet(o)":
        # Kernel maps and voxelize never reach the tile front.
        assert fleet.world_store.inner.stats().decomposed_calls == 0
        assert world.lookups == 0
    elif regions == "overlapping":
        assert world.cross_hits > 0  # sharing actually engaged
    else:
        assert world.cross_hits == 0  # and never invents overlap
