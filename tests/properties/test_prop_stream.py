"""Streaming equivalence properties: streams may never change a result.

The acceptance contract for the streaming subsystem: serving a frame
sequence through :class:`~repro.stream.StreamSession` — tile-granular
incremental reuse, geometry-only execution, engine or cluster, any tile
size and halo width — yields per-frame ``PerfReport``s exactly equal
(dataclass equality, every float) to cold per-frame sequential runs
(:func:`repro.engine.run_cold` on the same sourced notation).  Tiles,
halos, certificates, geometry-only ghosts and cache tiers are wall-clock
phenomena only.

A second family proves the geometry-only claim at its root: a
geometry-only run's report equals a *full functional* run's report on the
same frames (features computed and then ignored), for the SparseConv
family where the mode applies.
"""

import pytest

from repro.cluster import EngineCluster
from repro.engine import SimRequest, run_cold
from repro.engine.backends import backend_names
from repro.stream import (
    FrameSequence,
    SequenceConfig,
    StreamSession,
    TileMapCache,
)

N_FRAMES = 3
CFG = SequenceConfig(seed=11, n_frames=N_FRAMES, base_points=2200,
                     fov=16.0, speed=2.0, n_dynamic=2)

TILE_CONFIGS = [
    {"tile_size": 3.0, "halo": 1},
    {"tile_size": 6.0, "halo": 1},
    {"tile_size": 3.0, "halo": 2},
    {"tile_size": 10.0, "halo": 0},
]

# One SparseConv stream (geometry-only; the front declines its kernel maps
# and voxelize) and one PointNet++ stream (FPS passthrough + ball-query/kNN
# tiles + functional).
BENCHMARKS = ["MinkNet(o)", "PointNet++(c)"]


@pytest.fixture(scope="module")
def sequence():
    return FrameSequence(CFG)


@pytest.fixture(scope="module")
def oracles(sequence):
    """Cold sequential per-frame runs — computed once per benchmark."""
    out = {}
    for benchmark in BENCHMARKS:
        notation = sequence.notation(benchmark)
        out[benchmark] = [
            run_cold(SimRequest(benchmark=notation, scale=0.25, seed=i))
            for i in range(N_FRAMES)
        ]
    return out


def _assert_stream_matches(session, oracle):
    results = session.run(N_FRAMES)
    assert len(results) == len(oracle)
    for cold, frame in zip(oracle, results):
        assert frame.completed and not frame.dropped
        # Dataclass equality covers every field of every LayerRecord —
        # seconds, cycles, DRAM bytes, the full energy ledger.
        assert frame.result.reports["pointacc"] == cold.reports["pointacc"]


@pytest.mark.parametrize("tiles", TILE_CONFIGS,
                         ids=lambda t: f"t{t['tile_size']}h{t['halo']}")
@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_stream_bit_identical_across_tile_configs(sequence, oracles,
                                                  bench_name, tiles):
    session = StreamSession(
        sequence, bench_name, scale=0.25, min_points=64, **tiles
    )
    _assert_stream_matches(session, oracles[bench_name])
    if bench_name == "MinkNet(o)":
        assert session.geometry_only  # the mode under test is actually on
        assert session.tile_cache.stats().decomposed_calls == 0
    else:
        assert session.tile_cache.stats().decomposed_calls > 0


@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_stream_without_tiles_bit_identical(sequence, oracles, bench_name):
    session = StreamSession(sequence, bench_name, scale=0.25, use_tiles=False)
    _assert_stream_matches(session, oracles[bench_name])


@pytest.mark.parametrize("n_shards", [1, 2])
def test_cluster_stream_bit_identical(sequence, oracles, n_shards, tmp_path):
    """Engine-vs-cluster execution: shared tile front, shared L2, disk
    spill — still the cold oracle, bit for bit."""
    cluster = EngineCluster(
        n_shards=n_shards,
        backends=("pointacc",),
        tile_cache=TileMapCache(tile_size=4.0, halo=1, min_points=64),
        cache_dir=tmp_path / "spill",
    )
    session = StreamSession(sequence, "MinkNet(o)", scale=0.25, cluster=cluster)
    _assert_stream_matches(session, oracles["MinkNet(o)"])
    # The front is installed but declines every SparseConv mapping call.
    assert cluster.tile_cache.stats().decomposed_calls == 0


def test_geometry_only_equals_full_functional(sequence):
    """The root claim behind geometry-only execution: neither feature
    arithmetic nor weight values can reach a report.  Run the same clouds
    with geometry_only off (full weights, full feature math) and on
    (weightless model, ghost features); every backend's report — and
    mesorasi's rejection of SparseConv — must be equal exactly, on
    stream-sourced frames and on dataset clouds."""
    backends = tuple(backend_names())
    for bench in ("MinkNet(i)", "MinkNet(o)", "Mini-MinkowskiUNet"):
        cases = [(sequence.notation(bench), 0.25, i) for i in range(N_FRAMES)]
        cases += [(bench, 0.06, seed) for seed in (0, 1)]
        for notation, scale, seed in cases:
            functional, geometry = (
                run_cold(SimRequest(benchmark=notation, scale=scale, seed=seed,
                                    geometry_only=mode), backends=backends)
                for mode in (False, True)
            )
            assert functional.reports == geometry.reports, (notation, seed)
            assert functional.errors == geometry.errors, (notation, seed)
            assert set(functional.reports) | set(functional.errors) == set(
                backends
            )


def test_warm_second_pass_still_bit_identical(sequence, oracles):
    """Replaying the sequence on a hot session (every tile cached, trace
    memo full) must still match the oracle."""
    session = StreamSession(sequence, "PointNet++(c)", scale=0.25,
                            min_points=64)
    session.run(N_FRAMES)
    session._next_frame = 0  # rewind: same frames, hot caches
    _assert_stream_matches(session, oracles["PointNet++(c)"])
    assert session.tile_cache.stats().tile_hits > 0
