"""Streaming equivalence properties: streams may never change a result.

The acceptance contract for the streaming subsystem: serving a frame
sequence through :class:`~repro.stream.StreamSession` — whole-cloud
neighbour search, geometry-only execution, engine or cluster — yields
per-frame ``PerfReport``s exactly equal (dataclass equality, every float)
to cold per-frame sequential runs (:func:`repro.engine.run_cold` on the
same sourced notation).  Geometry-only ghosts and cache tiers are
wall-clock phenomena only.

A second family proves the geometry-only claim at its root: a
geometry-only run's report equals a *full functional* run's report on the
same frames (features computed and then ignored), for every network that
declares ``coords_only_mapping`` (the SparseConv models and PointNet++(c),
(ps) and (s)).
"""

import pytest

from repro.cluster import EngineCluster
from repro.engine import SimRequest, SimulationEngine, run_cold
from repro.engine.backends import backend_names
from repro.stream import FrameSequence, SequenceConfig, StreamSession

N_FRAMES = 3
CFG = SequenceConfig(seed=11, n_frames=N_FRAMES, base_points=2200,
                     fov=16.0, speed=2.0, n_dynamic=2)

# One SparseConv stream (kernel maps and voxelize) and two PointNet++
# streams (FPS and ball query; (s) adds the kNN of feature propagation),
# all geometry-only, against full functional cold runs.
BENCHMARKS = ["MinkNet(o)", "PointNet++(c)", "PointNet++(s)"]


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


@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_stream_without_tiles_bit_identical(sequence, oracles, bench_name):
    """The default session: kNN and ball query rank each whole frame."""
    session = StreamSession(sequence, bench_name, scale=0.25)
    _assert_stream_matches(session, oracles[bench_name])
    assert session.geometry_only  # the mode under test is actually on


@pytest.mark.parametrize("n_shards", [1, 2])
def test_cluster_stream_bit_identical(sequence, oracles, n_shards, tmp_path):
    """Engine-vs-cluster execution: shard L1s, shared L2, disk spill —
    still the cold oracle, bit for bit."""
    for bench_name in BENCHMARKS:
        cluster = EngineCluster(
            n_shards=n_shards,
            backends=("pointacc",),
            cache_dir=tmp_path / bench_name,
        )
        session = StreamSession(sequence, bench_name, scale=0.25,
                                cluster=cluster)
        _assert_stream_matches(session, oracles[bench_name])


def test_geometry_only_equals_full_functional(sequence, duplicated_source):
    """The root claim behind geometry-only execution: neither feature
    arithmetic nor weight values can reach a report.  Run the same clouds
    with geometry_only off (full weights, full feature math) and on
    (weightless model, ghost features); every backend's report — and
    mesorasi's rejection of SparseConv — must be equal exactly, on
    stream-sourced frames, on dataset clouds (at scale 0.005 smaller than
    a ball query's k) and on a cloud with duplicate points."""
    backends = tuple(backend_names())
    for bench in ("MinkNet(i)", "MinkNet(o)", "Mini-MinkowskiUNet",
                  "PointNet++(c)", "PointNet++(ps)", "PointNet++(s)"):
        cases = [(sequence.notation(bench), 0.25, i) for i in range(N_FRAMES)]
        cases += [(bench, 0.06, seed) for seed in (0, 1)]
        cases += [(bench, 0.005, 0), (f"{bench}@{duplicated_source}", 0.02, 0)]
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
    """Replaying the sequence on a hot session (trace store full, every
    trace with its report) must still match the oracle.  A session-built
    store keeps one trace, so the session is given an engine with a
    default store."""
    session = StreamSession(sequence, "PointNet++(c)", scale=0.25,
                            engine=SimulationEngine(backends=("pointacc",)))
    session.run(N_FRAMES)
    session._next_frame = 0  # rewind: same frames, hot caches
    _assert_stream_matches(session, oracles["PointNet++(c)"])
    assert session.executor.stats().trace_reuses == N_FRAMES
