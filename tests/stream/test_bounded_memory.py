"""Bounded serving memory: sessions keep only what can be asked for again.

A frame's workload key never repeats within a session, so a session-built
store keeps one trace (``SESSION_STORE_ENTRIES``), each trace's reports
live and die with its store entry, and results carry no trace.  These
tests count entries and container sizes, not RSS: after many frames the
session-built store holds at most one trace, no engine container has
grown with the frame count, and a served frame's trace is freed by
reference counting alone once the next frame is built.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.engine import SimRequest, SimResult, TraceStore, run_cold
from repro.fleet import FleetSession, StreamSpec
from repro.stream import FrameSequence, SequenceConfig, StreamSession
from repro.stream.pipeline import SESSION_STORE_ENTRIES

N_FRAMES = 12
SCALE = 0.25
CFG = SequenceConfig(seed=9, n_frames=N_FRAMES, base_points=900, fov=12.0)


def _sizes(engine) -> dict:
    """Length of every container the engine and its stats hold."""
    return {
        name: len(value)
        for owner in (engine, engine._stats)
        for name, value in vars(owner).items()
        if hasattr(value, "__len__") and not isinstance(value, str)
    }


def _engines(executor) -> list:
    return getattr(executor, "shards", None) or [executor]


def _store(executor) -> TraceStore:
    return executor.l2 if hasattr(executor, "l2") else executor.store


class _Memory:
    """Per-step checks of a session-built executor's memory."""

    def __init__(self, executor) -> None:
        self.executor = executor
        self.store = _store(executor)
        self.engines = _engines(executor)
        self.sizes = None
        self.previous = []

    def step(self, frames) -> None:
        assert self.store.max_entries == SESSION_STORE_ENTRIES == 1
        assert len(self.store) <= 1
        for frame in frames:
            assert frame.completed
            assert not hasattr(frame.result, "trace")
            assert frame.result.input_points > 0
        # Every trace of an earlier step is gone, with no garbage
        # collection: nothing but the store held it, and no trace holds a
        # reference cycle.
        assert all(ref() is None for ref in self.previous)
        self.previous = []
        for frame in frames:
            trace = self.store.get(frame.result.request.workload_key)
            if trace is not None:
                self.previous.append(weakref.ref(trace))
            del trace
        sizes = [_sizes(engine) for engine in self.engines]
        if self.sizes is None:
            self.sizes = sizes
        assert sizes == self.sizes, "an engine container grew with frames"


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_result_carries_no_trace():
    names = {field.name for field in dataclasses.fields(SimResult)}
    assert "trace" not in names and "input_points" in names


def test_stream_session_store_holds_one_trace(no_gc):
    session = StreamSession(FrameSequence(CFG), "MinkNet(o)", scale=SCALE)
    memory = _Memory(session.executor)
    frames = []
    for frame in session.play(N_FRAMES):
        memory.step([frame])
        frames.append(frame)
    assert len(frames) == N_FRAMES
    snapshot = session.executor.stats().map_cache
    assert snapshot["entries"] == 1
    assert snapshot["evictions"] == N_FRAMES - 1
    assert session.executor.stats().trace_builds == N_FRAMES


@pytest.mark.parametrize("n_shards", [0, 2], ids=["engine", "cluster"])
def test_fleet_session_store_holds_one_trace(no_gc, n_shards):
    specs = [
        StreamSpec(name=f"veh{v}",
                   sequence=FrameSequence(SequenceConfig(
                       seed=9, n_frames=N_FRAMES, base_points=900, fov=12.0,
                       start_x=1.0 * v, sensor_seed=v)),
                   scale=SCALE)
        for v in range(3)
    ]
    fleet = FleetSession(specs, n_shards=n_shards)
    memory = _Memory(fleet.executor)
    rounds = 0
    for round_out in fleet.play():
        memory.step([frame for _, frame in round_out])
        rounds += 1
    assert rounds == N_FRAMES
    assert len(_store(fleet.executor)) == 1
    # Kept results are the session's output; none of them pins a trace.
    kept = fleet.results()
    assert [len(frames) for frames in kept.values()] == [N_FRAMES] * 3


def test_fleet_keeps_its_disk_tier(tmp_path):
    """A session-built cluster's one-entry store still spills to disk."""
    spec = StreamSpec(name="veh0", sequence=FrameSequence(CFG), scale=SCALE,
                      n_frames=2)
    fleet = FleetSession([spec], cache_dir=tmp_path)
    fleet.run()
    store = fleet.executor.l2
    assert store.max_entries == 1 and store.cache_dir == tmp_path
    assert len(list(tmp_path.glob("*.trace"))) == 2


@pytest.mark.parametrize("n_shards", [0, 2], ids=["engine", "cluster"])
def test_fleet_streams_sharing_a_sequence_stay_bit_identical(n_shards):
    """Two streams over one FrameSequence request the same workload in
    every round: the one-entry store serves the second from the first's
    trace and report, and both equal the cold oracle."""
    sequence = FrameSequence(SequenceConfig(seed=9, n_frames=3,
                                            base_points=900, fov=12.0))
    specs = [StreamSpec(name=name, sequence=sequence, scale=SCALE)
             for name in ("veh0", "veh1")]
    fleet = FleetSession(specs, n_shards=n_shards)
    results = fleet.run()
    notation = sequence.notation("MinkNet(o)")
    for index in range(3):
        cold = run_cold(SimRequest(benchmark=notation, scale=SCALE,
                                   seed=index))
        for name in ("veh0", "veh1"):
            frame = results[name][index]
            assert frame.completed
            assert frame.result.reports == cold.reports
            assert frame.result.input_points == cold.input_points
    engines = [engine.stats() for engine in _engines(fleet.executor)]
    assert sum(s.trace_builds for s in engines) == 3
    assert sum(s.trace_reuses for s in engines) == 3
    assert sum(s.report_reuses for s in engines) == 3
