"""Ledger properties: completeness and bit-identity.

Two contracts from the observability acceptance criteria:

* **Completeness** — with a ledger installed, every tile the batched
  planner plans is classified by exactly one tile event: per
  ``(frame, op)``, the tile-event counts (hits + recomputes + fallbacks)
  sum exactly to the planned tile counts on the call events.  Holds for
  every in-process executor shape (single engine, cluster shards, fleet
  rounds).  Worker processes keep their events process-local, so the
  property is stated for ``workers=0`` — the mode where the parent's
  ledger sees the planner.
* **Bit-identity** — the ledger is observability only: a run with a
  ledger installed yields reports equal to a run without one.
"""

from collections import Counter

import pytest

from repro.cluster import EngineCluster
from repro.obs.ledger import RecomputeLedger, TILE_CAUSES, use_ledger
from repro.stream import (
    FrameSequence,
    SequenceConfig,
    StreamSession,
    TileMapCache,
)

N_FRAMES = 3
SCALE = 0.2
CFG = SequenceConfig(seed=11, n_frames=N_FRAMES, base_points=2200,
                     fov=16.0, speed=2.0, n_dynamic=2)

# One SparseConv stream (no tiles: the front declines kernel maps and
# voxelize) and one PointNet++ stream (ball-query/kNN tiles).
BENCHMARKS = ["MinkNet(o)", "PointNet++(c)"]


def _check_completeness(ledger):
    """Per (frame, op): tile-event counts sum to planned call tiles."""
    planned = Counter()
    classified = Counter()
    for event in ledger.events():
        key = (event["frame"], event.get("op"))
        if event["kind"] == "call" and event["cause"] == "planned":
            planned[key] += event["tiles"]
        elif event["kind"] == "tile":
            classified[key] += event["n"]
    assert planned, "run emitted no planned calls — nothing was exercised"
    assert classified == planned
    # Every frame tag was stamped (no event escaped the request scope).
    assert all(frame is not None for frame, _ in planned)
    # No cause outside the documented taxonomy.
    causes = {e["cause"] for e in ledger.events() if e["kind"] == "tile"}
    assert causes <= set(TILE_CAUSES)


@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_engine_session_classifies_every_planned_tile(bench_name):
    ledger = RecomputeLedger()
    with use_ledger(ledger):
        session = StreamSession(FrameSequence(CFG), bench_name, scale=SCALE)
        session.run(N_FRAMES)
        summary = session.summary()
    if bench_name == "MinkNet(o)":
        # The front declines kernel maps and voxelize: nothing is planned,
        # so no call or tile event may reach the ledger either.
        assert summary["tiles"]["decomposed_calls"] == 0
        assert not [e for e in ledger.events()
                    if e["kind"] in ("call", "tile")]
        assert ledger.calls == 0
    else:
        _check_completeness(ledger)
    assert summary["ledger"]["planned_tiles"] == ledger.planned_tiles


def test_cluster_session_classifies_every_planned_tile():
    ledger = RecomputeLedger()
    with use_ledger(ledger):
        cluster = EngineCluster(
            n_shards=2, backends=("pointacc",),
            tile_cache=TileMapCache(tile_size=4.0, halo=1),
        )
        with StreamSession(FrameSequence(CFG), "PointNet++(c)", scale=SCALE,
                           cluster=cluster) as session:
            session.run(N_FRAMES)
    _check_completeness(ledger)


def test_fleet_session_classifies_every_planned_tile():
    from repro.fleet import FleetSession, StreamSpec

    # Distinct sequence seeds: identical streams would collapse into the
    # engine's whole-request trace memo and never reach the planner.
    specs = [
        StreamSpec(name=f"veh{i}",
                   sequence=FrameSequence(
                       SequenceConfig(seed=11 + i, n_frames=N_FRAMES,
                                      base_points=2200, fov=16.0,
                                      speed=2.0, n_dynamic=2)),
                   benchmark="PointNet++(c)", scale=SCALE, n_frames=2)
        for i in range(2)
    ]
    ledger = RecomputeLedger()
    with use_ledger(ledger):
        session = FleetSession(specs, backends=("pointacc",), n_shards=1)
        session.run()
        summary = session.summary()
    _check_completeness(ledger)
    # Fleet frame tags carry the stream name, so per-vehicle attribution
    # survives the join.
    frames = {e["frame"] for e in ledger.events() if e["kind"] == "call"}
    assert any(str(f).startswith("veh0/") for f in frames)
    assert any(str(f).startswith("veh1/") for f in frames)
    assert summary["ledger"]["calls"] == ledger.calls


@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_ledger_preserves_bit_identity(bench_name):
    """The ledger may change wall-clock only: reports from a ledgered
    session equal those from an unledgered one."""
    plain = StreamSession(FrameSequence(CFG), bench_name,
                          scale=SCALE).run(N_FRAMES)
    with use_ledger(RecomputeLedger()):
        ledgered = StreamSession(FrameSequence(CFG), bench_name,
                                 scale=SCALE).run(N_FRAMES)
    assert len(plain) == len(ledgered)
    for a, b in zip(plain, ledgered):
        assert a.result.reports == b.result.reports


def test_memory_evictions_reach_the_ledger():
    """Force the engine's L1 map cache small enough to evict during a
    short run; each drop must surface as a (key, tier, bytes) event."""
    from repro.engine import SimulationEngine
    from repro.engine.map_cache import MapCache

    ledger = RecomputeLedger()
    with use_ledger(ledger):
        engine = SimulationEngine(
            backends=("pointacc",),
            map_cache=MapCache(max_entries=8),
            tile_cache=TileMapCache(tile_size=4.0, halo=1),
        )
        StreamSession(FrameSequence(CFG), "MinkNet(o)", scale=SCALE,
                      engine=engine).run(2)
    evictions = [e for e in ledger.events() if e["kind"] == "eviction"]
    assert evictions, "an 8-entry L1 must evict on a tiled frame"
    assert all(e["tier"] == "memory" and e["bytes"] >= 0 for e in evictions)
    assert ledger.evictions["memory"]["count"] == len(evictions)
