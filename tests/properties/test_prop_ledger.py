"""Ledger properties: eviction lineage and bit-identity.

Two contracts from the observability acceptance criteria:

* **Lineage** — with a ledger installed, every trace the engine's trace
  store drops surfaces as one ``eviction`` event, stamped with the frame
  whose build caused it.
* **Bit-identity** — the ledger is observability only: a run with a
  ledger installed yields reports equal to a run without one.
"""

import pytest

from repro.obs.ledger import RecomputeLedger, use_ledger
from repro.stream import FrameSequence, SequenceConfig, StreamSession

N_FRAMES = 3
SCALE = 0.2
CFG = SequenceConfig(seed=11, n_frames=N_FRAMES, base_points=2200,
                     fov=16.0, speed=2.0, n_dynamic=2)

# One SparseConv stream (kernel maps, voxelize) and one PointNet++ stream
# (FPS, ball query).
BENCHMARKS = ["MinkNet(o)", "PointNet++(c)"]


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
    """Force the engine's trace store down to one entry; each trace it
    drops must surface as a (key, tier, bytes) event."""
    from repro.engine import SimulationEngine, TraceStore

    ledger = RecomputeLedger()
    with use_ledger(ledger):
        engine = SimulationEngine(backends=("pointacc",),
                                  store=TraceStore(max_entries=1))
        StreamSession(FrameSequence(CFG), "MinkNet(o)", scale=SCALE,
                      engine=engine).run(N_FRAMES)
    evictions = [e for e in ledger.events() if e["kind"] == "eviction"]
    assert len(evictions) == N_FRAMES - 1, "each new frame evicts the last"
    # MinkNet traces carry their kernel-map tables.
    assert all(e["tier"] == "memory" and e["bytes"] > 0 for e in evictions)
    assert ledger.evictions["memory"]["count"] == len(evictions)
    # Every eviction joins back to the frame whose build caused it.
    assert [e["frame"] for e in evictions] == ["f1", "f2"]
