"""RecomputeLedger unit behaviour: ring bound, aggregates, context."""

import json
import time

import pytest

from repro.obs.ledger import (
    RecomputeLedger,
    TILE_CAUSES,
    current_ledger,
    ledger_frame,
    use_ledger,
)


class TestEvents:
    def test_ring_bound_drops_oldest_but_keeps_totals(self):
        ledger = RecomputeLedger(max_events=4)
        for i in range(6):
            ledger.tile("knn", "recompute(cold)", n=1)
        assert len(ledger.events()) == 4
        assert ledger.dropped == 2
        # Aggregates are exact regardless of the ring wrapping.
        assert ledger.causes["recompute(cold)"] == 6

    def test_tile_strips_op_suffix_and_ignores_empty(self):
        ledger = RecomputeLedger()
        ledger.tile("knn/tile", "l1_hit", n=3)
        ledger.tile("knn/tile", "l1_hit", n=0)
        (event,) = ledger.events()
        assert event["op"] == "knn"
        assert event["n"] == 3

    def test_call_accounting_splits_probe_hits_from_planned(self):
        ledger = RecomputeLedger()
        ledger.call("knn", 0, cause="probe_hit")
        ledger.call("knn", 12)
        assert ledger.calls == 2
        assert ledger.probe_hits == 1
        assert ledger.planned_tiles == 12
        assert ledger.causes["probe_hit"] == 1

    def test_eviction_aggregates_per_tier(self):
        ledger = RecomputeLedger()
        ledger.eviction("memory", "aa", 100)
        ledger.eviction("memory", "bb", 50)
        ledger.eviction("disk", "cc", 999)
        assert ledger.evictions["memory"] == {"count": 2, "bytes": 150}
        assert ledger.evictions["disk"] == {"count": 1, "bytes": 999}

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            RecomputeLedger(max_events=0)


class TestSummaryAndDump:
    def test_summary_counts_recomputed_tiles(self):
        ledger = RecomputeLedger()
        ledger.call("knn", 10)
        ledger.tile("knn", "l1_hit", 4)
        ledger.tile("knn", "recompute(cold)", 5)
        ledger.tile("knn", "recompute(halo_moved)", 1)
        summary = ledger.summary()
        assert summary["planned_tiles"] == 10
        assert summary["recomputed_tiles"] == 6
        assert summary["causes"]["l1_hit"] == 4
        assert summary["dropped"] == 0

    def test_every_tile_cause_is_summarizable(self):
        ledger = RecomputeLedger()
        for cause in TILE_CAUSES:
            if cause == "probe_hit":
                ledger.call("knn", 0, cause="probe_hit")
            else:
                ledger.tile("knn", cause, 2)
        assert set(ledger.summary()["causes"]) == set(TILE_CAUSES)

    def test_dump_jsonl_one_parseable_object_per_event(self, tmp_path):
        ledger = RecomputeLedger()
        with use_ledger(ledger), ledger_frame("f7"):
            ledger.tile("ball_query", "l2_hit", 2)
            ledger.call("knn", 3)
        path = tmp_path / "ledger.jsonl"
        assert ledger.dump_jsonl(str(path)) == 2
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0] == {"kind": "tile", "frame": "f7",
                             "op": "ball_query", "cause": "l2_hit", "n": 2}
        assert events[1] == {"kind": "call", "frame": "f7", "op": "knn",
                             "cause": "planned", "tiles": 3}


class TestContext:
    def test_use_ledger_installs_and_nests(self):
        assert current_ledger() is None
        outer, inner = RecomputeLedger(), RecomputeLedger()
        with use_ledger(outer):
            assert current_ledger() is outer
            with use_ledger(inner):
                assert current_ledger() is inner
            assert current_ledger() is outer
        assert current_ledger() is None

    def test_ledger_frame_stamps_and_restores(self):
        ledger = RecomputeLedger()
        with use_ledger(ledger):
            ledger.tile("knn", "l1_hit", 1)
            with ledger_frame("f0"):
                ledger.tile("knn", "l1_hit", 1)
            ledger.tile("knn", "l1_hit", 1)
        frames = [e["frame"] for e in ledger.events()]
        assert frames == [None, "f0", None]

    def test_ledger_frame_is_noop_without_active_ledger(self):
        with ledger_frame("f0"):
            assert current_ledger() is None

    def test_disabled_site_cost_is_negligible(self):
        """The disabled path every emission site pays is one module-global
        read plus a None check; keep it in the same per-site budget the
        span layer holds (a frame crosses tens of sites, a frame is tens
        of milliseconds — microseconds per site would be invisible)."""
        n = 100_000
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                current_ledger()
            best = min(best, time.perf_counter() - t0)
        assert best / n < 5e-6
