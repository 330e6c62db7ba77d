"""RecomputeLedger unit behaviour: ring bound, aggregates, context."""

import json
import time

import pytest

from repro.obs.ledger import (
    RecomputeLedger,
    current_ledger,
    ledger_frame,
    use_ledger,
)


class TestEvents:
    def test_ring_bound_drops_oldest_but_keeps_totals(self):
        ledger = RecomputeLedger(max_events=4)
        for i in range(6):
            ledger.eviction("memory", f"k{i}", 10)
        assert len(ledger.events()) == 4
        assert ledger.dropped == 2
        # Aggregates are exact regardless of the ring wrapping.
        assert ledger.evictions["memory"] == {"count": 6, "bytes": 60}

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
    def test_dump_jsonl_one_parseable_object_per_event(self, tmp_path):
        ledger = RecomputeLedger()
        with use_ledger(ledger), ledger_frame("f7"):
            ledger.eviction("memory", "aa", 100)
            ledger.eviction("disk", "bb", 7)
        path = tmp_path / "ledger.jsonl"
        assert ledger.dump_jsonl(str(path)) == 2
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0] == {"kind": "eviction", "frame": "f7",
                             "tier": "memory", "key": "aa", "bytes": 100}
        assert events[1] == {"kind": "eviction", "frame": "f7",
                             "tier": "disk", "key": "bb", "bytes": 7}
        assert ledger.summary() == {
            "events": 2, "dropped": 0,
            "evictions": {"memory": {"count": 1, "bytes": 100},
                          "disk": {"count": 1, "bytes": 7}},
        }


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
            ledger.eviction("memory", "a", 1)
            with ledger_frame("f0"):
                ledger.eviction("memory", "b", 1)
            ledger.eviction("memory", "c", 1)
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


class TestReport:
    def test_trace_report_joins_evictions_by_frame(self, tmp_path):
        """``trace-report --ledger-file``: evictions per tier, and each
        slow frame annotated with the evictions its build caused."""
        from repro.obs.report import render_report

        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(json.dumps(
            {"name": "frame", "attrs": {"index": i}, "dur_ms": 10.0 + i,
             "children": []}) for i in range(2)) + "\n")
        ledger = RecomputeLedger()
        with use_ledger(ledger), ledger_frame("f1"):
            ledger.eviction("memory", "aa", 2_000_000)
            ledger.eviction("memory", "bb", 1_000_000)
        path = tmp_path / "ledger.jsonl"
        ledger.dump_jsonl(str(path))
        out = render_report(str(trace), top=2, ledger=str(path))
        assert "evictions by tier:" in out
        assert "memory            2 entries       3.00 MB" in out
        slow = out.split("top 2 slow frame(s):")[1]
        first, second = slow.split("frame(index=0)")
        assert "frame(index=1)" in first and "evicted entries: 2" in first
        assert "evicted entries" not in second
