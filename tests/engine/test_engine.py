"""Unit tests for the simulation engine: scheduler, backends, engine plumbing."""

import pytest

from repro.engine import (
    SimRequest,
    SimulationEngine,
    TraceStore,
    backend_names,
    estimate_points,
    resolve_backend,
    run_cold,
    schedule,
)
from repro.obs.ledger import RecomputeLedger, use_ledger


class TestScheduler:
    def _reqs(self):
        return [
            SimRequest("MinkNet(o)", scale=0.2, seed=0),          # large
            SimRequest("PointNet++(c)", scale=0.2, seed=1),       # small
            SimRequest("PointNet++(c)", scale=0.2, seed=0, priority=5),
            SimRequest("PointNet++(c)", scale=0.2, seed=1),       # dup of [1]
        ]

    def test_fifo_preserves_order(self):
        assert schedule(self._reqs(), "fifo") == [0, 1, 2, 3]

    def test_priority_is_stable(self):
        order = schedule(self._reqs(), "priority")
        assert order[0] == 2  # highest priority first
        assert order[1:] == [0, 1, 3]  # ties keep arrival order

    def test_bucketed_groups_small_first_and_duplicates_adjacent(self):
        order = schedule(self._reqs(), "bucketed")
        assert order[-1] == 0  # the big MinkNet cloud goes last
        dup_positions = [order.index(1), order.index(3)]
        assert abs(dup_positions[0] - dup_positions[1]) == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            schedule(self._reqs(), "lifo")

    def test_bucketed_equal_keys_keep_submission_order(self):
        # Regression: requests identical under the sort key must come back
        # in submission order — the explicit index tie-break, not sort
        # internals, decides.
        reqs = [SimRequest("PointNet++(c)", scale=0.2, seed=7, tag=f"t{i}")
                for i in range(6)]
        assert schedule(reqs, "bucketed") == list(range(6))

    def test_bucketed_normalizes_workload_key_types(self):
        # scale=1 vs 1.0 is the same workload; both spellings sort adjacent
        # and deterministically, int/float mix notwithstanding.
        reqs = [
            SimRequest("PointNet++(c)", scale=1.0, seed=0),
            SimRequest("PointNet++(c)", scale=0.2, seed=0),
            SimRequest("PointNet++(c)", scale=1, seed=0),
        ]
        order = schedule(reqs, "bucketed")
        assert order == [1, 0, 2]  # small bucket first; dup keeps 0 before 2

    def test_bucketed_deterministic_across_calls(self):
        reqs = self._reqs() * 3
        orders = {tuple(schedule(reqs, "bucketed")) for _ in range(5)}
        assert len(orders) == 1

    def test_estimate_points_scales(self):
        small = estimate_points("PointNet++(c)", 0.1)
        big = estimate_points("PointNet++(c)", 1.0)
        assert 16 <= small < big
        # n_points override honored (S3DIS blocks are 4096 points)
        assert estimate_points("PointNet++(s)", 1.0) == 4096


class TestBackends:
    def test_names_cover_accelerators_and_platforms(self):
        names = backend_names()
        assert "pointacc" in names and "mesorasi" in names
        assert "RTX 2080Ti" in names

    def test_resolve_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_backend("TPUv9")


class TestSimulationEngine:
    def test_batch_returns_submission_order(self):
        engine = SimulationEngine(backends=("pointacc",), policy="priority")
        reqs = [
            SimRequest("PointNet++(c)", scale=0.1, seed=0, priority=0),
            SimRequest("PointNet++(c)", scale=0.1, seed=1, priority=9),
        ]
        results = engine.run_batch(reqs)
        assert [r.request for r in results] == reqs

    def test_trace_reuse_and_meta_stamp(self):
        engine = SimulationEngine(backends=("pointacc",))
        reqs = [SimRequest("PointNet++(c)", scale=0.1, seed=0)] * 3
        results = engine.run_batch(reqs)
        assert [r.trace_reused for r in results] == [False, True, True]
        trace = engine.store.get(reqs[0].workload_key)
        assert trace.meta["workload_key"] == reqs[0].workload_key
        assert all(r.input_points == trace.input_points > 0 for r in results)
        assert all(r.reports == results[0].reports for r in results)
        stats = engine.stats()
        assert stats.trace_builds == 1 and stats.trace_reuses == 2
        assert stats.report_reuses == 2
        assert stats.throughput_rps > 0

    def test_stream_yields_everything_across_windows(self):
        engine = SimulationEngine(backends=("pointacc",), policy="bucketed")
        reqs = [SimRequest("PointNet++(c)", scale=0.1, seed=i % 2)
                for i in range(5)]
        results = list(engine.stream(iter(reqs), window=2))
        assert len(results) == 5
        assert {r.request.seed for r in results} == {0, 1}

    def test_unsupported_backend_is_isolated(self):
        engine = SimulationEngine(backends=("pointacc", "mesorasi"))
        result = engine.run_batch([SimRequest("MinkNet(i)", scale=0.08)])[0]
        assert "pointacc" in result.reports
        assert "mesorasi" in result.errors
        assert "delayed aggregation" in result.errors["mesorasi"]
        # .report() falls back to the first available backend
        assert result.report().platform.startswith("PointAcc")

    def test_report_raises_when_everything_failed(self):
        result = run_cold(SimRequest("MinkNet(i)", scale=0.08),
                          backends=("mesorasi",))
        assert result.errors
        with pytest.raises(KeyError):
            result.report()

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            SimulationEngine(backends=())
        with pytest.raises(ValueError):
            SimulationEngine(policy="random")
        engine = SimulationEngine(backends=("pointacc",))
        with pytest.raises(ValueError):
            next(engine.stream(iter([]), window=0))

    def test_store_snapshot_in_stats(self):
        engine = SimulationEngine(backends=("pointacc",))
        engine.run_batch([SimRequest("PointNet++(c)", scale=0.1)] * 2)
        snap = engine.stats().map_cache
        assert (snap["hits"], snap["misses"], snap["entries"]) == (1, 1, 1)
        assert snap == engine.stats().summary()["map_cache"]

    def test_shared_store_serves_sibling_engine(self):
        """Two engines on one store: a trace built by one is reused by the
        other, and so is its report, which lives in the trace's entry."""
        store = TraceStore()
        first = SimulationEngine(backends=("pointacc",), store=store)
        sibling = SimulationEngine(backends=("pointacc",), store=store)
        request = SimRequest("PointNet++(c)", scale=0.1)
        built = first.run_batch([request])[0]
        reused = sibling.run_batch([request])[0]
        assert not built.trace_reused and reused.trace_reused
        assert reused.input_points == built.input_points > 0
        assert reused.reports["pointacc"] is built.reports["pointacc"]
        assert store.reports(request.workload_key) == built.reports
        assert sibling.stats().trace_builds == 0
        assert sibling.stats().report_reuses == 1
        assert store.snapshot()["hits"] == 1

    def test_evicting_a_trace_evicts_its_reports(self):
        """One bound for both memos: a workload whose trace was evicted
        recomputes its report (equal to the first), and a resident trace's
        report is served from its entry."""
        store = TraceStore(max_entries=1)
        engine = SimulationEngine(backends=("pointacc",), store=store)
        a = SimRequest("PointNet++(c)", scale=0.1, seed=0)
        b = SimRequest("PointNet++(c)", scale=0.1, seed=1)
        first, _, again, repeat = engine.run_batch([a, b, a, a])
        assert store.reports(b.workload_key) is None
        assert store.reports(a.workload_key) == again.reports
        assert again.reports == first.reports
        assert again.reports["pointacc"] is not first.reports["pointacc"]
        assert repeat.reports["pointacc"] is again.reports["pointacc"]
        stats = engine.stats()
        assert (stats.trace_builds, stats.report_reuses) == (3, 1)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_report_of_an_evicted_entry_is_not_kept(self, overlap):
        """With overlap, the next request's build can evict a one-entry
        store's trace while that trace's report runs: the report is
        served, not memoized, and the counts match the sequential engine."""
        store = TraceStore(max_entries=1)
        engine = SimulationEngine(backends=("pointacc",), store=store,
                                  overlap=overlap)
        a = SimRequest("PointNet++(c)", scale=0.1, seed=0)
        b = SimRequest("PointNet++(c)", scale=0.1, seed=1)
        results = engine.run_batch([a, b, b, a])
        assert store.reports(b.workload_key) is None
        assert store.reports(a.workload_key) == results[3].reports
        stats = engine.stats()
        assert (stats.trace_builds, stats.report_reuses) == (3, 1)
        oracle = {r.seed: run_cold(r).reports for r in (a, b)}
        for result in results:
            assert result.reports == oracle[result.request.seed]

    def test_one_entry_store_rebuilds_alternating_workloads(self):
        """With room for one trace, alternating two workloads rebuilds
        every time, sends each eviction to the ledger tagged with the
        frame whose build caused it, and stays equal to the cold oracle."""
        engine = SimulationEngine(backends=("pointacc",),
                                  store=TraceStore(max_entries=1))
        a = SimRequest("PointNet++(c)", scale=0.1, seed=0)
        b = SimRequest("PointNet++(c)", scale=0.1, seed=1)
        requests = [SimRequest(r.benchmark, scale=r.scale, seed=r.seed,
                               tag=f"f{i}")
                    for i, r in enumerate([a, b, a, b, a])]
        ledger = RecomputeLedger()
        with use_ledger(ledger):
            results = engine.run_batch(requests)
        assert [r.trace_reused for r in results] == [False] * 5
        assert engine.stats().trace_builds == 5
        events = ledger.events()
        assert [e["tier"] for e in events] == ["memory"] * 4
        assert [e["frame"] for e in events] == ["f1", "f2", "f3", "f4"]
        oracle = {r.seed: run_cold(r).reports for r in (a, b)}
        for result in results:
            assert result.reports == oracle[result.request.seed]
