"""Telemetry across the serving stack: coverage, bit-identity, workers.

The acceptance contract: tracing is observability only — with a tracer
installed the span tree must account for where frame time went (children
sum to within 10% of each frame's measured latency), and results must be
bit-identical to an untraced run.
"""

import time

import pytest

from repro.cluster import EngineCluster
from repro.engine import SimRequest, SimulationEngine
from repro.obs.trace import Tracer, span, use_tracer
from repro.stream import FrameSequence, SequenceConfig, StreamSession

SCALE = 0.2
CFG = SequenceConfig(seed=3, n_frames=4, speed=2.0, fov=18.0)


def _session(bench_name="MinkNet(o)", **kwargs) -> StreamSession:
    return StreamSession(FrameSequence(CFG), bench_name, scale=SCALE,
                         **kwargs)


def _requests(n: int):
    return [SimRequest(benchmark="PointNet++(c)", scale=SCALE, seed=i % 2)
            for i in range(n)]


class TestStreamCoverage:
    def test_frame_phase_durations_cover_frame_latency(self):
        """Per-frame: the span children must sum to within 10% of the
        frame span's own duration — time is attributed, not lost."""
        tracer = Tracer()
        with use_tracer(tracer):
            _session().run(3)
        frames = [r for r in tracer.roots if r.name == "frame"]
        assert len(frames) == 3
        for frame in frames:
            assert frame.duration > 0
            coverage = frame.child_seconds() / frame.duration
            assert 0.9 <= coverage <= 1.0 + 1e-9

    def test_expected_phases_appear(self):
        tracer = Tracer()
        with use_tracer(tracer):
            _session("PointNet++(c)").run(2)
        names = {node.name for root in tracer.roots for node in root.walk()}
        for expected in ("frame", "request", "trace_build", "backend"):
            assert expected in names, f"missing span {expected!r}"

    def test_tracing_preserves_bit_identity(self):
        """A tracer may change wall-clock only: reports from a traced
        session equal those from an untraced one."""
        untraced = _session().run(3)
        with use_tracer(Tracer()):
            traced = _session().run(3)
        assert len(untraced) == len(traced)
        for a, b in zip(untraced, traced):
            assert a.result.reports == b.result.reports

    def test_disabled_sites_cost_under_2pct_of_a_frame(self):
        """Estimate the disabled-tracer tax on one warm streaming frame:
        (instrumentation sites crossed) x (per-site disabled cost) must
        stay under 2% of the frame's measured wall time."""
        session = _session("PointNet++(c)")
        session.run(2)  # warm the caches; steady-state frames from here
        tracer = Tracer()
        with use_tracer(tracer):
            t0 = time.perf_counter()
            session.run(1)
            frame_wall = time.perf_counter() - t0
        sites = sum(1 for root in tracer.roots for _ in root.walk())
        # frame, request, trace_build, backend: the frame actually crossed
        # the instrumentation.
        assert sites >= 4
        n = 20_000
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                with span("probe", op="knn"):
                    pass
            best = min(best, time.perf_counter() - t0)
        per_site = best / n
        assert sites * per_site < 0.02 * frame_wall


class TestEngineTracing:
    def test_engine_batch_bit_identity(self):
        baseline = SimulationEngine(backends=("pointacc",)).run_batch(
            _requests(4))
        with use_tracer(Tracer()):
            traced = SimulationEngine(backends=("pointacc",)).run_batch(
                _requests(4))
        for a, b in zip(baseline, traced):
            assert a.reports == b.reports

    def test_parentless_request_spans_are_exported(self):
        """The worker hand-off mechanism: a request span with no parent
        (nothing enclosing on this thread, as in a worker process) is
        exported on ``result.spans`` — and it is the *same* object the
        local tracer holds as a root, so in-process callers lose nothing
        and dumps never double-count."""
        with use_tracer(Tracer()) as tracer:
            results = SimulationEngine(backends=("pointacc",)).run_batch(
                _requests(2))
        for result in results:
            assert [s.name for s in result.spans] == ["request"]
            assert result.spans[0] in tracer.roots
        names = {n.name for root in tracer.roots for n in root.walk()}
        assert "request" in names and "backend" in names

    def test_enclosed_request_spans_are_not_exported(self):
        """Under an enclosing span (a session's frame, a cluster's
        dispatch) the request span has a parent — nothing to hand off."""
        engine = SimulationEngine(backends=("pointacc",))
        with use_tracer(Tracer()) as tracer:
            with span("frame") as frame:
                results = engine.run_batch(_requests(2))
        assert all(r.spans == [] for r in results)
        assert [c.name for c in frame.children] == ["request", "request"]
        assert tracer.roots == [frame]


class TestWorkerTracing:
    def test_worker_spans_reparent_under_dispatch(self):
        """Worker-built span trees ship back with the results and land
        under a dispatch span with an explicit ipc residual child."""
        with use_tracer(Tracer()) as tracer:
            with EngineCluster(n_shards=2, backends=("pointacc",),
                               workers=2) as cluster:
                results = cluster.run_batch(_requests(4))
        assert all(r.spans == [] for r in results)  # consumed on attach
        dispatches = [r for r in tracer.roots if r.name == "dispatch"]
        assert dispatches, "no dispatch spans reached the tracer"
        child_names = {c.name for d in dispatches for c in d.children}
        assert "request" in child_names
        assert "ipc" in child_names
        requests = [c for d in dispatches for c in d.children
                    if c.name == "request"]
        assert len(requests) == 4
        for d in dispatches:
            # The remote spans plus the ipc residual never exceed the
            # dispatch wall the parent measured around the round-trip.
            assert d.child_seconds() <= d.duration * 1.05 + 1e-6

    def test_worker_crash_leaves_a_balanced_tracer(self):
        """A worker dying mid-window surfaces as RuntimeError; the tracer
        stack must still unwind completely and hold well-formed trees."""
        with use_tracer(Tracer()) as tracer:
            cluster = EngineCluster(n_shards=2, backends=("pointacc",),
                                    workers=2)
            try:
                cluster.run_batch(_requests(2))  # healthy window first
                for proc in cluster._pool._procs:
                    proc.kill()
                for proc in cluster._pool._procs:
                    proc.join(5.0)
                with pytest.raises(RuntimeError, match="worker"):
                    cluster.run_batch(_requests(2))
            finally:
                cluster.close()
            assert tracer.current() is None  # no span left open
            for root in tracer.roots:
                for node in root.walk():
                    assert node.duration >= 0

    def test_untraced_worker_run_ships_no_spans(self):
        with EngineCluster(n_shards=2, backends=("pointacc",),
                           workers=2) as cluster:
            results = cluster.run_batch(_requests(2))
        assert all(r.spans == [] for r in results)


class TestFleetTracing:
    def test_fleet_round_spans_and_bit_identity(self):
        from repro.fleet import FleetSession, StreamSpec

        def build():
            specs = [
                StreamSpec(name=f"veh{i}",
                           sequence=FrameSequence(CFG),
                           benchmark="MinkNet(o)", scale=SCALE,
                           n_frames=2)
                for i in range(2)
            ]
            return FleetSession(specs, backends=("pointacc",), n_shards=1)

        untraced = build().run()
        with use_tracer(Tracer()) as tracer:
            traced = build().run()
        for name in untraced:
            for a, b in zip(untraced[name], traced[name]):
                assert a.result.reports == b.result.reports
        rounds = [r for r in tracer.roots if r.name == "round"]
        assert len(rounds) == 2  # 2 frames x both streams per round
        for r in rounds:
            # round → dispatch (per shard run) → request
            names = {node.name for node in r.walk()}
            assert "dispatch" in names and "request" in names
