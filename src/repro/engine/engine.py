"""The batched simulation engine: many clouds, shared models, stored traces.

The seed reproduction simulated exactly one cloud per call.
:class:`SimulationEngine` instead serves a *stream* of point-cloud
requests through shared backend models and one request-level memo, a
:class:`~repro.engine.trace_store.TraceStore` keyed by the workload key
``(benchmark, scale, seed)``:

* a request whose workload was already built — by this engine, by
  another engine sharing the store, or by an earlier process when the
  store is disk-backed — skips the whole trace build.  Mapping ops
  inside a build always compute; within one build a network reuses its
  maps across layers, as PointAcc's MMU does;
* each backend's report of a workload is kept with the workload's trace
  entry, so it is computed once while the trace stays in memory, by
  whichever engine sharing the store asks first.  Evicting the trace
  evicts its reports; a report whose trace was evicted while it ran is
  simply not memoized.

No hit may change a simulated result — it affects wall clock only.
``tests/properties/test_prop_engine.py`` proves engine output is
bit-identical to cold sequential :class:`~repro.core.PointAccModel`
runs, with every store configuration.  A :class:`SimResult` keeps the
reports and the input's point count, never the trace, so kept results
do not pin traces the store has let go.

Reports returned for duplicate requests may be shared objects; treat
:class:`~repro.core.report.PerfReport` and :class:`~repro.nn.trace.Trace`
as immutable (every consumer in this library does).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..baselines.mesorasi import UnsupportedModelError
from ..core.report import PerfReport
from ..nn.models.registry import run_benchmark
from ..obs.ledger import ledger_frame
from ..obs.trace import current_tracer, span
from ..nn.trace import Trace
from .backends import resolve_backend
from .scheduler import POLICIES, schedule
from .trace_store import TraceStore

__all__ = ["SimRequest", "SimResult", "EngineStats", "SimulationEngine", "run_cold"]


@dataclass(frozen=True)
class SimRequest:
    """One point-cloud simulation request.

    The cloud and network are named through the benchmark registry: the
    workload key ``(benchmark, scale, seed)`` fully determines the input
    cloud and model weights, so equal keys are the engine's unit of reuse.
    ``priority`` matters only under the ``priority`` scheduling policy;
    ``tag`` is free-form caller context echoed back on the result.

    ``tenant`` and ``deadline_ms`` are consumed by the cluster's QoS layer
    (:mod:`repro.cluster.qos`): ``deadline_ms`` is a wall-clock budget from
    admission to completion, ``tenant`` the fair-share accounting bucket.
    A bare engine ignores both — they never reach the workload key, so
    they cannot change a simulated result.

    ``geometry_only`` requests the feature-skipping execution mode for
    networks whose registry entry declares ``coords_only_mapping`` — the
    SparseConv models and PointNet++(c), (ps) and (s), whose traces are a
    pure function of coordinates (see
    :func:`repro.nn.models.registry.run_benchmark`); other networks ignore
    it.  Like the QoS fields it stays out of the workload key: a
    geometry-only build and a full functional build of the same workload
    produce bit-identical traces and reports (property-enforced), so they
    are the same workload — only cheaper.  Stream and fleet sessions set
    it for every declared network by default.
    """

    benchmark: str
    scale: float = 0.25
    seed: int = 0
    priority: int = 0
    tag: str = ""
    tenant: str = ""
    deadline_ms: float | None = None
    geometry_only: bool = False

    @property
    def workload_key(self) -> tuple:
        return (self.benchmark, float(self.scale), int(self.seed))


@dataclass
class SimResult:
    """Per-request outcome: one report per backend plus provenance."""

    request: SimRequest
    index: int  # submission position within its batch/stream
    reports: dict[str, PerfReport] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)  # backend -> reason
    input_points: int = 0  # points in the network input (0 when rejected)
    trace_reused: bool = False
    wall_seconds: float = 0.0
    shard: int | None = None  # set by EngineCluster: which shard executed
    deadline_met: bool | None = None  # set by the QoS layer when a deadline was given
    # Root telemetry spans for this request (repro.obs).  Populated only
    # when a tracer is active AND the request span has no enclosing span —
    # i.e. in worker processes, where the spans must ride the pickle back
    # so the dispatching side can re-parent them under its dispatch span.
    spans: list = field(default_factory=list)

    def report(self, backend: str | None = None) -> PerfReport:
        """The report of ``backend``.

        With no argument, returns the first backend that *produced* a
        report — which may not be the engine's first-configured backend if
        that one recorded an error for this workload (check ``errors``).
        """
        if not self.reports:
            raise KeyError(f"request {self.index}: no backend produced a report")
        if backend is None:
            backend = next(iter(self.reports))
        return self.reports[backend]


@dataclass
class EngineStats:
    """Aggregate engine behaviour since construction."""

    requests: int = 0
    wall_seconds: float = 0.0
    trace_builds: int = 0
    trace_reuses: int = 0
    report_reuses: int = 0
    backend_seconds: dict = field(default_factory=dict)  # modeled time totals
    map_cache: dict = field(default_factory=dict)  # TraceStore.snapshot()

    @property
    def throughput_rps(self) -> float:
        """Requests simulated per wall-clock second."""
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "trace_builds": self.trace_builds,
            "trace_reuses": self.trace_reuses,
            "report_reuses": self.report_reuses,
            "backend_seconds": dict(self.backend_seconds),
            "map_cache": dict(self.map_cache),
        }


class SimulationEngine:
    """Serve batches/streams of simulation requests through shared backends.

    Parameters
    ----------
    backends:
        Backend names (see :func:`repro.engine.backends.backend_names`);
        each request is simulated on every backend.  A backend that cannot
        run a workload (e.g. Mesorasi on SparseConv models) records an
        entry in ``SimResult.errors`` instead of failing the batch.
    policy:
        Scheduling policy (``fifo`` / ``priority`` / ``bucketed``).
    store:
        The :class:`~repro.engine.trace_store.TraceStore` memoizing whole
        traces by workload key — a cluster passes its shared store to
        every shard.  ``None`` (default) builds a private store.
    overlap:
        Pipeline trace building with backend cost-model evaluation: while
        request ``k``'s backends run on the main thread, request ``k+1``'s
        trace builds in a single side thread — the host analogue of
        PointAcc running its mapping units concurrently with the matmul
        array.  Builds stay strictly sequential relative to each other
        (one builder thread), so the trace store sees the exact access
        order of the non-overlapped engine and results stay bit-identical
        (``tests/properties/test_prop_workers.py``); only the backend
        evaluation of the *previous* request runs concurrently, and
        backends never touch the store.
    """

    def __init__(
        self,
        backends=("pointacc",),
        policy: str = "fifo",
        store: TraceStore | None = None,
        overlap: bool = False,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {sorted(POLICIES)}")
        if not backends:
            raise ValueError("engine needs at least one backend")
        self.policy = policy
        self.backends = {name: resolve_backend(name) for name in backends}
        self.store = TraceStore() if store is None else store
        self.overlap = bool(overlap)
        self._trace_builder: ThreadPoolExecutor | None = None
        self._stats = EngineStats(
            backend_seconds={name: 0.0 for name in self.backends}
        )
        self._served = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _build_trace(self, request: SimRequest) -> tuple[Trace, bool, dict]:
        """``(trace, reused, reports)``: the request's trace and its
        entry's report memo, read together so that the overlap pipeline's
        side thread sees the store in sequential order.  The entry just
        read or written is the most recent, which the store always
        keeps, so the memo is never ``None`` here."""
        key = request.workload_key
        # The ledger-frame context is observability only (eviction
        # lineage); it must never reach the compute path.
        with ledger_frame(request.tag):
            trace = self.store.get(key)
            reused = trace is not None
            if reused:
                self._stats.trace_reuses += 1
            else:
                trace, _ = run_benchmark(
                    request.benchmark, scale=request.scale, seed=request.seed,
                    geometry_only=request.geometry_only,
                )
                trace.meta["workload_key"] = key
                self.store.put(key, trace)
                self._stats.trace_builds += 1
        return trace, reused, self.store.reports(key)

    def _build_traced(self, request: SimRequest):
        """``_build_trace`` plus a detached span for the overlap pipeline.

        Runs on the side thread, where a plain ``span()`` would start a
        new root; instead the span is detached and handed back so
        ``_execute`` can attach it under the request span it belongs to.
        Returns ``(trace, reused, reports, span|None)``.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._build_trace(request) + (None,)
        with tracer.detached("trace_build", overlap=True) as bs:
            built = self._build_trace(request)
        return built + (bs,)

    def _execute(self, request: SimRequest, index: int, built=None) -> SimResult:
        t0 = time.perf_counter()
        tracer = current_tracer()
        with span("request", benchmark=request.benchmark, index=index) as req_span:
            if built is not None:
                trace, reused, memo, build_span = built
                if build_span is not None:
                    # Overlap mode: the build ran detached on the side
                    # thread; attribute it to this request explicitly.
                    req_span.children.insert(0, build_span)
            else:
                with span("trace_build"):
                    trace, reused, memo = self._build_trace(request)
            # ``memo`` is the trace entry's report memo.  Should the entry
            # be evicted before a report finishes (the overlap pipeline
            # builds the next trace meanwhile), the report lands in a dict
            # nothing else reads: it is simply not memoized.
            result = SimResult(
                request=request,
                index=index,
                input_points=trace.input_points,
                trace_reused=reused,
            )
            for name, backend in self.backends.items():
                report = memo.get(name)
                if report is not None:
                    self._stats.report_reuses += 1
                else:
                    with span("backend", backend=name):
                        try:
                            report = backend.run(trace)
                        except UnsupportedModelError as exc:
                            result.errors[name] = str(exc)
                            continue
                    memo[name] = report
                result.reports[name] = report
                self._stats.backend_seconds[name] += report.total_seconds
            result.wall_seconds = time.perf_counter() - t0
        if tracer is not None and tracer.current() is None:
            # Parentless request span: this is a worker process (or a bare
            # engine run) — hand the tree to the result so callers across
            # the pipe can re-parent it.  When an enclosing span exists
            # (cluster dispatch, stream frame) the tree is already nested.
            result.spans = [req_span]
        self._stats.requests += 1
        self._stats.wall_seconds += result.wall_seconds
        return result

    def _run_ordered(self, requests, order, base: int):
        """Execute ``requests[i] for i in order``, yielding ``(i, result)``.

        With ``overlap`` enabled (and more than one request), request
        ``k+1``'s trace builds in the side thread while request ``k``'s
        backend cost models evaluate on this one.  The builder is a
        single thread and the next build is only submitted once the
        previous build has completed, so trace builds — the only phase
        that touches the trace store — run in exactly the sequential
        order and the pipeline can never change a result, only wall
        clock.
        """
        order = list(order)
        if not self.overlap or len(order) < 2:
            for i in order:
                yield i, self._execute(requests[i], base + i)
            return
        if self._trace_builder is None:
            self._trace_builder = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="trace-build"
            )
        pending = self._trace_builder.submit(self._build_traced, requests[order[0]])
        for pos, i in enumerate(order):
            built = pending.result()
            if pos + 1 < len(order):
                pending = self._trace_builder.submit(
                    self._build_traced, requests[order[pos + 1]]
                )
            yield i, self._execute(requests[i], base + i, built=built)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_batch(self, requests) -> list[SimResult]:
        """Simulate a batch; results come back in *submission* order.

        The scheduling policy controls execution order only — an observer
        of the returned list cannot tell which policy ran.
        """
        requests = list(requests)
        results: list[SimResult | None] = [None] * len(requests)
        order = schedule(requests, self.policy)
        for i, result in self._run_ordered(requests, order, self._served):
            results[i] = result
        self._served += len(requests)
        return results  # type: ignore[return-value]

    def stream(self, requests, window: int = 8):
        """Streaming iterator: schedule within a sliding window, yield results.

        Pulls up to ``window`` requests from the (possibly unbounded)
        iterable, orders that window under the engine's policy, executes it,
        and yields each :class:`SimResult` — so results arrive in execution
        order with bounded buffering.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        requests = iter(requests)
        while True:
            chunk = []
            for req in requests:
                chunk.append(req)
                if len(chunk) == window:
                    break
            if not chunk:
                return
            base = self._served
            order = schedule(chunk, self.policy)
            for _, result in self._run_ordered(chunk, order, base):
                yield result
            self._served += len(chunk)

    def stats(self) -> EngineStats:
        """Aggregate stats; the trace-store snapshot is taken at call time
        (a shared store's counters cover every engine using it)."""
        self._stats.map_cache = self.store.snapshot()
        return self._stats


def run_cold(request: SimRequest, backends=("pointacc",)) -> SimResult:
    """The no-engine baseline: fresh trace, fresh models, no caches.

    This is exactly what a sequential per-cloud simulation did before the
    engine existed — the comparison anchor for the throughput benchmark and
    the bit-identity oracle for the property tests.
    """
    t0 = time.perf_counter()
    trace, _ = run_benchmark(
        request.benchmark, scale=request.scale, seed=request.seed,
        geometry_only=request.geometry_only,
    )
    result = SimResult(request=request, index=0,
                       input_points=trace.input_points)
    for name in backends:
        try:
            result.reports[name] = resolve_backend(name).run(trace)
        except UnsupportedModelError as exc:
            result.errors[name] = str(exc)
    result.wall_seconds = time.perf_counter() - t0
    return result
