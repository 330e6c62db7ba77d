"""The batched simulation engine: many clouds, shared models, cached maps.

The seed reproduction simulated exactly one cloud per call and recomputed
every FPS / kNN / ball-query / kernel-map table from scratch each time.
:class:`SimulationEngine` instead serves a *stream* of point-cloud requests
through shared backend models and two memoization layers:

1. an op-level :class:`~repro.engine.map_cache.MapCache` (content-addressed
   on coordinates + parameters) installed around every trace build, so
   repeated geometry never recomputes a mapping table — across layers,
   across models, and across requests;
2. a request-level trace/report memo: a request whose workload key
   ``(benchmark, scale, seed)`` was already served reuses the recorded
   trace and each backend's report outright (weights and maps resident,
   exactly the steady-state serving regime the ROADMAP targets).

Neither layer may change a simulated result — a cache hit affects wall
clock only.  ``tests/properties/test_prop_engine.py`` proves engine output
is bit-identical to cold sequential :class:`~repro.core.PointAccModel`
runs, with every cache configuration.

Reports returned for duplicate requests may be shared objects; treat
:class:`~repro.core.report.PerfReport` as immutable (every consumer in this
library does).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..baselines.mesorasi import UnsupportedModelError
from ..core.report import PerfReport
from ..mapping.hooks import TieredLookup, request_context, use_map_cache
from ..nn.models.registry import run_benchmark
from ..obs.ledger import ledger_frame
from ..obs.trace import current_tracer, span
from ..nn.trace import Trace
from .backends import resolve_backend
from .map_cache import MapCache
from .scheduler import POLICIES, schedule

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
    model families whose trace is a pure function of coordinates (see
    :func:`repro.nn.models.registry.run_benchmark`).  Like the QoS fields
    it stays out of the workload key: a geometry-only build and a full
    functional build of the same workload produce bit-identical traces and
    reports (property-enforced), so they are the same workload — only
    cheaper.  The streaming pipeline sets it for sparseconv frame streams.
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
    trace: Trace | None = None
    trace_reused: bool = False
    map_cache_hits: int = 0  # op-level hits during this request's build
    map_cache_misses: int = 0
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
    map_cache: dict = field(default_factory=dict)  # MapCacheStats.snapshot()

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
    map_cache:
        Op-level cache instance, or ``None`` to disable op memoization.
        Defaults to a fresh :class:`MapCache`.
    l2:
        Optional shared second cache tier (e.g. the cluster's
        :class:`~repro.cluster.store.SharedMapStore`).  When given, trace
        builds run against a :class:`~repro.mapping.hooks.TieredLookup`
        chain ``[map_cache, l2]`` — the engine's private L1 backed by the
        injected shared store — instead of the L1 alone.
    tile_cache:
        Optional content-aware front (e.g. the streaming subsystem's
        :class:`~repro.stream.incremental.TileMapCache`) consulted before
        the digest tiers; it decomposes supported mapping ops (kNN, ball
        query) into spatial-tile sub-lookups addressed into the same tier
        chain, so *overlapping* — not just identical — clouds hit.
        Requires at least one digest tier to store sub-entries in.
    reuse_traces:
        Enable the request-level trace/report memo.
    overlap:
        Pipeline trace building with backend cost-model evaluation: while
        request ``k``'s backends run on the main thread, request ``k+1``'s
        trace builds in a single side thread — the host analogue of
        PointAcc running its mapping units concurrently with the matmul
        array.  Builds stay strictly sequential relative to each other
        (one builder thread), so every cache/memo sees the exact access
        order of the non-overlapped engine and results stay bit-identical
        (``tests/properties/test_prop_workers.py``); only the backend
        evaluation of the *previous* request runs concurrently, and
        backends never touch the mapping caches.
    """

    def __init__(
        self,
        backends=("pointacc",),
        policy: str = "fifo",
        map_cache: MapCache | None | str = "auto",
        l2=None,
        tile_cache=None,
        reuse_traces: bool = True,
        overlap: bool = False,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {sorted(POLICIES)}")
        if not backends:
            raise ValueError("engine needs at least one backend")
        self.policy = policy
        self.backends = {name: resolve_backend(name) for name in backends}
        self.map_cache = MapCache() if map_cache == "auto" else map_cache
        self.l2 = l2
        self.tile_cache = tile_cache
        tiers = [t for t in (self.map_cache, l2) if t is not None]
        if tile_cache is not None:
            if not tiers:
                raise ValueError(
                    "tile_cache needs at least one cache tier to store "
                    "sub-results in (map_cache and l2 are both disabled)"
                )
            self._lookup = TieredLookup(tiers, front=tile_cache)
        elif len(tiers) > 1:
            self._lookup = TieredLookup(tiers)
        else:
            self._lookup = tiers[0] if tiers else None
        self.reuse_traces = reuse_traces
        self.overlap = bool(overlap)
        self._trace_builder: ThreadPoolExecutor | None = None
        self._traces: dict[tuple, Trace] = {}
        self._reports: dict[tuple, PerfReport] = {}
        self._stats = EngineStats(
            backend_seconds={name: 0.0 for name in self.backends}
        )
        self._served = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _build_trace(self, request: SimRequest) -> tuple[Trace, bool, int, int]:
        key = request.workload_key
        if self.reuse_traces and key in self._traces:
            self._stats.trace_reuses += 1
            return self._traces[key], True, 0, 0
        if self._lookup is not None:
            ctx = use_map_cache(self._lookup)
            hits0 = self._lookup.stats().hits
            misses0 = self._lookup.stats().misses
        else:
            ctx = nullcontext()
            hits0 = misses0 = 0
        # The tenant and ledger-frame contexts are observability only
        # (cache-front hit attribution, recompute lineage); they must
        # never reach the compute path.
        with request_context(request.tenant), ledger_frame(request.tag), ctx:
            trace, _ = run_benchmark(
                request.benchmark, scale=request.scale, seed=request.seed,
                geometry_only=request.geometry_only,
            )
        if self._lookup is not None:
            hits = self._lookup.stats().hits - hits0
            misses = self._lookup.stats().misses - misses0
        else:
            hits = misses = 0
        trace.meta["map_cache"] = {"hits": hits, "misses": misses}
        trace.meta["workload_key"] = key
        self._stats.trace_builds += 1
        if self.reuse_traces:
            self._traces[key] = trace
        return trace, False, hits, misses

    def _build_traced(self, request: SimRequest):
        """``_build_trace`` plus a detached span for the overlap pipeline.

        Runs on the side thread, where a plain ``span()`` would start a
        new root; instead the span is detached and handed back in the
        tuple so ``_execute`` can attach it under the request span it
        belongs to.  Returns ``(trace, reused, hits, misses, span|None)``.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._build_trace(request) + (None,)
        with tracer.detached("trace_build", overlap=True) as bs:
            trace, reused, hits, misses = self._build_trace(request)
            if hits or misses:
                bs.count("cache_hits", hits)
                bs.count("cache_misses", misses)
        return trace, reused, hits, misses, bs

    def _execute(self, request: SimRequest, index: int, built=None) -> SimResult:
        t0 = time.perf_counter()
        tracer = current_tracer()
        with span("request", benchmark=request.benchmark, index=index) as req_span:
            build_span = None
            if built is not None and len(built) == 5:
                trace, reused, hits, misses, build_span = built
            elif built is not None:
                trace, reused, hits, misses = built
            else:
                with span("trace_build") as bs:
                    trace, reused, hits, misses = self._build_trace(request)
                    if hits or misses:
                        bs.count("cache_hits", hits)
                        bs.count("cache_misses", misses)
            if build_span is not None:
                # Overlap mode: the build ran detached on the side thread;
                # attribute it to this request explicitly.
                req_span.children.insert(0, build_span)
            result = SimResult(
                request=request,
                index=index,
                trace=trace,
                trace_reused=reused,
                map_cache_hits=hits,
                map_cache_misses=misses,
            )
            key = request.workload_key
            for name, backend in self.backends.items():
                rkey = (key, name)
                report = self._reports.get(rkey) if self.reuse_traces else None
                if report is not None:
                    self._stats.report_reuses += 1
                else:
                    with span("backend", backend=name):
                        try:
                            report = backend.run(trace)
                        except UnsupportedModelError as exc:
                            result.errors[name] = str(exc)
                            continue
                    if self.reuse_traces:
                        self._reports[rkey] = report
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
        that touches the mapping caches and the trace memo — run in
        exactly the sequential order and the pipeline can never change a
        result, only wall clock.
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
        """Aggregate stats; the map-cache snapshot is taken at call time.

        With an injected L2 the snapshot is the tiered chain's: top-level
        hits/misses plus one nested snapshot per tier.
        """
        if self._lookup is not None:
            self._stats.map_cache = self._lookup.stats().snapshot()
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
    result = SimResult(request=request, index=0, trace=trace)
    for name in backends:
        try:
            result.reports[name] = resolve_backend(name).run(trace)
        except UnsupportedModelError as exc:
            result.errors[name] = str(exc)
    result.wall_seconds = time.perf_counter() - t0
    return result
