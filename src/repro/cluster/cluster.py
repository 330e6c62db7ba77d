"""Sharded multi-engine serving: route, admit, execute, aggregate.

:class:`EngineCluster` turns the single :class:`~repro.engine.SimulationEngine`
into a servable fleet:

1. admission — the QoS layer rejects requests whose deadline budget is
   already spent (a rejected request comes back as a report-less
   :class:`~repro.engine.SimResult` with an ``errors["cluster"]`` reason);
2. ordering — admitted requests in a window are ordered
   earliest-deadline-first with per-tenant fair share and the priority /
   submission-index tie-breaks (:mod:`repro.cluster.qos`);
3. routing — each request lands on a shard (:mod:`repro.cluster.router`):
   ``affinity`` keeps equal workloads on one engine for trace-memo hits,
   ``least-loaded`` balances estimated work;
4. execution — consecutive same-shard requests are handed to that shard's
   engine as one sub-batch (the shard's own policy applies inside it);
   every shard engine uses one shared
   :class:`~repro.engine.trace_store.TraceStore`, so a trace built on any
   shard serves every shard — and persists across CLI invocations when
   the store has a cache directory.

With ``workers=N`` the shards stop being a routing fiction: each shard's
engine runs in a real OS process (:mod:`repro.cluster.workers`), requests
and results cross the boundary pickled, and the store's versioned,
atomically written disk tier becomes the cross-process L2.  The default
``workers=0`` keeps in-process execution.

The correctness contract is inherited, not relaxed: for admitted requests,
cluster output is bit-identical to cold sequential ``PointAccModel`` runs
for every shard count, routing mode, store configuration *and worker
count* (``tests/properties/test_prop_cluster.py``,
``tests/properties/test_prop_workers.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..engine.engine import SimRequest, SimResult, SimulationEngine
from ..engine.trace_store import TraceStore
from ..obs.trace import Span, current_tracer, span
from .qos import QoSScheduler
from .router import ShardRouter
from .workers import WorkerPool, engine_spec, merge_snapshots

__all__ = ["ClusterStats", "EngineCluster"]


@dataclass
class ClusterStats:
    """Aggregate fleet behaviour: admission, deadlines, shards, trace store."""

    requests: int = 0
    admitted: int = 0
    rejected: int = 0
    wall_seconds: float = 0.0
    deadline_met: int = 0
    deadline_missed: int = 0
    routing: dict = field(default_factory=dict)  # ShardRouter.snapshot()
    tenants: dict = field(default_factory=dict)  # tenant -> TenantAccount.summary()
    shards: list = field(default_factory=list)  # per-shard EngineStats.summary()
    l2: dict = field(default_factory=dict)  # shared TraceStore.snapshot()
    workers: int = 0  # worker processes (0 = in-process execution)

    @property
    def throughput_rps(self) -> float:
        """Admitted requests served per wall-clock second."""
        return self.admitted / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "deadline_met": self.deadline_met,
            "deadline_missed": self.deadline_missed,
            "routing": dict(self.routing),
            "tenants": dict(self.tenants),
            "shards": list(self.shards),
            "l2": dict(self.l2),
            "workers": self.workers,
        }


class EngineCluster:
    """N engine shards behind one router, QoS layer, and shared trace store.

    Parameters
    ----------
    n_shards:
        Engine instances in the fleet.
    backends / policy:
        Forwarded to every shard's :class:`SimulationEngine`.
    routing:
        ``"affinity"`` (hash of workload key; repeats co-locate) or
        ``"least-loaded"`` (balance estimated work).
    l2:
        The shared trace store: ``"auto"`` builds one
        :class:`~repro.engine.trace_store.TraceStore` (disk-backed iff
        ``cache_dir`` is given) that every shard engine uses directly,
        ``None`` gives each shard a private store, or pass a pre-built
        store to share one across clusters.
    cache_dir:
        Disk-spill directory for the auto-built store.  Lazy per-key
        probing means a second cluster pointed at the same directory
        warm-starts on its very first request.
    workers:
        ``0`` (default) runs every shard in-process, exactly as before.
        ``N >= 1`` starts ``min(N, n_shards)`` worker processes
        (:class:`~repro.cluster.workers.WorkerPool`), shard ``s`` living in
        worker ``s % N``, so shards execute concurrently on a multi-core
        box.  Requests and results must pickle; ``l2`` must be left
        ``"auto"`` or ``None`` (each worker builds its own store — with a
        ``cache_dir`` those stores share the disk tier, which is the
        cross-process L2).  Output stays bit-identical to ``workers=0``.
    overlap:
        Pipeline trace building with backend cost-model evaluation inside
        each shard engine (frame k+1's trace builds while frame k's cost
        model runs).  ``None`` (default) enables it exactly when
        ``workers > 0``; pass ``True``/``False`` to force.  Bit-identical
        either way — builds stay strictly sequential on one builder
        thread.
    """

    def __init__(
        self,
        n_shards: int = 2,
        backends=("pointacc",),
        policy: str = "fifo",
        routing: str = "affinity",
        l2: TraceStore | str | None = "auto",
        cache_dir=None,
        workers: int = 0,
        overlap: bool | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if workers > 0 and not (l2 == "auto" or l2 is None):
            raise ValueError(
                "workers>0 cannot share a pre-built in-memory trace store; "
                "leave l2='auto' (with cache_dir for a shared disk tier) "
                "or l2=None"
            )
        if cache_dir is not None and l2 != "auto":
            raise ValueError("cache_dir requires the auto-built trace store")
        overlap = workers > 0 if overlap is None else bool(overlap)
        self.overlap = overlap
        self.router = ShardRouter(n_shards, mode=routing)
        self.qos = QoSScheduler()
        self._n_shards = n_shards
        self._pool: WorkerPool | None = None
        self.l2 = None
        self.shards = []
        if workers > 0:
            # Shard engines live in the pool's processes; each worker
            # builds its own store, and with a cache_dir those stores
            # share the directory.
            spec = engine_spec(backends=backends, policy=policy, l2=l2,
                               cache_dir=cache_dir, overlap=overlap)
            self._pool = WorkerPool(workers, n_shards, spec)
        else:
            self.l2 = TraceStore(cache_dir=cache_dir) if l2 == "auto" else l2
            self.shards = [
                SimulationEngine(backends=backends, policy=policy,
                                 store=self.l2, overlap=overlap)
                for _ in range(n_shards)
            ]
        self._served = 0
        self._rejected = 0
        self._wall = 0.0
        self._deadline_met = 0
        self._deadline_missed = 0

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def workers(self) -> int:
        """Worker processes backing the shards (0 = in-process)."""
        return self._pool.n_workers if self._pool is not None else 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run_window(self, requests: list[SimRequest]) -> list[tuple[int, SimResult]]:
        """Serve one window; returns ``(window_index, result)`` pairs in
        dispatch-completion order (rejections first — they finish at
        admission).  Deadlines are scored against elapsed wall time since
        window entry, so queueing behind earlier dispatches counts."""
        t0 = time.perf_counter()
        base = self._served
        completed: list[tuple[int, SimResult]] = []
        admitted: list[int] = []
        for i, request in enumerate(requests):
            reason = self.qos.admit(request)
            if reason is None:
                admitted.append(i)
            else:
                self._rejected += 1
                completed.append(
                    (i, SimResult(request=request, index=base + i,
                                  errors={"cluster": reason}))
                )
        # QoS dispatch order, then group maximal same-shard runs so each
        # shard engine still sees contiguous sub-batches (its own policy
        # applies within a run).
        runs: list[tuple[int, list[int]]] = []
        for i in self.qos.order(requests, admitted):
            shard = self.router.route(requests[i])
            if runs and runs[-1][0] == shard:
                runs[-1][1].append(i)
            else:
                runs.append((shard, [i]))
        tracer = current_tracer()
        if self._pool is not None:
            # Worker mode: every run is dispatched up front (each worker
            # drains its pipe FIFO, so same-shard QoS order is preserved
            # while different workers execute concurrently); deadlines are
            # scored when a run's reply arrives, against real elapsed time.
            trace_on = tracer is not None
            t_send = time.perf_counter()
            for run_id, results in self._pool.run_window(
                runs, requests, trace=trace_on
            ):
                shard, idxs = runs[run_id]
                if trace_on:
                    self._attach_worker_spans(
                        tracer, results, shard, t_send,
                        time.perf_counter() - t_send,
                    )
                self._score_run(requests, idxs, results, shard, base,
                                time.perf_counter() - t0, completed)
        else:
            for shard, idxs in runs:
                with span("dispatch", shard=shard, workers=False):
                    results = self.shards[shard].run_batch(
                        [requests[i] for i in idxs]
                    )
                self._score_run(requests, idxs, results, shard, base,
                                time.perf_counter() - t0, completed)
        self._served += len(requests)
        self._wall += time.perf_counter() - t0
        return completed

    @staticmethod
    def _attach_worker_spans(tracer, results, shard: int,
                             t_send: float, elapsed: float) -> None:
        """Re-parent one worker run's pickled spans under a dispatch span.

        The dispatch span covers send-to-receipt for the run; whatever
        the worker did not account for — pickling requests, the pipe both
        ways, unpickling results, queueing behind earlier runs on the
        same worker — lands in an explicit ``ipc`` child, so
        cross-process overhead is attributed rather than vanishing into
        the gap between frame and request spans.
        """
        dispatch = Span("dispatch", {"shard": shard, "workers": True})
        dispatch.start = t_send
        dispatch.duration = elapsed
        remote_seconds = 0.0
        n_spans = 0
        for result in results:
            for node in result.spans:
                remote_seconds += node.duration
                n_spans += 1
                dispatch.children.append(node)
            result.spans = []  # now owned by the dispatch tree
        ipc = Span("ipc", {"shard": shard})
        ipc.start = t_send
        ipc.duration = max(0.0, elapsed - remote_seconds)
        ipc.count("results", float(len(results)))
        dispatch.children.append(ipc)
        tracer.attach(dispatch)

    def _score_run(self, requests, idxs, results, shard: int, base: int,
                   elapsed: float, completed: list) -> None:
        """Rebase one same-shard run's results and score its deadlines."""
        for i, result in zip(idxs, results):
            result.index = base + i  # rebase engine-local -> cluster index
            result.shard = shard
            modeled = sum(r.total_seconds for r in result.reports.values())
            met = self.qos.record(requests[i], elapsed, modeled)
            result.deadline_met = met
            if met is True:
                self._deadline_met += 1
            elif met is False:
                self._deadline_missed += 1
            completed.append((i, result))

    def run_batch(self, requests) -> list[SimResult]:
        """Serve a batch; results come back in *submission* order.

        Rejected requests occupy their slot with an ``errors["cluster"]``
        entry and no reports; everything admitted carries its shard id and
        (when a deadline was set) the met/missed verdict.
        """
        requests = list(requests)
        results: list[SimResult | None] = [None] * len(requests)
        for i, result in self._run_window(requests):
            results[i] = result
        return results  # type: ignore[return-value]

    def stream(self, requests, window: int = 8):
        """Streaming iterator mirroring ``SimulationEngine.stream``.

        Admission and QoS ordering apply per window; results are yielded
        in dispatch-completion order.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        requests = iter(requests)
        while True:
            chunk = []
            for request in requests:
                chunk.append(request)
                if len(chunk) == window:
                    break
            if not chunk:
                return
            for _, result in self._run_window(chunk):
                yield result

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ClusterStats:
        """Aggregated fleet snapshot (shard stats taken at call time).

        In worker mode the per-shard engine summaries and store snapshots
        live in the worker processes; they are collected over the pipes
        and merged (counters summed, rates recomputed — see
        :func:`~repro.cluster.workers.merge_snapshots`)."""
        stats = ClusterStats(
            requests=self._served,
            admitted=self._served - self._rejected,
            rejected=self._rejected,
            wall_seconds=self._wall,
            deadline_met=self._deadline_met,
            deadline_missed=self._deadline_missed,
            routing=self.router.snapshot(),
            tenants=self.qos.summary(),
            workers=self.workers,
        )
        if self._pool is not None:
            payloads = self._pool.stats()
            by_shard: dict[int, dict] = {}
            for payload in payloads:
                by_shard.update(payload["shards"])
            stats.shards = [by_shard[s] for s in sorted(by_shard)]
            stats.l2 = merge_snapshots(p["l2"] for p in payloads)
        else:
            stats.shards = [shard.stats().summary() for shard in self.shards]
            stats.l2 = self.l2.snapshot() if self.l2 is not None else {}
        return stats

    def close(self) -> None:
        """Shut down worker processes (no-op for ``workers=0``).

        Idempotent; the cluster must not serve after close in worker
        mode.  Prefer ``with EngineCluster(workers=N) as cluster: ...``.
        """
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "EngineCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
