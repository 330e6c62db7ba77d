"""Process-based shard workers: true parallelism for :class:`EngineCluster`.

Until now a cluster "shard" was a routing fiction — every engine ran on one
thread, and wall-clock gains were pure cache hits.  PointAcc's speedups
come from running its mapping, memory-management, and matmul units
*concurrently*; FractalCloud scales by executing partitioned point-cloud
ops in parallel.  This module is the serving-stack analogue: with
``EngineCluster(workers=N)`` each shard's :class:`~repro.engine.SimulationEngine`
lives in a real OS process, so shards simulate concurrently on a
multi-core box.

Topology and protocol
---------------------
``N`` worker processes host ``n_shards`` engines, shard ``s`` living in
worker ``s % N`` — so every request routed to a shard always lands in the
same process and the routing determinism (and with it the trace-memo
affinity story) is preserved verbatim.  The parent talks to each worker
over one duplex pipe; everything that crosses is pickled:

* ``("run", run_id, shard, [SimRequest, ...])`` →
  ``("ok", run_id, [SimResult, ...])`` — one contiguous same-shard
  sub-batch, executed under the shard engine's own scheduling policy,
  exactly like the in-process path;
* ``("stats",)`` → per-shard :class:`~repro.engine.EngineStats` summaries
  plus the worker's shared-store snapshot, merged by the parent into
  one :class:`~repro.cluster.ClusterStats`;
* ``("close",)`` → clean shutdown.

A worker failure surfaces as ``("err", run_id, traceback)`` and raises in
the parent — a dead worker is a serving failure, not a silent wrong
answer.

The trace store across the process boundary
-------------------------------------------
An in-memory store cannot be shared across processes, so each worker
builds its *own* :class:`~repro.engine.trace_store.TraceStore`, used by
all of its shard engines (or one private store per shard with
``l2=None``) — and when the cluster has a ``cache_dir``, those stores all
point at the same directory: the versioned, atomically written disk tier
becomes the cross-process L2.  A trace spilled by worker 0 is a
lazy-probe disk hit for worker 3, no shared memory required.  The
store's multi-writer hardening (stale-tmp sweeps, vanish-tolerant reads,
budget races) is what makes this safe; see
``tests/cluster/test_store_concurrency.py``.

None of it may change a result: worker-mode output is property-proved
bit-identical to ``workers=0`` (``tests/properties/test_prop_workers.py``)
— processes, pickling, and disk sharing are wall-clock phenomena only.
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing.connection import wait as _wait

from ..obs.metrics import merge_snapshots as _merge_snapshots

__all__ = ["WorkerPool", "engine_spec", "merge_snapshots"]


def engine_spec(backends, policy: str, l2, cache_dir, overlap: bool) -> dict:
    """The picklable recipe a worker rebuilds its shard engines from.

    ``l2`` must be ``"auto"`` (one store per worker, disk-backed iff
    ``cache_dir`` is set) or ``None`` (a private store per shard): a
    pre-built in-memory store cannot cross a process boundary (the
    cluster validates this before building a pool).
    """
    import os

    return {
        "backends": tuple(backends),
        "policy": policy,
        "l2": l2,
        "cache_dir": os.fspath(cache_dir) if cache_dir is not None else None,
        "overlap": bool(overlap),
    }


def _worker_main(conn, worker_id: int, shard_ids, spec: dict) -> None:
    """One worker process: build the assigned shard engines, serve the pipe.

    Imports happen here (not at module import) so a ``spawn``-start child
    pays them once; under ``fork`` they are already resident.
    """
    from ..engine.engine import SimulationEngine
    from ..engine.trace_store import TraceStore
    from ..obs.trace import Tracer, _set_tracer, use_tracer

    # A fork-start child inherits the parent's module globals, including
    # any active tracer.  Recording into that ghost copy would waste time
    # and ship spans back even when the parent didn't ask for them.
    _set_tracer(None)

    store = None
    if spec["l2"] == "auto":
        store = TraceStore(cache_dir=spec["cache_dir"])
    engines = {
        shard: SimulationEngine(backends=spec["backends"],
                                policy=spec["policy"], store=store,
                                overlap=spec["overlap"])
        for shard in shard_ids
    }
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing to clean up but us
            command = message[0]
            if command == "run":
                run_id, shard, requests = message[1], message[2], message[3]
                # Element 5 (optional, protocol-compatible with pre-trace
                # parents) asks the worker to trace this run: request
                # spans become roots, so the engine attaches them to each
                # SimResult and they ride the pickle home.
                trace_on = len(message) > 4 and bool(message[4])
                try:
                    if trace_on:
                        with use_tracer(Tracer()):
                            results = engines[shard].run_batch(requests)
                    else:
                        results = engines[shard].run_batch(requests)
                    conn.send(("ok", run_id, results))
                except Exception:
                    conn.send(("err", run_id, traceback.format_exc()))
            elif command == "stats":
                payload = {
                    "shards": {
                        shard: engine.stats().summary()
                        for shard, engine in engines.items()
                    },
                    "l2": store.snapshot() if store is not None else {},
                }
                conn.send(("stats", payload))
            elif command == "close":
                conn.send(("closed",))
                return
            else:  # unknown command: protocol bug, fail loudly
                conn.send(("err", None, f"unknown worker command {command!r}"))
    finally:
        conn.close()


def merge_snapshots(snapshots) -> dict:
    """Merge per-worker stats snapshots into one cluster-level view.

    Now a thin alias for :func:`repro.obs.metrics.merge_snapshots` — the
    algorithm moved into the unified telemetry layer so cluster, workers,
    and :class:`~repro.obs.MetricsRegistry` all merge with one set of
    rules (numeric leaves sum, dicts recurse, non-numerics keep-first,
    ``*rate`` leaves recomputed from their merged counters).
    """
    return _merge_snapshots(snapshots)


class WorkerPool:
    """N shard-worker processes behind pipes, owned by one cluster.

    Parameters
    ----------
    n_workers:
        Worker processes; clamped to ``n_shards`` (an engine cannot be
        split below shard granularity, so extra workers would only idle).
    n_shards:
        Total shards; shard ``s`` is hosted by worker ``s % n_workers``.
    spec:
        Engine recipe from :func:`engine_spec`.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap: the child inherits the warm interpreter and resident
        model registry) and falls back to ``spawn`` where fork does not
        exist.
    """

    def __init__(self, n_workers: int, n_shards: int, spec: dict,
                 start_method: str | None = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        self.n_workers = min(n_workers, n_shards)
        self.start_method = start_method
        self._conns = []
        self._procs = []
        self._closed = False
        try:
            for worker_id in range(self.n_workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                shard_ids = [
                    shard for shard in range(n_shards)
                    if shard % self.n_workers == worker_id
                ]
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, worker_id, shard_ids, spec),
                    name=f"repro-shard-worker-{worker_id}",
                    daemon=True,  # never outlive the serving process
                )
                proc.start()
                child_conn.close()  # parent keeps only its end
                self._conns.append(parent_conn)
                self._procs.append(proc)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _worker_for(self, shard: int) -> int:
        return shard % self.n_workers

    def run_window(self, runs, requests, trace: bool = False):
        """Dispatch one window's same-shard runs; yield results as they
        complete.

        ``runs`` is the cluster's QoS-ordered ``[(shard, idxs), ...]``.
        All runs are sent up front — each worker drains its pipe FIFO, so
        same-shard runs execute in QoS order while different workers run
        concurrently — then ``(run_id, [SimResult, ...])`` pairs are
        yielded in completion order, which is what lets the caller score
        deadlines against real elapsed time.

        With ``trace=True`` each worker records telemetry spans for the
        run and ships them back on every ``SimResult.spans``; the caller
        re-parents them under its own dispatch spans.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        pending: dict[int, int] = {}
        for run_id, (shard, idxs) in enumerate(runs):
            worker = self._worker_for(shard)
            payload = [requests[i] for i in idxs]
            message = (("run", run_id, shard, payload, True) if trace
                       else ("run", run_id, shard, payload))
            self._send(worker, message)
            pending[run_id] = worker
        by_conn = {id(conn): i for i, conn in enumerate(self._conns)}
        while pending:
            busy = sorted({worker for worker in pending.values()})
            ready = _wait([self._conns[w] for w in busy])
            for conn in ready:
                worker = by_conn[id(conn)]
                reply = self._recv(worker)
                kind, run_id = reply[0], reply[1]
                if kind == "err":
                    raise RuntimeError(
                        f"shard worker {worker} failed:\n{reply[2]}"
                    )
                if kind != "ok" or run_id not in pending:
                    raise RuntimeError(
                        f"shard worker {worker} protocol violation: {reply[:2]}"
                    )
                del pending[run_id]
                yield run_id, reply[2]

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> list[dict]:
        """One stats payload per worker (see the protocol in the module
        docstring); callers merge with :func:`merge_snapshots`."""
        if self._closed:
            return []
        payloads = []
        for worker in range(self.n_workers):
            self._send(worker, ("stats",))
        for worker in range(self.n_workers):
            reply = self._recv(worker)
            if reply[0] != "stats":
                raise RuntimeError(
                    f"shard worker {worker} protocol violation: {reply[:1]}"
                )
            payloads.append(reply[1])
        return payloads

    def _send(self, worker: int, message) -> None:
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise RuntimeError(
                f"shard worker {worker} died (exitcode "
                f"{self._procs[worker].exitcode})"
            ) from exc

    def _recv(self, worker: int):
        try:
            return self._conns[worker].recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"shard worker {worker} died (exitcode "
                f"{self._procs[worker].exitcode})"
            ) from exc

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down; terminate stragglers.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in zip(self._procs, self._conns):
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(timeout=0.5)
        except Exception:
            pass
