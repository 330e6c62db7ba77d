"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``         — enumerate benchmarks, platforms and experiments;
* ``run``          — execute one benchmark on one platform, print the report;
* ``experiment``   — regenerate one (or all) paper tables/figures;
* ``compare``      — PointAcc vs every platform on one benchmark;
* ``inspect``      — dump a benchmark's layer trace;
* ``serve-sim``    — stream a request workload (synthetic or from a JSONL
                     request file) through the batched simulation engine;
* ``bench-engine`` — engine (cached) vs cold sequential throughput;
* ``serve-cluster``— stream a workload through a sharded engine cluster
                     with one shared trace store (optionally disk-backed)
                     and deadline QoS;
* ``bench-cluster``— warm cluster vs cold single engine throughput, plus
                     the disk-persistence warm-start path;
* ``serve-stream`` — serve a temporal LiDAR frame sequence in order;
* ``bench-stream`` — warm streaming vs cold per-frame simulation;
* ``serve-fleet``  — serve several concurrent tenant streams over one
                     shared cluster;
* ``bench-fleet``  — shared fleet vs the same streams served as separate
                     sessions;
* ``trace-report`` — per-phase time breakdown + top-N slow frames from a
                     ``--trace`` JSONL file (``--ledger-file`` joins a
                     ledger for an evictions-by-tier section);
* ``trace-diff``   — align two ``--trace`` files by phase and attribute
                     the self-time delta ("plan +38% on ~same calls").

The ``bench-*`` commands accept ``--json PATH`` to additionally write the
measured numbers as machine-readable JSON (CI archives these as
``BENCH_*.json`` perf trajectories).  Every payload carries a ``schema``
version field so downstream consumers can detect format drift.

Every serve/bench command also accepts ``--trace PATH`` (dump the run's
span trees as JSONL, plus a ``*.flight.jsonl`` sidecar holding the flight
recorder's retained slowest / deadline-missed frames), ``--metrics PATH``
(a :class:`repro.obs.MetricsRegistry` snapshot with per-phase latency
histograms and counters derived from the same spans, plus the handler's
session/cluster summary ingested as a registry source), and ``--ledger
PATH`` (the :class:`repro.obs.RecomputeLedger` event log recording each
trace-store eviction and the frame whose build caused it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager

from .baselines.mesorasi import UnsupportedModelError
from .cluster import (
    ROUTING_MODES,
    EngineCluster,
    WorkloadError,
    load_requests,
    synthetic_stream,
)
from .core import PointAccModel, POINTACC_FULL
from .engine import (
    ACCELERATORS,
    POLICIES,
    SimRequest,
    SimulationEngine,
    backend_names,
    resolve_backend,
    run_cold,
)
from .experiments import ALL_EXPERIMENTS
from .experiments.common import format_table
from .fleet import FleetSession, StreamSpec
from .nn.models.registry import BENCHMARKS, MINI_MINKUNET, build_trace
from .obs import (FlightRecorder, MetricsRegistry, RecomputeLedger, Tracer,
                  render_diff, render_report, trace_diff)
from .obs.ledger import use_ledger
from .obs.metrics import current_registry, use_registry
from .obs.trace import use_tracer
from .stream import FrameSequence, SequenceConfig, StreamSession

__all__ = ["main"]


class CLIError(Exception):
    """A user-input problem: main() prints the message and exits 2."""


#: Version of every ``bench-* --json`` payload format.  Bump when a key is
#: renamed/removed or its meaning changes; adding keys is compatible.
BENCH_JSON_SCHEMA = 1


def cmd_list(_args) -> int:
    print("benchmarks:")
    for notation, bench in BENCHMARKS.items():
        print(f"  {notation:18s} {bench.application:18s} {bench.dataset}")
    print(f"  {MINI_MINKUNET.notation:18s} "
          f"{MINI_MINKUNET.application:18s} {MINI_MINKUNET.dataset}")
    print("\nmachines:")
    for name in backend_names():
        print(f"  {name}")
    print("\nexperiments:")
    for exp_id, module in ALL_EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id:10s} {doc}")
    return 0


def _print_report(report) -> None:
    s = report.summary()
    print(f"platform : {report.platform}")
    print(f"network  : {report.network}")
    print(f"latency  : {s['latency_ms']:.3f} ms ({report.fps():.1f} FPS)")
    print(f"energy   : {s['energy_mj']:.3f} mJ")
    print(f"DRAM     : {s['dram_mb']:.2f} MB")
    print(f"MACs     : {s['macs_g']:.2f} G")
    parts = ", ".join(
        f"{k} {v * 100:.0f}%" for k, v in s["breakdown"].items() if v > 0.005
    )
    print(f"breakdown: {parts}")


def cmd_run(args) -> int:
    trace = build_trace(args.benchmark, scale=args.scale, seed=args.seed)
    try:
        machine = resolve_backend(args.machine)
    except KeyError:
        print(f"error: unknown machine {args.machine!r}; "
              f"known: {backend_names()}", file=sys.stderr)
        return 2
    try:
        report = machine.run(trace)
    except UnsupportedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report)
    if args.layers:
        rows = [
            [r.name, r.kind, f"{r.seconds * 1e6:.1f}",
             f"{r.dram_bytes / 1e3:.1f}", f"{r.macs / 1e6:.1f}"]
            for r in report.records
        ]
        print()
        print(format_table(
            ["layer", "kind", "us", "DRAM KB", "MMACs"], rows,
            title="per-layer records",
        ))
    return 0


def cmd_experiment(args) -> int:
    names = list(ALL_EXPERIMENTS) if args.id == "all" else [args.id]
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"error: unknown experiment {name!r}; "
                  f"known: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 2
        result = ALL_EXPERIMENTS[name].run(scale=args.scale, seed=args.seed)
        print(result.table())
        print()
    return 0


def cmd_compare(args) -> int:
    trace = build_trace(args.benchmark, scale=args.scale, seed=args.seed)
    base = PointAccModel(POINTACC_FULL).run(trace)
    rows = [[
        "PointAcc", f"{base.total_seconds * 1e3:.3f}",
        f"{base.energy_joules * 1e3:.3f}", "1.0x", "1.0x",
    ]]
    platforms = [n for n in backend_names() if n not in ACCELERATORS]
    for name in platforms:
        rep = resolve_backend(name).run(trace)
        rows.append([
            name,
            f"{rep.total_seconds * 1e3:.3f}",
            f"{rep.energy_joules * 1e3:.3f}",
            f"{rep.total_seconds / base.total_seconds:.1f}x",
            f"{rep.energy_joules / base.energy_joules:.1f}x",
        ])
    print(format_table(
        ["platform", "latency ms", "energy mJ", "slowdown", "energy ratio"],
        rows, title=f"{args.benchmark} @ scale {args.scale}",
    ))
    return 0


def cmd_inspect(args) -> int:
    trace = build_trace(args.benchmark, scale=args.scale, seed=args.seed)
    summary = trace.summary()
    print(f"{args.benchmark}: {summary['layers']} ops, "
          f"{summary['total_macs'] / 1e9:.2f} GMACs, "
          f"{summary['total_maps']} maps, "
          f"{trace.input_points} input points")
    rows = [
        [s.name, s.kind.value, s.n_in, s.n_out, s.c_in, s.c_out, s.rows,
         s.n_maps]
        for s in trace
    ]
    print(format_table(
        ["name", "kind", "n_in", "n_out", "c_in", "c_out", "rows", "maps"],
        rows,
    ))
    return 0


def _parse_benchmarks(arg: str) -> list[str]:
    known = {*BENCHMARKS, MINI_MINKUNET.notation}
    names = [b.strip() for b in arg.split(",") if b.strip()]
    unknown = [b for b in names if b not in known]
    if unknown:
        raise CLIError(f"unknown benchmark(s) {unknown}; known: {sorted(known)}")
    return names


def _parse_backends(arg: str) -> list[str]:
    """Validate backends with the same resolution the engine uses
    (accelerator names are case-insensitive, platform names exact)."""
    backends = [b.strip() for b in arg.split(",") if b.strip()]
    unknown = []
    for b in backends:
        try:
            resolve_backend(b)
        except KeyError:
            unknown.append(b)
    if unknown:
        raise CLIError(f"unknown backend(s) {unknown}; known: {backend_names()}")
    return backends


def _build_workload(args, tenant_pool: int = 1,
                    deadline_ms: float | None = None) -> list[SimRequest]:
    """The serving commands' traffic: a request file, or a synthetic stream.

    Synthetic seeds cycle over a pool of ``--seed-pool`` distinct clouds, so
    the stream contains the repeated geometry real traffic has and the
    caches have something to earn.
    """
    try:
        if getattr(args, "request_file", None):
            return load_requests(args.request_file)
        benchmarks = _parse_benchmarks(args.benchmarks)
        return list(synthetic_stream(
            benchmarks, args.requests, scale=args.scale,
            seed_pool=args.seed_pool, tenant_pool=tenant_pool,
            deadline_ms=deadline_ms,
        ))
    except WorkloadError as exc:
        raise CLIError(str(exc)) from exc


def _write_json(path: str, payload: dict) -> None:
    payload = {"schema": BENCH_JSON_SCHEMA, **payload}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise CLIError(f"cannot write --json file {path}: {exc}") from exc
    print(f"wrote {path}")


def _flight_path(trace_path: str) -> str:
    """The flight-recorder sidecar next to a ``--trace`` file."""
    stem, ext = os.path.splitext(trace_path)
    return f"{stem}.flight{ext or '.jsonl'}"


def _span_metrics(registry: MetricsRegistry, roots) -> None:
    """Fold finished span trees into the registry: one latency histogram
    and call counter per span name, plus every per-span counter summed."""
    for root in roots:
        for node in root.walk():
            registry.counter(f"spans.{node.name}")
            registry.observe(f"span_ms.{node.name}", node.duration * 1e3)
            for key, value in node.counters.items():
                registry.counter(f"{node.name}.{key}", value)


@contextmanager
def _observability(args):
    """Install a tracer (+ flight recorder), metrics registry, and
    recompute ledger around a serve/bench handler when
    ``--trace``/``--metrics``/``--ledger`` ask for them, and write the
    files after the handler returns — also on failure, so a partial run
    still leaves its telemetry behind for post-mortem.

    The registry is installed *before* the handler runs (see
    ``use_registry``) so handlers can ``ingest`` their session/cluster
    summaries — one metrics file then carries both span timings and
    cache counters."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    ledger_path = getattr(args, "ledger", None)
    if not trace_path and not metrics_path and not ledger_path:
        yield
        return
    tracer = Tracer(recorder=FlightRecorder())
    registry = MetricsRegistry() if metrics_path else None
    ledger = RecomputeLedger() if ledger_path else None
    try:
        with ExitStack() as stack:
            stack.enter_context(use_tracer(tracer))
            if registry is not None:
                stack.enter_context(use_registry(registry))
            if ledger is not None:
                stack.enter_context(use_ledger(ledger))
            yield
    finally:
        try:
            if trace_path:
                n = tracer.dump_jsonl(trace_path)
                print(f"wrote {trace_path} "
                      f"({n} spans in {len(tracer.roots)} roots)")
                records = tracer.recorder.records()
                if records:
                    flight = _flight_path(trace_path)
                    tracer.recorder.dump_jsonl(flight)
                    print(f"wrote {flight} "
                          f"({len(records)} flight-recorder records)")
            if ledger_path:
                n = ledger.dump_jsonl(ledger_path)
                dropped = f", {ledger.dropped} dropped" if ledger.dropped else ""
                print(f"wrote {ledger_path} ({n} ledger events{dropped})")
            if metrics_path:
                registry.gauge("trace.roots", float(len(tracer.roots)))
                _span_metrics(registry, tracer.roots)
                if ledger is not None:
                    registry.ingest("ledger", ledger.summary())
                with open(metrics_path, "w", encoding="utf-8") as fh:
                    json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"wrote {metrics_path}")
        except OSError as exc:
            raise CLIError(f"cannot write observability file: {exc}") from exc


def _ingest_metrics(name: str, payload: dict) -> None:
    """Fold a session/cluster summary into the ``--metrics`` registry
    (no-op when no registry is active)."""
    registry = current_registry()
    if registry is not None:
        registry.ingest(name, payload)


def cmd_trace_report(args) -> int:
    """Per-phase time breakdown + top-N slow frames from a trace file.

    Malformed lines are skipped with a counted warning and an empty file
    reports "no spans" — both exit 0, so a truncated trace from a crashed
    run still yields whatever it can.  Only an unreadable *file* is an
    error (exit 2)."""
    path = args.trace_file
    try:
        report = render_report(path, top=args.top,
                               ledger=getattr(args, "ledger_file", None))
    except OSError as exc:
        raise CLIError(f"cannot read trace file {path}: {exc}") from exc
    print(report, end="")
    return 0


def cmd_trace_diff(args) -> int:
    """Attribute the delta between two trace files to phases.

    Informational: exits 0 whether or not the candidate regressed — the
    regression *gate* is ``scripts/bench_compare.py``, which attaches
    this verdict to its report when traces are available."""
    try:
        diff = trace_diff(args.baseline, args.candidate)
    except OSError as exc:
        raise CLIError(f"cannot read trace file: {exc}") from exc
    print(render_diff(diff, top=args.top), end="")
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(diff, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise CLIError(f"cannot write --json file {args.json}: {exc}") \
                from exc
        print(f"wrote {args.json}")
    return 0


def cmd_serve_sim(args) -> int:
    """Simulate serving: a request stream through the engine."""
    if args.window < 1:
        print(f"error: --window must be >= 1, got {args.window}", file=sys.stderr)
        return 2
    backends = _parse_backends(args.backends)
    requests = _build_workload(args)
    engine = SimulationEngine(backends=backends, policy=args.policy)
    first = backends[0]
    print(f"{'req':>5s} {'benchmark':16s} {'points':>7s} "
          f"{first + ' ms':>12s} {'trace':>6s} {'wall ms':>8s}")
    for result in engine.stream(requests, window=args.window):
        rep = result.reports.get(first)
        modeled = f"{rep.total_seconds * 1e3:12.3f}" if rep else " unsupported"
        print(f"{result.request.tag:>5s} {result.request.benchmark:16s} "
              f"{result.input_points:7d} {modeled} "
              f"{'reuse' if result.trace_reused else 'build':>6s} "
              f"{result.wall_seconds * 1e3:8.2f}")
    stats = engine.stats()
    _ingest_metrics("engine", stats.summary())
    print(f"\nserved {stats.requests} requests in {stats.wall_seconds:.3f}s "
          f"({stats.throughput_rps:.1f} req/s, policy={args.policy})")
    print(f"traces: {stats.trace_builds} built, {stats.trace_reuses} reused; "
          f"reports: {stats.report_reuses} reused")
    for name in backends:
        print(f"modeled {name}: {stats.backend_seconds[name] * 1e3:.3f} ms total")
    return 0


def _repeated_workload(args) -> tuple[list[SimRequest], list[str]]:
    """The benchmark commands' stream: every distinct (benchmark, seed)
    cloud appears ``--repeats`` times — steady-state serving traffic."""
    benchmarks = _parse_benchmarks(args.benchmarks)
    requests = [
        SimRequest(benchmark=b, scale=args.scale, seed=s)
        for s in range(args.seeds)
        for b in benchmarks
        for _ in range(args.repeats)
    ]
    return requests, benchmarks


def _count_mismatches(baseline, results, backend: str = "pointacc") -> int:
    return sum(
        a.reports[backend] != b.reports[backend]
        for a, b in zip(baseline, results)
    )


def _print_speedup(slow_s: float, fast_s: float, mismatch: int) -> int:
    """Shared bench epilogue; the exit code (0 iff bit-identical)."""
    verdict = "yes" if mismatch == 0 else f"NO, {mismatch} differ"
    print(f"\nspeedup: {slow_s / fast_s:.2f}x  "
          f"(reports bit-identical: {verdict})")
    return 0 if mismatch == 0 else 1


def _bench_title(args, n: int, benchmarks) -> str:
    return (f"{n} requests: {','.join(benchmarks)} x {args.repeats} repeats "
            f"x {args.seeds} seeds @ scale {args.scale}")


def cmd_bench_engine(args) -> int:
    """Throughput comparison: engine with caches vs cold sequential runs."""
    requests, benchmarks = _repeated_workload(args)
    t0 = time.perf_counter()
    cold = [run_cold(r, backends=("pointacc",)) for r in requests]
    cold_s = time.perf_counter() - t0

    engine = SimulationEngine(backends=("pointacc",), policy=args.policy)
    t0 = time.perf_counter()
    results = engine.run_batch(requests)
    engine_s = time.perf_counter() - t0

    mismatch = _count_mismatches(cold, results)
    stats = engine.stats()
    n = len(requests)
    rows = [
        ["cold sequential", f"{cold_s:.3f}", f"{n / cold_s:.1f}", "-"],
        [f"engine ({args.policy})", f"{engine_s:.3f}", f"{n / engine_s:.1f}",
         f"{stats.trace_reuses}/{n}"],
    ]
    print(format_table(
        ["mode", "wall s", "req/s", "trace reuse"],
        rows, title=_bench_title(args, n, benchmarks),
    ))
    code = _print_speedup(cold_s, engine_s, mismatch)
    if args.json:
        _write_json(args.json, {
            "command": "bench-engine",
            "requests": n,
            "benchmarks": benchmarks,
            "repeats": args.repeats,
            "seeds": args.seeds,
            "scale": args.scale,
            "policy": args.policy,
            "cold_seconds": cold_s,
            "engine_seconds": engine_s,
            "speedup": cold_s / engine_s,
            "mismatches": mismatch,
            "trace_reuses": stats.trace_reuses,
            "map_cache": stats.map_cache,
        })
    return code


def cmd_serve_cluster(args) -> int:
    """Stream a workload through the sharded cluster and its trace store."""
    if args.window < 1:
        print(f"error: --window must be >= 1, got {args.window}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.workers < 0:
        print(f"error: --workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 2
    backends = _parse_backends(args.backends)
    requests = _build_workload(
        args, tenant_pool=args.tenant_pool, deadline_ms=args.deadline_ms
    )
    cluster = EngineCluster(
        n_shards=args.shards,
        backends=backends,
        policy=args.policy,
        routing=args.routing,
        cache_dir=args.cache_dir,
        workers=args.workers,
    )
    first = backends[0]
    first_request_trace = None
    print(f"{'req':>5s} {'benchmark':16s} {'shard':>5s} {'tenant':8s} "
          f"{first + ' ms':>12s} {'trace':>6s} {'deadline':>8s}")
    for result in cluster.stream(requests, window=args.window):
        if "cluster" in result.errors:
            print(f"{result.request.tag:>5s} {result.request.benchmark:16s} "
                  f"{'-':>5s} {result.request.tenant:8s} "
                  f"{'rejected':>12s} {'-':>6s} {'-':>8s}")
            continue
        if first_request_trace is None:  # first *admitted* request
            first_request_trace = "reuse" if result.trace_reused else "build"
        rep = result.reports.get(first)
        modeled = f"{rep.total_seconds * 1e3:12.3f}" if rep else " unsupported"
        deadline = {True: "met", False: "MISSED", None: "-"}[result.deadline_met]
        print(f"{result.request.tag:>5s} {result.request.benchmark:16s} "
              f"{result.shard:5d} {result.request.tenant:8s} {modeled} "
              f"{'reuse' if result.trace_reused else 'build':>6s} "
              f"{deadline:>8s}")
    stats = cluster.stats()
    _ingest_metrics("cluster", stats.summary())
    cluster.close()  # stats already collected; stop worker processes
    workers = f", workers={stats.workers}" if stats.workers else ""
    print(f"\nserved {stats.admitted}/{stats.requests} requests "
          f"({stats.rejected} rejected) in {stats.wall_seconds:.3f}s "
          f"({stats.throughput_rps:.1f} req/s, shards={args.shards}, "
          f"routing={args.routing}, policy={args.policy}{workers})")
    print(f"deadlines: {stats.deadline_met} met, {stats.deadline_missed} missed")
    print(f"shard requests: {stats.routing['counts']}")
    l2 = stats.l2
    print(f"trace store: {l2.get('hits', 0)} hits / "
          f"{l2.get('misses', 0)} misses, {l2.get('disk_hits', 0)} disk hits"
          + (f" (persisted under {args.cache_dir})" if args.cache_dir else ""))
    # Warm-start observability: with a pre-populated --cache-dir the very
    # first admitted request already reuses a trace (the benchmark suite
    # asserts on this line); '-' when nothing was admitted.
    print(f"first-request trace: {first_request_trace or '-'}")
    for tenant, acct in stats.tenants.items():
        print(f"tenant {tenant}: {acct['requests']} requests, "
              f"{acct['rejected']} rejected, "
              f"{acct['deadline_met']} met / {acct['deadline_missed']} missed, "
              f"{acct['modeled_seconds'] * 1e3:.3f} modeled ms")
    return 0


def cmd_bench_cluster(args) -> int:
    """Warm cluster vs cold single engine on a repeated-workload stream.

    With ``--workers N`` two further arms serve the same stream through a
    worker-mode cluster (fresh per-worker caches, no disk spill): a *cold*
    pass, whose real compute spreads over the worker processes, and a
    warm repeat.  The JSON payload records ``worker_scaling`` — cold
    single-engine wall over cold worker wall, i.e. how much of the
    compute the processes actually parallelized — for run-to-run gating
    (both sides are compute-bound, so the ratio is stable where a
    warm-vs-warm ratio of microsecond cache-hit passes would be noise).
    """
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.workers < 0:
        print(f"error: --workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 2
    requests, benchmarks = _repeated_workload(args)
    n = len(requests)

    engine = SimulationEngine(backends=("pointacc",), policy=args.policy)
    t0 = time.perf_counter()
    cold_results = engine.run_batch(requests)
    cold_s = time.perf_counter() - t0

    cluster = EngineCluster(
        n_shards=args.shards, backends=("pointacc",), policy=args.policy,
        routing=args.routing, cache_dir=args.cache_dir,
    )
    cluster.run_batch(requests)  # warm-up pass: caches hot, memos filled
    t0 = time.perf_counter()
    warm_results = cluster.run_batch(requests)
    warm_s = time.perf_counter() - t0

    mismatch = _count_mismatches(cold_results, warm_results)
    stats = cluster.stats()
    rows = [
        ["cold single engine", f"{cold_s:.3f}", f"{n / cold_s:.1f}", "-"],
        [f"warm cluster ({args.shards} shards, {args.routing})",
         f"{warm_s:.3f}", f"{n / warm_s:.1f}",
         str(stats.routing["counts"])],
    ]

    worker_s = worker_cold_s = None
    if args.workers > 0:
        # No cache_dir here: the warm pass above may have spilled to it,
        # and a disk warm-start would let cache reuse masquerade as
        # process scaling.
        with EngineCluster(
            n_shards=args.shards, backends=("pointacc",), policy=args.policy,
            routing=args.routing, workers=args.workers,
        ) as worker_cluster:
            t0 = time.perf_counter()
            worker_cold_results = worker_cluster.run_batch(requests)
            worker_cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            worker_results = worker_cluster.run_batch(requests)
            worker_s = time.perf_counter() - t0
            worker_stats = worker_cluster.stats()
        mismatch += _count_mismatches(cold_results, worker_cold_results)
        mismatch += _count_mismatches(cold_results, worker_results)
        rows.append([
            f"worker cluster cold ({worker_stats.workers} procs)",
            f"{worker_cold_s:.3f}", f"{n / worker_cold_s:.1f}",
            str(worker_stats.routing["counts"]),
        ])
        rows.append([
            f"worker cluster warm ({worker_stats.workers} procs)",
            f"{worker_s:.3f}", f"{n / worker_s:.1f}",
            str(worker_stats.routing["counts"]),
        ])

    print(format_table(
        ["mode", "wall s", "req/s", "shard requests"],
        rows, title=_bench_title(args, n, benchmarks),
    ))
    code = _print_speedup(cold_s, warm_s, mismatch)
    if worker_s is not None:
        print(f"worker scaling: {cold_s / worker_cold_s:.2f}x cold compute "
              f"over {args.workers} worker processes "
              f"(warm repeat {cold_s / worker_s:.2f}x over cold)")
    if args.cache_dir:
        print(f"trace store persisted under {args.cache_dir} "
              f"(a later serve-cluster --cache-dir warm-starts from it)")
    if args.json:
        payload = {
            "command": "bench-cluster",
            "requests": n,
            "benchmarks": benchmarks,
            "repeats": args.repeats,
            "seeds": args.seeds,
            "scale": args.scale,
            "policy": args.policy,
            "shards": args.shards,
            "routing": args.routing,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": cold_s / warm_s,
            "mismatches": mismatch,
            "shard_requests": stats.routing["counts"],
            "l2": stats.l2,
        }
        if worker_s is not None:
            payload.update({
                "workers": args.workers,
                "worker_cold_seconds": worker_cold_s,
                "worker_seconds": worker_s,
                "worker_speedup": cold_s / worker_s,
                "worker_scaling": cold_s / worker_cold_s,
            })
        _write_json(args.json, payload)
    return code


def cmd_serve_stream(args) -> int:
    """Serve a synthetic LiDAR sequence frame by frame, in order."""
    if args.frames < 1:
        print(f"error: --frames must be >= 1, got {args.frames}", file=sys.stderr)
        return 2
    try:
        session = _build_stream_session(args)
    except (KeyError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    print(f"{'frame':>5s} {'points':>7s} {'pointacc ms':>12s} "
          f"{'wall ms':>8s} {'status':>8s}")
    for frame in session.play(args.frames):
        if frame.dropped or frame.rejected:
            status = "dropped" if frame.dropped else "rejected"
            print(f"{frame.index:5d} {'-':>7s} {'-':>12s} "
                  f"{'-':>8s} {status:>8s}")
            continue
        rep = frame.result.reports.get("pointacc")
        modeled = f"{rep.total_seconds * 1e3:12.3f}" if rep else " unsupported"
        deadline = {True: "met", False: "MISSED", None: "ok"}[
            frame.result.deadline_met
        ]
        print(f"{frame.index:5d} {frame.result.input_points:7d} {modeled} "
              f"{frame.latency_ms:8.1f} {deadline:>8s}")
    summary = session.summary()
    _ingest_metrics("stream", summary)
    print(f"\nserved {summary['completed']}/{summary['frames']} frames "
          f"({summary['dropped']} dropped, {summary['rejected']} rejected) "
          f"in {summary['wall_seconds']:.3f}s "
          f"({summary['throughput_fps']:.1f} frames/s)")
    print(f"latency: p50 {summary['latency_p50_ms']:.1f} ms, "
          f"p99 {summary['latency_p99_ms']:.1f} ms; "
          f"geometry-only: {'yes' if summary['geometry_only'] else 'no'}")
    session.close()
    return 0


def cmd_bench_stream(args) -> int:
    """Warm streaming vs cold per-frame simulation on one sequence."""
    if args.frames < 1:
        print(f"error: --frames must be >= 1, got {args.frames}", file=sys.stderr)
        return 2
    backends = _parse_backends(args.backends)
    first = backends[0]
    try:
        session = _build_stream_session(args)
    except (KeyError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    if args.drop_late:
        # A throughput comparison needs every frame simulated on both
        # sides; load shedding belongs to serve-stream.
        raise CLIError("bench-stream compares complete passes; "
                       "--drop-late only applies to serve-stream")

    t0 = time.perf_counter()
    cold = [
        run_cold(
            SimRequest(benchmark=session.notation, scale=args.scale, seed=i),
            backends=backends,
        )
        for i in range(args.frames)
    ]
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = session.run(args.frames)
    warm_s = time.perf_counter() - t0

    incomplete = sum(not w.completed for w in warm)
    if incomplete:
        raise CLIError(
            f"{incomplete} of {args.frames} frames were rejected "
            f"(deadline admission) — relax --deadline-ms to benchmark "
            f"a complete pass"
        )
    # A backend that cannot run this model records the same error cold and
    # warm; compare whatever reports exist (None == None is a match).
    mismatch = sum(
        c.reports.get(first) != w.result.reports.get(first)
        for c, w in zip(cold, warm)
    )
    summary = session.summary()
    _ingest_metrics("stream", summary)
    session.close()  # stats collected; stop worker processes, when any
    n = args.frames
    rows = [
        ["cold per-frame", f"{cold_s:.3f}", f"{n / cold_s:.2f}"],
        ["warm streaming", f"{warm_s:.3f}", f"{n / warm_s:.2f}"],
    ]
    print(format_table(
        ["mode", "wall s", "frames/s"],
        rows,
        title=f"{n} frames: {args.benchmark} @ scale {args.scale}",
    ))
    code = _print_speedup(cold_s, warm_s, mismatch)
    if args.json:
        _write_json(args.json, {
            "command": "bench-stream",
            "frames": n,
            "benchmark": args.benchmark,
            "scale": args.scale,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": cold_s / warm_s,
            "mismatches": mismatch,
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_p99_ms": summary["latency_p99_ms"],
        })
    return code


def _fleet_specs(args) -> list[StreamSpec]:
    """The fleet's streams: N vehicles on one road (same world seed,
    staggered ``start_x``, per-vehicle sensor noise) or — with
    ``--disjoint`` — N separate worlds."""
    if args.streams < 1:
        raise CLIError(f"--streams must be >= 1, got {args.streams}")
    specs = []
    for i in range(args.streams):
        config = SequenceConfig(
            seed=args.seq_seed + (i if args.disjoint else 0),
            n_frames=args.frames,
            speed=args.speed,
            fov=args.fov,
            start_x=0.0 if args.disjoint else i * args.start_gap,
            sensor_seed=0 if args.disjoint else i,
        )
        specs.append(StreamSpec(
            name=f"veh{i}",
            sequence=FrameSequence(config),
            benchmark=args.benchmark,
            scale=args.scale,
            n_frames=args.frames,
            deadline_ms=args.deadline_ms,
        ))
    return specs


def _build_fleet_session(args) -> FleetSession:
    """Shared serve-fleet / bench-fleet session construction."""
    return FleetSession(
        _fleet_specs(args),
        backends=_parse_backends(args.backends),
        n_shards=args.shards,
        workers=args.workers,
    )


def cmd_serve_fleet(args) -> int:
    """Serve N concurrent tenant streams over one shared cluster."""
    if args.frames < 1:
        print(f"error: --frames must be >= 1, got {args.frames}",
              file=sys.stderr)
        return 2
    try:
        session = _build_fleet_session(args)
    except (KeyError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    print(f"{'frame':>5s} {'stream':>6s} {'points':>7s} "
          f"{'pointacc ms':>12s} {'wall ms':>8s} {'deadline':>8s}")
    for round_results in session.play():
        for name, frame in round_results:
            if frame.rejected:
                print(f"{frame.index:5d} {name:>6s} {'-':>7s} "
                      f"{'rejected':>12s} {'-':>8s} {'-':>8s}")
                continue
            rep = frame.result.reports.get("pointacc")
            modeled = (f"{rep.total_seconds * 1e3:12.3f}" if rep
                       else " unsupported")
            deadline = {True: "met", False: "MISSED", None: "-"}[
                frame.result.deadline_met
            ]
            print(f"{frame.index:5d} {name:>6s} "
                  f"{frame.result.input_points:7d} {modeled} "
                  f"{frame.latency_ms:8.1f} {deadline:>8s}")
    summary = session.summary()
    _ingest_metrics("fleet", summary)
    print(f"\nserved {summary['completed']}/{summary['frames']} frames "
          f"from {len(session.streams)} streams "
          f"({summary['rejected']} rejected) in "
          f"{summary['wall_seconds']:.3f}s "
          f"({summary['throughput_fps']:.1f} frames/s, "
          f"{summary['rounds']} rounds, shards={args.shards}"
          + (f", workers={args.workers}" if args.workers else "") + ")")
    for name, tally in summary["per_stream"].items():
        print(f"stream {name}: {tally['completed']}/{tally['frames']} "
              f"completed, {tally['deadline_met']} met / "
              f"{tally['deadline_missed']} missed")
    session.close()
    return 0


def cmd_bench_fleet(args) -> int:
    """Shared fleet vs the same streams served as separate sessions."""
    if args.frames < 1:
        print(f"error: --frames must be >= 1, got {args.frames}",
              file=sys.stderr)
        return 2
    backends = _parse_backends(args.backends)
    first = backends[0]
    try:
        session = _build_fleet_session(args)
        specs = session.streams
    except (KeyError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    # Pre-build each sequence's static world (and thereby the resident
    # model) outside both timed passes: the synthetic generator is shared
    # fixture, not the serving system, and whichever side ran first would
    # otherwise pay it for the other.
    for spec in specs:
        spec.sequence.frame(0, scale=spec.scale)

    # Baseline: the identical streams, each with its own engine and its
    # own trace store — nothing shared across streams.
    solo_sessions = {
        spec.name: StreamSession(
            spec.sequence, spec.benchmark, backends=backends,
            scale=spec.scale, tenant=spec.name,
        )
        for spec in specs
    }
    t0 = time.perf_counter()
    solo_results = {
        name: s.run(args.frames) for name, s in solo_sessions.items()
    }
    solo_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fleet_results = session.run()
    fleet_s = time.perf_counter() - t0

    mismatch = sum(
        a.result.reports.get(first) != b.result.reports.get(first)
        for name in solo_results
        for a, b in zip(solo_results[name], fleet_results[name])
    )
    summary = session.summary()
    _ingest_metrics("fleet", summary)
    session.close()  # stats collected; stop worker processes, when any
    n = summary["frames"]
    rows = [
        ["separate sessions", f"{solo_s:.3f}", f"{n / solo_s:.2f}"],
        ["shared fleet", f"{fleet_s:.3f}", f"{n / fleet_s:.2f}"],
    ]
    print(format_table(
        ["mode", "wall s", "frames/s"],
        rows,
        title=(f"{len(specs)} streams x {args.frames} frames: "
               f"{args.benchmark} @ scale {args.scale}, "
               f"{'disjoint' if args.disjoint else 'overlapping'} regions"),
    ))
    code = _print_speedup(solo_s, fleet_s, mismatch)
    if args.json:
        _write_json(args.json, {
            "command": "bench-fleet",
            "streams": len(specs),
            "frames_per_stream": args.frames,
            "benchmark": args.benchmark,
            "scale": args.scale,
            "disjoint": bool(args.disjoint),
            "start_gap": args.start_gap,
            "shards": args.shards,
            "workers": args.workers,
            "solo_seconds": solo_s,
            "fleet_seconds": fleet_s,
            "speedup": solo_s / fleet_s,
            "mismatches": mismatch,
        })
    return code


def _build_stream_session(args) -> StreamSession:
    """Shared serve-stream / bench-stream session construction."""
    if args.workers > 0 and args.shards < 1:
        raise ValueError("--workers requires a cluster (--shards > 0)")
    sequence = FrameSequence(SequenceConfig(
        seed=args.seq_seed,
        n_frames=args.frames,
        speed=args.speed,
        fov=args.fov,
    ))
    cluster = None
    if args.shards > 0:
        # Worker processes fork when the cluster is built and resolve
        # stream-sourced benchmarks from their (inherited) process-local
        # registry — the sequence must be registered before that point.
        sequence.register()

        cluster = EngineCluster(
            n_shards=args.shards,
            backends=_parse_backends(args.backends),
            workers=args.workers,
        )
    return StreamSession(
        sequence,
        args.benchmark,
        cluster=cluster,
        backends=_parse_backends(args.backends),
        scale=args.scale,
        deadline_ms=args.deadline_ms,
        period_ms=args.period_ms,
        drop_late=args.drop_late,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks/machines/experiments")

    run_p = sub.add_parser("run", help="run one benchmark on one machine")
    run_p.add_argument("benchmark", choices=[*BENCHMARKS, MINI_MINKUNET.notation])
    run_p.add_argument("--machine", default="pointacc")
    run_p.add_argument("--scale", type=float, default=0.25)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--layers", action="store_true",
                       help="print per-layer records")

    exp_p = sub.add_parser("experiment", help="regenerate a table/figure")
    exp_p.add_argument("id", help="experiment id (or 'all')")
    exp_p.add_argument("--scale", type=float, default=0.25)
    exp_p.add_argument("--seed", type=int, default=0)

    cmp_p = sub.add_parser("compare", help="PointAcc vs all platforms")
    cmp_p.add_argument("benchmark", choices=[*BENCHMARKS, MINI_MINKUNET.notation])
    cmp_p.add_argument("--scale", type=float, default=0.25)
    cmp_p.add_argument("--seed", type=int, default=0)

    ins_p = sub.add_parser("inspect", help="dump a benchmark's trace")
    ins_p.add_argument("benchmark", choices=[*BENCHMARKS, MINI_MINKUNET.notation])
    ins_p.add_argument("--scale", type=float, default=0.1)
    ins_p.add_argument("--seed", type=int, default=0)

    def add_workload_args(p):
        p.add_argument("--requests", type=int, default=12)
        p.add_argument("--benchmarks", default="PointNet++(c),DGCNN")
        p.add_argument("--backends", default="pointacc")
        p.add_argument("--scale", type=float, default=0.25)
        p.add_argument("--seed-pool", type=int, default=3,
                       help="distinct clouds in the stream (repeats feed caches)")
        p.add_argument("--request-file", default=None, metavar="PATH",
                       help="JSONL request file (overrides the synthetic stream)")
        p.add_argument("--policy", choices=POLICIES, default="bucketed")
        p.add_argument("--window", type=int, default=8,
                       help="streaming scheduling window")

    def add_obs_args(p):
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="write the run's span trees as JSONL (plus a "
                            "*.flight.jsonl sidecar with the slowest / "
                            "deadline-missed frames)")
        p.add_argument("--metrics", default=None, metavar="PATH",
                       help="write a metrics snapshot (per-phase latency "
                            "histograms and counters) as JSON")
        p.add_argument("--ledger", default=None, metavar="PATH",
                       help="write the cache-lineage ledger (each trace-store "
                            "eviction and its frame) as JSONL")

    srv_p = sub.add_parser(
        "serve-sim", help="stream a workload through the engine"
    )
    add_workload_args(srv_p)
    add_obs_args(srv_p)

    def add_json_arg(p):
        p.add_argument("--json", default=None, metavar="PATH",
                       help="additionally write the measured numbers as JSON")

    be_p = sub.add_parser(
        "bench-engine", help="engine (cached) vs cold sequential throughput"
    )
    add_obs_args(be_p)
    be_p.add_argument("--benchmarks", default="PointNet++(c),DGCNN")
    be_p.add_argument("--repeats", type=int, default=3,
                      help="times each (benchmark, seed) cloud repeats")
    be_p.add_argument("--seeds", type=int, default=2)
    be_p.add_argument("--scale", type=float, default=0.25)
    be_p.add_argument("--policy", choices=POLICIES, default="bucketed")
    add_json_arg(be_p)

    sc_p = sub.add_parser(
        "serve-cluster",
        help="stream a workload through the sharded cluster (trace store, QoS)",
    )
    add_workload_args(sc_p)
    add_obs_args(sc_p)
    sc_p.add_argument("--shards", type=int, default=4)
    sc_p.add_argument("--routing", choices=ROUTING_MODES, default="affinity")
    sc_p.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="persist the shared trace store here (warm-starts "
                           "later invocations)")
    sc_p.add_argument("--workers", type=int, default=0,
                      help="run shards in this many worker processes "
                           "(0 = in-process)")
    sc_p.add_argument("--tenant-pool", type=int, default=2,
                      help="distinct tenants cycled through the synthetic stream")
    sc_p.add_argument("--deadline-ms", type=float, default=None,
                      help="stamp every synthetic request with this deadline "
                           "budget")

    bc_p = sub.add_parser(
        "bench-cluster",
        help="warm cluster vs cold single engine throughput",
    )
    add_obs_args(bc_p)
    bc_p.add_argument("--benchmarks", default="PointNet++(c),DGCNN")
    bc_p.add_argument("--repeats", type=int, default=3,
                      help="times each (benchmark, seed) cloud repeats")
    bc_p.add_argument("--seeds", type=int, default=2)
    bc_p.add_argument("--scale", type=float, default=0.25)
    bc_p.add_argument("--policy", choices=POLICIES, default="bucketed")
    bc_p.add_argument("--shards", type=int, default=4)
    bc_p.add_argument("--routing", choices=ROUTING_MODES, default="affinity")
    bc_p.add_argument("--cache-dir", default=None, metavar="DIR")
    bc_p.add_argument("--workers", type=int, default=0,
                      help="additionally time a worker-mode cluster with "
                           "this many processes (0 = skip the arm)")
    add_json_arg(bc_p)

    def add_stream_args(p):
        p.add_argument("--frames", type=int, default=8)
        p.add_argument("--benchmark", default="MinkNet(o)",
                       choices=[*BENCHMARKS, MINI_MINKUNET.notation])
        p.add_argument("--scale", type=float, default=0.25)
        p.add_argument("--seq-seed", type=int, default=0,
                       help="sequence world/weights seed")
        p.add_argument("--speed", type=float, default=2.0,
                       help="ego meters per frame")
        p.add_argument("--fov", type=float, default=24.0,
                       help="field-of-view half-side, meters")
        p.add_argument("--backends", default="pointacc")
        p.add_argument("--shards", type=int, default=0,
                       help="> 0 serves through an engine cluster")
        p.add_argument("--workers", type=int, default=0,
                       help="run cluster shards in this many worker "
                            "processes (needs --shards > 0)")
        p.add_argument("--deadline-ms", type=float, default=None)
        p.add_argument("--period-ms", type=float, default=100.0,
                       help="frame arrival period (the stream's native rate)")
        p.add_argument("--drop-late", action="store_true",
                       help="drop frames whose deadline expired before dispatch")

    ss_p = sub.add_parser(
        "serve-stream",
        help="serve a LiDAR frame sequence frame by frame, in order",
    )
    add_stream_args(ss_p)
    add_obs_args(ss_p)

    bs_p = sub.add_parser(
        "bench-stream",
        help="warm streaming vs cold per-frame simulation",
    )
    add_stream_args(bs_p)
    add_obs_args(bs_p)
    add_json_arg(bs_p)

    def add_fleet_args(p):
        p.add_argument("--streams", type=int, default=3,
                       help="concurrent tenant streams (vehicles)")
        p.add_argument("--frames", type=int, default=4,
                       help="frames per stream")
        p.add_argument("--benchmark", default="MinkNet(o)",
                       choices=[*BENCHMARKS, MINI_MINKUNET.notation])
        p.add_argument("--scale", type=float, default=0.25)
        p.add_argument("--seq-seed", type=int, default=0,
                       help="world/weights seed (stream i adds i with "
                            "--disjoint)")
        p.add_argument("--speed", type=float, default=2.0,
                       help="ego meters per frame")
        p.add_argument("--fov", type=float, default=24.0,
                       help="field-of-view half-side, meters")
        p.add_argument("--start-gap", type=float, default=1.0,
                       help="start_x stagger between vehicles, meters")
        p.add_argument("--disjoint", action="store_true",
                       help="give each stream its own world (no overlap)")
        p.add_argument("--backends", default="pointacc")
        p.add_argument("--shards", type=int, default=2,
                       help="cluster shards (0 = single shared engine)")
        p.add_argument("--workers", type=int, default=0,
                       help="run cluster shards in this many worker "
                            "processes (needs --shards > 0)")
        p.add_argument("--deadline-ms", type=float, default=None)

    sf_p = sub.add_parser(
        "serve-fleet",
        help="serve concurrent tenant streams over one shared cluster",
    )
    add_fleet_args(sf_p)
    add_obs_args(sf_p)

    bf_p = sub.add_parser(
        "bench-fleet",
        help="shared fleet vs separate per-stream sessions throughput",
    )
    add_fleet_args(bf_p)
    add_obs_args(bf_p)
    add_json_arg(bf_p)

    tr_p = sub.add_parser(
        "trace-report",
        help="per-phase time breakdown from a --trace JSONL file",
    )
    tr_p.add_argument("trace_file", metavar="PATH",
                      help="JSONL written by --trace (span trees) or a "
                           "*.flight.jsonl flight-recorder dump")
    tr_p.add_argument("--top", type=int, default=5,
                      help="slow frames to detail")
    tr_p.add_argument("--ledger-file", default=None, metavar="PATH",
                      help="join a --ledger JSONL by frame id for an "
                           "evictions-by-tier section")

    td_p = sub.add_parser(
        "trace-diff",
        help="attribute the delta between two --trace files to phases",
    )
    td_p.add_argument("baseline", metavar="BASELINE",
                      help="baseline trace JSONL (the 'before' run)")
    td_p.add_argument("candidate", metavar="CANDIDATE",
                      help="candidate trace JSONL (the 'after' run)")
    td_p.add_argument("--top", type=int, default=None,
                      help="phases to show (default: all)")
    td_p.add_argument("--json", default=None, metavar="PATH",
                      help="additionally write the machine verdict as JSON")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "experiment": cmd_experiment,
        "compare": cmd_compare,
        "inspect": cmd_inspect,
        "serve-sim": cmd_serve_sim,
        "bench-engine": cmd_bench_engine,
        "serve-cluster": cmd_serve_cluster,
        "bench-cluster": cmd_bench_cluster,
        "serve-stream": cmd_serve_stream,
        "bench-stream": cmd_bench_stream,
        "serve-fleet": cmd_serve_fleet,
        "bench-fleet": cmd_bench_fleet,
        "trace-report": cmd_trace_report,
        "trace-diff": cmd_trace_diff,
    }
    try:
        with _observability(args):
            return handlers[args.command](args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
