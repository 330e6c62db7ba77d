"""Engine throughput microbench: cached batch vs cold sequential simulation.

A repeated-cloud batch (every distinct workload appears ``REPEATS`` times,
the steady-state serving pattern) runs three ways:

* cold sequential — fresh trace + fresh models per request, no memos (the
  pre-engine behaviour);
* engine, one-entry store — a ``TraceStore(max_entries=1)`` that keeps
  only the last trace it built;
* engine, full — the default trace store, which keeps each trace's reports.

The full engine must clear >= 1.5x throughput on this batch (the PR's
acceptance floor; structurally it sits near REPEATS x), and every report
must be bit-identical to the cold run — memoizing may never change a
result.

Unlike the experiment benches this table is *printed, not archived*: every
cell is machine-dependent wall-clock timing, so writing it into
``benchmarks/_results/`` (the deterministic golden-figure store) would
churn on every machine.
"""

import time

from repro.engine import SimRequest, SimulationEngine, TraceStore, run_cold
from repro.experiments.common import ExperimentResult

REPEATS = 3
SPEEDUP_FLOOR = 1.5


def _batch(scale: float) -> list[SimRequest]:
    # The throughput bench does not need paper-size clouds; cap the scale so
    # the suite stays fast while the work mix stays representative.
    eff = min(scale, 0.35)
    distinct = [
        SimRequest("PointNet++(c)", scale=eff, seed=0),
        SimRequest("DGCNN", scale=eff, seed=0),
        SimRequest("PointNet++(c)", scale=eff, seed=1),
    ]
    return [r for r in distinct for _ in range(REPEATS)]


def test_engine_throughput(scale):
    batch = _batch(scale)
    n = len(batch)

    t0 = time.perf_counter()
    cold = [run_cold(r, backends=("pointacc",)) for r in batch]
    cold_s = time.perf_counter() - t0

    small_engine = SimulationEngine(
        backends=("pointacc",), policy="bucketed",
        store=TraceStore(max_entries=1),
    )
    t0 = time.perf_counter()
    small_results = small_engine.run_batch(batch)
    small_s = time.perf_counter() - t0

    full_engine = SimulationEngine(backends=("pointacc",), policy="bucketed")
    t0 = time.perf_counter()
    full_results = full_engine.run_batch(batch)
    full_s = time.perf_counter() - t0

    for label, results in (("one-entry", small_results),
                           ("full", full_results)):
        for baseline, result in zip(cold, results):
            assert baseline.reports["pointacc"] == result.reports["pointacc"], (
                f"{label} engine changed a report for {result.request}"
            )

    full_stats = full_engine.stats()
    small_stats = small_engine.stats()
    speedup = cold_s / full_s
    rows = [
        ["cold sequential", f"{cold_s * 1e3:.1f}", f"{n / cold_s:.1f}", "-"],
        ["engine one-entry store", f"{small_s * 1e3:.1f}",
         f"{n / small_s:.1f}", str(small_stats.trace_reuses)],
        ["engine full", f"{full_s * 1e3:.1f}", f"{n / full_s:.1f}",
         str(full_stats.trace_reuses)],
    ]
    print("\n" + ExperimentResult(
        experiment_id="bench-engine",
        title=(f"Engine throughput on a repeated-cloud batch "
               f"({n} requests, x{REPEATS} repeats): {speedup:.1f}x"),
        headers=["mode", "wall ms", "req/s", "trace reuses"],
        rows=rows,
        data={"speedup": speedup, "requests": n},
    ).table())

    assert full_stats.trace_reuses == n - n // REPEATS
    assert speedup >= SPEEDUP_FLOOR, (
        f"engine speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor "
        f"(cold {cold_s:.3f}s vs engine {full_s:.3f}s)"
    )
