"""Batch serving: many clouds through one engine, traces reused across requests.

A serving deployment sees the same workload again and again — popular
scenes, retried requests.  The SimulationEngine exploits that: one shared
set of backend models and a trace store keyed by workload
``(benchmark, scale, seed)`` that keeps each trace's reports with it.
This example pushes a mixed batch with repeated clouds through the
engine and compares against the cold sequential path the repo used
before the engine existed.

Run:  python examples/batch_serving.py [--repeats N]
"""

import argparse
import time

from repro.engine import SimRequest, SimulationEngine, run_cold


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="times each distinct cloud appears in the batch")
    parser.add_argument("--scale", type=float, default=0.2)
    args = parser.parse_args()

    distinct = [
        SimRequest("PointNet++(c)", scale=args.scale, seed=0),
        SimRequest("DGCNN", scale=args.scale, seed=0),
        SimRequest("PointNet++(c)", scale=args.scale, seed=1, priority=1),
    ]
    batch = [r for r in distinct for _ in range(args.repeats)]

    t0 = time.perf_counter()
    for request in batch:
        run_cold(request, backends=("pointacc",))
    cold_s = time.perf_counter() - t0

    engine = SimulationEngine(backends=("pointacc",), policy="bucketed")
    t0 = time.perf_counter()
    results = engine.run_batch(batch)
    engine_s = time.perf_counter() - t0

    print(f"{'benchmark':16s} {'seed':>4s} {'points':>7s} "
          f"{'modeled ms':>11s} {'trace':>6s}")
    for result in results:
        report = result.report("pointacc")
        print(f"{result.request.benchmark:16s} {result.request.seed:4d} "
              f"{result.input_points:7d} "
              f"{report.total_seconds * 1e3:11.3f} "
              f"{'reuse' if result.trace_reused else 'build':>6s}")

    stats = engine.stats()
    print(f"\nbatch of {len(batch)}: cold sequential {cold_s:.3f}s, "
          f"engine {engine_s:.3f}s -> {cold_s / engine_s:.1f}x throughput")
    print(f"traces built {stats.trace_builds}, reused {stats.trace_reuses}; "
          f"trace-store hit rate "
          f"{stats.map_cache.get('hit_rate', 0.0) * 100:.0f}%")


if __name__ == "__main__":
    main()
