"""Cluster throughput microbench: warm sharded fleet vs cold single engine.

Two claims from the cluster PR's acceptance criteria, both asserted here:

1. *Warm beats cold.*  On a repeated-workload stream (every distinct cloud
   appears ``REPEATS`` times — steady-state serving traffic), a 4-shard
   cluster that has already served the stream once (shared trace store
   hot, each trace with its reports) must clear >= 2x the throughput of a
   cold single ``SimulationEngine`` on the same stream.
2. *Persistence warm-starts across invocations.*  Two back-to-back
   ``serve-cluster`` CLI invocations pointed at one ``--cache-dir``: the
   second's *first* admitted request must already reuse a trace read from
   disk (before anything in-process was built).

Like the engine bench this table is *printed, not archived*: every cell is
machine-dependent wall-clock timing, so it never touches the deterministic
golden-figure store under ``benchmarks/_results/``.  The persistence spill
lives in pytest's ``tmp_path`` and is cleaned up with the fixture.
"""

import re
import time

from repro.cli import main
from repro.cluster import EngineCluster
from repro.engine import SimRequest, SimulationEngine
from repro.experiments.common import ExperimentResult

REPEATS = 4
SHARDS = 4
SPEEDUP_FLOOR = 2.0


def _stream(scale: float) -> list[SimRequest]:
    # Serving-shaped traffic, capped so the suite stays fast at full scale.
    eff = min(scale, 0.3)
    distinct = [
        SimRequest("PointNet++(c)", scale=eff, seed=0),
        SimRequest("DGCNN", scale=eff, seed=0),
        SimRequest("PointNet++(c)", scale=eff, seed=1),
    ]
    return [r for r in distinct for _ in range(REPEATS)]


def test_warm_cluster_vs_cold_single_engine(scale):
    stream = _stream(scale)
    n = len(stream)

    cold_engine = SimulationEngine(backends=("pointacc",), policy="bucketed")
    t0 = time.perf_counter()
    cold_results = cold_engine.run_batch(stream)
    cold_s = time.perf_counter() - t0

    cluster = EngineCluster(n_shards=SHARDS, backends=("pointacc",),
                            policy="bucketed", routing="affinity")
    cluster.run_batch(stream)  # warm-up pass: every memo hot
    t0 = time.perf_counter()
    warm_results = cluster.run_batch(stream)
    warm_s = time.perf_counter() - t0

    for cold, warm in zip(cold_results, warm_results):
        assert cold.reports["pointacc"] == warm.reports["pointacc"], (
            f"warm cluster changed a report for {warm.request}"
        )

    stats = cluster.stats()
    speedup = cold_s / warm_s
    rows = [
        ["cold single engine", f"{cold_s * 1e3:.1f}", f"{n / cold_s:.1f}", "-"],
        [f"warm cluster ({SHARDS} shards)", f"{warm_s * 1e3:.1f}",
         f"{n / warm_s:.1f}", str(stats.routing["counts"])],
    ]
    print("\n" + ExperimentResult(
        experiment_id="bench-cluster",
        title=(f"Warm {SHARDS}-shard cluster on a repeated-workload stream "
               f"({n} requests, x{REPEATS} repeats): {speedup:.1f}x"),
        headers=["mode", "wall ms", "req/s", "shard requests"],
        rows=rows,
        data={"speedup": speedup, "requests": n},
    ).table())

    assert speedup >= SPEEDUP_FLOOR, (
        f"warm cluster speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x "
        f"floor (cold {cold_s:.3f}s vs warm {warm_s:.3f}s)"
    )


def test_second_cli_invocation_warm_starts_from_disk(tmp_path, capsys):
    cache_dir = tmp_path / "persisted-traces"
    argv = [
        "serve-cluster", "--requests", "4", "--scale", "0.1",
        "--seed-pool", "2", "--benchmarks", "PointNet++(c)",
        "--shards", "2", "--cache-dir", str(cache_dir),
    ]

    assert main(list(argv)) == 0
    first_out = capsys.readouterr().out
    # nothing persisted yet: genuinely cold
    assert re.search(r"first-request trace: (\w+)", first_out)[1] == "build"
    assert int(re.search(r"(\d+) disk hits", first_out)[1]) == 0
    assert any(cache_dir.glob("*.trace"))

    # "Second CLI invocation": a fresh parser, engine fleet and store —
    # only the spill directory survives, exactly like a new process.
    assert main(list(argv)) == 0
    second_out = capsys.readouterr().out
    first_trace = re.search(r"first-request trace: (\w+)", second_out)[1]
    assert first_trace == "reuse", (
        "persisted store did not warm-start the first request")
    assert int(re.search(r"(\d+) disk hits", second_out)[1]) >= 1
