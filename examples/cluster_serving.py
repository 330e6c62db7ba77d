"""Cluster serving: a sharded engine fleet with a shared trace store and QoS.

The single-engine batch example (`batch_serving.py`) shows what one
SimulationEngine earns from its trace store.  This example runs the full
production layer on top — repro.cluster — and walks the three things it
adds:

1. *Sharding*: requests are routed across engine instances.  Affinity
   routing hashes the workload key so repeats co-locate; every shard
   serves from one shared trace store, so a trace built anywhere serves
   everywhere.
2. *QoS*: per-request deadlines (admission rejects spent budgets,
   completions are scored met/missed) and per-tenant fair-share ordering.
3. *Persistence*: the store spills every trace to a cache directory, so a
   second cluster — think: the next CLI invocation — warm-starts from disk
   on its very first request.

Run:  python examples/cluster_serving.py [--shards N] [--requests N]
"""

import argparse
import tempfile

from repro.cluster import EngineCluster, synthetic_stream
from repro.engine import SimRequest


def serve(cluster, requests):
    print(f"{'req':>6s} {'benchmark':16s} {'shard':>5s} {'tenant':8s} "
          f"{'modeled ms':>11s} {'trace':>6s} {'deadline':>8s}")
    for result in cluster.stream(requests, window=8):
        if "cluster" in result.errors:
            print(f"{result.request.tag:>6s} {result.request.benchmark:16s} "
                  f"{'-':>5s} {result.request.tenant:8s} "
                  f"{'rejected':>11s} {'-':>6s} {'-':>8s}")
            continue
        report = result.report("pointacc")
        verdict = {True: "met", False: "MISSED", None: "-"}[result.deadline_met]
        print(f"{result.request.tag:>6s} {result.request.benchmark:16s} "
              f"{result.shard:5d} {result.request.tenant:8s} "
              f"{report.total_seconds * 1e3:11.3f} "
              f"{'reuse' if result.trace_reused else 'build':>6s} "
              f"{verdict:>8s}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--requests", type=int, default=10)
    parser.add_argument("--scale", type=float, default=0.15)
    args = parser.parse_args()

    requests = list(synthetic_stream(
        ["PointNet++(c)", "DGCNN"], args.requests, scale=args.scale,
        seed_pool=2, tenant_pool=2, deadline_ms=1e6,
    ))
    # One hopeless request: its deadline budget is already spent, so
    # admission rejects it before it can waste shard time.
    requests.append(SimRequest("PointNet++(c)", scale=args.scale,
                               tag="late", tenant="tenantA", deadline_ms=0))

    with tempfile.TemporaryDirectory() as cache_dir:
        print(f"=== cold cluster ({args.shards} shards, affinity routing, "
              f"persisting to {cache_dir}) ===")
        cluster = EngineCluster(n_shards=args.shards, backends=("pointacc",),
                                routing="affinity", cache_dir=cache_dir)
        serve(cluster, requests)

        stats = cluster.stats()
        print(f"\nserved {stats.admitted}/{stats.requests} "
              f"({stats.rejected} rejected) at "
              f"{stats.throughput_rps:.1f} req/s; "
              f"deadlines {stats.deadline_met} met / "
              f"{stats.deadline_missed} missed")
        print(f"shard requests: {stats.routing['counts']}")
        for tenant, acct in stats.tenants.items():
            print(f"  {tenant}: {acct['requests']} requests, "
                  f"{acct['modeled_seconds'] * 1e3:.3f} modeled ms")

        # A brand-new fleet pointed at the same cache dir: nothing is in
        # memory, yet the first request reuses the persisted trace.
        print("\n=== warm-start: fresh cluster, same cache dir ===")
        warm = EngineCluster(n_shards=2, backends=("pointacc",),
                             routing="least-loaded", cache_dir=cache_dir)
        first = warm.run_batch(requests[:1])[0]
        print(f"first request on the fresh cluster: trace "
              f"{'reuse' if first.trace_reused else 'build'}, "
              f"{warm.l2.disk_hits} served from disk -> warm start")


if __name__ == "__main__":
    main()
