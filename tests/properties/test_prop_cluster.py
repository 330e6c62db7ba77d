"""Cluster equivalence properties: the fleet may never change a result.

The acceptance contract for the cluster subsystem: for every shard count
{1, 2, 4}, both routing modes, and every trace-store configuration —
``l1`` (each shard a private store, ``l2=None``), ``l1+l2`` (one store
shared by every shard) and ``l1+l2+disk`` (the shared store with a disk
tier) — serving a batch through :class:`EngineCluster` yields per-request
``PerfReport``s exactly equal — dataclass equality, every float — to cold
sequential :class:`~repro.core.PointAccModel` runs
(:func:`repro.engine.run_cold`).  Sharding, QoS ordering, store sharing
and disk warm-starts are all wall-clock phenomena only.

A second family checks QoS-field invariance (tenants/deadlines/priorities
reorder, never alter), that a *warm-started* cluster — same cache dir,
fresh process-equivalent state — still reproduces the cold oracle bit for
bit, which is exactly the persistence path the CLI exercises, and that
least-loaded routing builds each workload once however its repeats
scatter across shards.
"""

import pytest

from repro.cluster import EngineCluster
from repro.engine import SimRequest, run_cold
from repro.nn.models.registry import BENCHMARKS

SHARD_COUNTS = (1, 2, 4)
ROUTINGS = ("affinity", "least-loaded")
TIERS = ("l1", "l1+l2", "l1+l2+disk")


def _mixed_batch() -> list[SimRequest]:
    """Small mixed batch with a repeat, plus a SparseConv model so the
    kernel-map path is covered."""
    batch = [
        SimRequest("PointNet++(c)", scale=0.1, seed=0),
        SimRequest("DGCNN", scale=0.1, seed=0, priority=2),
        SimRequest("PointNet++(c)", scale=0.1, seed=1),
        SimRequest("MinkNet(i)", scale=0.08, seed=0),
        SimRequest("PointNet++(c)", scale=0.1, seed=0, tag="repeat"),
    ]
    return batch


@pytest.fixture(scope="module")
def oracle():
    """Cold sequential runs — computed once, compared against every config."""
    return [run_cold(r, backends=("pointacc",)) for r in _mixed_batch()]


def _cluster(n_shards, routing, tiers, tmp_path):
    kwargs = {}
    if tiers == "l1":
        kwargs["l2"] = None
    elif tiers == "l1+l2+disk":
        kwargs["cache_dir"] = tmp_path / "spill"
    return EngineCluster(
        n_shards=n_shards, backends=("pointacc",), routing=routing, **kwargs
    )


@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("tiers", TIERS)
def test_cluster_bit_identical_to_cold_sequential(
    n_shards, routing, tiers, oracle, tmp_path
):
    cluster = _cluster(n_shards, routing, tiers, tmp_path)
    results = cluster.run_batch(_mixed_batch())
    assert len(results) == len(oracle)
    for cold, hot in zip(oracle, results):
        assert hot.request == cold.request
        # Dataclass equality covers every field of every LayerRecord —
        # seconds, cycles, DRAM bytes, the full energy ledger, detail dicts.
        assert hot.reports["pointacc"] == cold.reports["pointacc"]


@pytest.mark.parametrize("routing", ROUTINGS)
def test_warm_started_cluster_still_bit_identical(routing, oracle, tmp_path):
    """The persistence path: a fresh cluster served entirely from another
    cluster's disk spill must still match the cold oracle exactly."""
    cache_dir = tmp_path / "spill"
    _cluster(4, routing, "l1+l2+disk", tmp_path).run_batch(_mixed_batch())
    warm = _cluster(4, routing, "l1+l2+disk", tmp_path)
    results = warm.run_batch(_mixed_batch())
    assert warm.l2.disk_hits > 0  # genuinely warm-started, not recomputed
    for cold, hot in zip(oracle, results):
        assert hot.reports["pointacc"] == cold.reports["pointacc"]
    assert any(cache_dir.glob("*.trace"))


def test_qos_fields_never_change_results(oracle):
    """Tenants, deadlines and priorities reorder execution; results match
    the oracle request for request regardless."""
    decorated = [
        SimRequest(
            r.benchmark, scale=r.scale, seed=r.seed,
            priority=(3 - i) % 4, tag=f"q{i}",
            tenant=f"tenant{i % 2}", deadline_ms=1e9 - i,
        )
        for i, r in enumerate(_mixed_batch())
    ]
    cluster = EngineCluster(n_shards=2, backends=("pointacc",))
    results = cluster.run_batch(decorated)
    for cold, hot in zip(oracle, results):
        assert hot.request.workload_key == cold.request.workload_key
        assert hot.reports["pointacc"] == cold.reports["pointacc"]
    stats = cluster.stats()
    assert stats.deadline_met == len(decorated)  # generous budgets all met


def test_least_loaded_cluster_builds_each_workload_once():
    """Least-loaded routing scatters repeats across shards; the shared
    store still builds each of the 16 workloads exactly once over three
    passes, and every report equals the cold oracle."""
    workloads = [SimRequest(name, scale=0.1, seed=seed)
                 for name in BENCHMARKS for seed in (0, 1)]
    cluster = EngineCluster(n_shards=3, backends=("pointacc",),
                            routing="least-loaded")
    passes = [cluster.run_batch(workloads) for _ in range(3)]
    stats = cluster.stats()
    assert sum(s["trace_builds"] for s in stats.shards) == len(workloads) == 16
    assert len({r.shard for results in passes for r in results}) == 3
    for request in workloads:
        cold = run_cold(request, backends=("pointacc",))
        for results in passes:
            (hot,) = [r for r in results if r.request == request]
            assert hot.reports == cold.reports
            assert hot.errors == cold.errors
