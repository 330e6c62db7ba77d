"""EngineCluster plumbing: sharding, QoS wiring, stats, the shared store."""

import pytest

from repro.cluster import EngineCluster
from repro.engine import SimRequest, TraceStore


def _reqs(n=6, **kw):
    return [SimRequest("PointNet++(c)", scale=0.1, seed=i % 2, tag=f"r{i}", **kw)
            for i in range(n)]


class TestConstruction:
    def test_defaults(self):
        cluster = EngineCluster()
        assert cluster.n_shards == 2
        assert isinstance(cluster.l2, TraceStore)
        assert cluster.l2.cache_dir is None

    def test_rejects_bad_shards_and_routing(self):
        with pytest.raises(ValueError):
            EngineCluster(n_shards=0)
        with pytest.raises(ValueError):
            EngineCluster(routing="everywhere")

    def test_cache_dir_needs_auto_l2(self, tmp_path):
        with pytest.raises(ValueError):
            EngineCluster(l2=None, cache_dir=tmp_path)

    def test_shared_l2_is_one_object(self):
        cluster = EngineCluster(n_shards=3)
        assert all(shard.store is cluster.l2 for shard in cluster.shards)


class TestExecution:
    def test_batch_returns_submission_order(self):
        cluster = EngineCluster(n_shards=2)
        reqs = _reqs(5)
        results = cluster.run_batch(reqs)
        assert [r.request for r in results] == reqs
        assert [r.index for r in results] == list(range(5))

    def test_results_carry_shard_ids(self):
        cluster = EngineCluster(n_shards=4, routing="least-loaded")
        results = cluster.run_batch(_reqs(8))
        shards = {r.shard for r in results}
        assert all(s is not None and 0 <= s < 4 for s in shards)
        assert len(shards) > 1

    def test_affinity_repeats_share_a_shard(self):
        cluster = EngineCluster(n_shards=4, routing="affinity")
        results = cluster.run_batch(_reqs(6))
        by_key = {}
        for r in results:
            by_key.setdefault(r.request.workload_key, set()).add(r.shard)
        assert all(len(shards) == 1 for shards in by_key.values())

    def test_stream_yields_everything(self):
        cluster = EngineCluster(n_shards=2)
        results = list(cluster.stream(iter(_reqs(5)), window=2))
        assert len(results) == 5
        with pytest.raises(ValueError):
            next(cluster.stream(iter([]), window=0))

    def test_l2_serves_across_shards(self):
        # Two shards forced to see the same workload (least-loaded splits
        # the repeats): the second shard reuses the first shard's trace.
        cluster = EngineCluster(n_shards=2, routing="least-loaded")
        results = cluster.run_batch(
            [SimRequest("PointNet++(c)", scale=0.1, seed=0)] * 2)
        assert results[0].shard != results[1].shard
        assert [r.trace_reused for r in results] == [False, True]
        assert cluster.l2.hits > 0

    def test_rejected_requests_keep_their_slot(self):
        cluster = EngineCluster(n_shards=2)
        reqs = [SimRequest("PointNet++(c)", scale=0.1),
                SimRequest("PointNet++(c)", scale=0.1, deadline_ms=0.0),
                SimRequest("PointNet++(c)", scale=0.1, seed=1)]
        results = cluster.run_batch(reqs)
        assert results[0].reports and results[2].reports
        assert not results[1].reports
        assert "rejected" in results[1].errors["cluster"]
        assert results[1].index == 1

    def test_generous_deadlines_met_and_scored(self):
        cluster = EngineCluster(n_shards=2)
        results = cluster.run_batch(_reqs(4, deadline_ms=1e9, tenant="t"))
        assert all(r.deadline_met is True for r in results)
        stats = cluster.stats()
        assert stats.deadline_met == 4 and stats.deadline_missed == 0
        assert stats.tenants["t"]["deadline_met"] == 4

    def test_impossible_deadline_missed_not_rejected(self):
        cluster = EngineCluster(n_shards=1)
        result = cluster.run_batch(
            [SimRequest("PointNet++(c)", scale=0.1, deadline_ms=1e-9)])[0]
        assert result.reports  # admitted and served...
        assert result.deadline_met is False  # ...but scored as missed


class TestStats:
    def test_aggregates_all_layers(self):
        cluster = EngineCluster(n_shards=2)
        cluster.run_batch(_reqs(6, tenant="acme"))
        stats = cluster.stats()
        assert stats.requests == 6 and stats.admitted == 6
        assert stats.throughput_rps > 0
        assert sum(stats.routing["counts"]) == 6
        assert len(stats.shards) == 2
        assert sum(s["requests"] for s in stats.shards) == 6
        assert stats.tenants["acme"]["requests"] == 6
        assert stats.l2["lookups"] > 0
        summary = stats.summary()
        assert summary["admitted"] == 6

    def test_private_stores_without_l2(self):
        cluster = EngineCluster(n_shards=2, l2=None)
        cluster.run_batch(_reqs(4))
        stores = [shard.store for shard in cluster.shards]
        assert stores[0] is not stores[1]
        assert sum(s.snapshot()["lookups"] for s in stores) == 4
        assert cluster.l2 is None and cluster.stats().l2 == {}


class TestPersistence:
    def test_save_cache_and_warm_start(self, tmp_path):
        cache_dir = tmp_path / "spill"
        cold = EngineCluster(n_shards=2, cache_dir=cache_dir)
        cold.run_batch(_reqs(4))
        assert any(cache_dir.glob("*.trace"))  # write-through spilled
        warm = EngineCluster(n_shards=2, cache_dir=cache_dir)
        first = warm.run_batch(_reqs(1))[0]
        assert first.trace_reused  # very first request is warm
        assert warm.l2.disk_hits > 0
        assert sum(s["trace_builds"] for s in warm.stats().shards) == 0
