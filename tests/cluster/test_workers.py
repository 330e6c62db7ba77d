"""Unit tests for the worker pool and its stats merging.

The bit-identity story lives in ``tests/properties/test_prop_workers.py``;
here we pin the machinery itself: shard→worker placement, FIFO dispatch,
error propagation (a worker failure raises, never returns a wrong
answer), lifecycle idempotence, and the snapshot-merge algebra (counters
sum, rates recompute, flags keep-first).
"""

import pytest

from repro.cluster import EngineCluster
from repro.cluster.workers import WorkerPool, engine_spec, merge_snapshots
from repro.engine import SimRequest


def _spec(**overrides):
    base = dict(
        backends=("pointacc",), policy="fifo", l2=None, cache_dir=None,
        overlap=False,
    )
    base.update(overrides)
    return engine_spec(**base)


class TestWorkerPool:
    def test_clamps_workers_to_shards(self):
        with WorkerPool(8, 2, _spec()) as pool:
            assert pool.n_workers == 2

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0, 2, _spec())

    def test_run_window_executes_and_tags_runs(self):
        requests = [
            SimRequest("DGCNN", scale=0.05, seed=0),
            SimRequest("DGCNN", scale=0.05, seed=1),
        ]
        runs = [(0, [0]), (1, [1])]
        with WorkerPool(2, 2, _spec()) as pool:
            replies = dict(pool.run_window(runs, requests))
        assert set(replies) == {0, 1}
        for run_id, results in replies.items():
            (result,) = results
            assert result.request == requests[runs[run_id][1][0]]
            assert result.reports["pointacc"].total_seconds > 0

    def test_worker_exception_raises_with_traceback(self):
        # An unknown benchmark explodes inside the worker; the parent must
        # surface the remote traceback, not hang or fabricate a result.
        requests = [SimRequest("no-such-benchmark", scale=0.05, seed=0)]
        with WorkerPool(1, 1, _spec()) as pool:
            with pytest.raises(RuntimeError, match="shard worker 0 failed"):
                list(pool.run_window([(0, [0])], requests))

    def test_stats_one_payload_per_worker(self):
        requests = [SimRequest("DGCNN", scale=0.05, seed=0)]
        with WorkerPool(2, 4, _spec()) as pool:
            list(pool.run_window([(2, [0])], requests))
            payloads = pool.stats()
        assert len(payloads) == 2
        # Worker 0 hosts shards {0, 2}, worker 1 hosts {1, 3}.
        assert sorted(payloads[0]["shards"]) == [0, 2]
        assert sorted(payloads[1]["shards"]) == [1, 3]
        assert payloads[0]["shards"][2]["requests"] == 1
        assert payloads[1]["shards"][1]["requests"] == 0

    def test_close_is_idempotent_and_blocks_dispatch(self):
        pool = WorkerPool(1, 1, _spec())
        pool.close()
        pool.close()  # second close is a no-op
        assert pool.stats() == []
        with pytest.raises(RuntimeError, match="closed"):
            list(pool.run_window([(0, [0])], [SimRequest("DGCNN")]))


class TestClusterWorkerMode:
    def test_cluster_close_idempotent(self):
        cluster = EngineCluster(n_shards=2, workers=2)
        cluster.run_batch([SimRequest("DGCNN", scale=0.05, seed=0)])
        cluster.close()
        cluster.close()

    def test_in_process_cluster_close_is_noop(self):
        cluster = EngineCluster(n_shards=2)
        cluster.close()
        # Still serves after close: nothing to shut down in-process.
        results = cluster.run_batch([SimRequest("DGCNN", scale=0.05, seed=0)])
        assert results[0].reports["pointacc"].total_seconds > 0

    def test_worker_stats_merge_covers_all_shards(self):
        with EngineCluster(n_shards=4, workers=2, routing="affinity") as cluster:
            cluster.run_batch([
                SimRequest("DGCNN", scale=0.05, seed=s) for s in range(4)
            ])
            stats = cluster.stats()
        assert stats.workers == 2
        assert len(stats.shards) == 4
        assert sum(s["requests"] for s in stats.shards) == 4
        assert stats.l2.get("lookups", 0) > 0


class TestMergeSnapshots:
    def test_counters_sum_and_rates_recompute(self):
        merged = merge_snapshots([
            {"hits": 3, "lookups": 4, "hit_rate": 0.75, "persistent": False},
            {"hits": 1, "lookups": 4, "hit_rate": 0.25, "persistent": False},
        ])
        assert merged["hits"] == 4
        assert merged["lookups"] == 8
        assert merged["hit_rate"] == pytest.approx(0.5)
        assert merged["persistent"] is False  # flag, not a counter

    def test_nested_dicts_merge_recursively(self):
        merged = merge_snapshots([
            {"by_op": {"knn": {"hits": 1, "misses": 2}}},
            {"by_op": {"knn": {"hits": 2, "misses": 0},
                       "fps": {"hits": 5, "misses": 1}}},
        ])
        assert merged["by_op"]["knn"] == {"hits": 3, "misses": 2}
        assert merged["by_op"]["fps"] == {"hits": 5, "misses": 1}

    def test_zero_lookup_rates_and_empty_input(self):
        assert merge_snapshots([]) == {}
        assert merge_snapshots([{}, {}]) == {}
        merged = merge_snapshots([{"hits": 0, "lookups": 0, "hit_rate": 0.0}])
        assert merged["hit_rate"] == 0.0
