"""MetricsRegistry: instruments, snapshot schema, and merge equivalence
with the worker pool's historical ``merge_snapshots``."""

from repro.cluster.workers import merge_snapshots as workers_merge
from repro.obs.metrics import (
    DEFAULT_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)


class TestHistogram:
    def test_bucket_edges(self):
        hist = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 99.0):
            hist.observe(value)
        # bisect_left: a value equal to an edge lands in that edge's bucket.
        assert hist.counts == [2, 2, 1]
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.5
        assert snap["max"] == 99.0
        assert snap["sum"] == 115.5

    def test_empty_snapshot_is_total(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_snapshots_merge_elementwise(self):
        a, b = Histogram(buckets=(1.0, 10.0)), Histogram(buckets=(1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(50.0)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        # The merge contract consumers rely on: counts sum element-wise,
        # count/sum sum as plain numeric leaves.
        assert merged["counts"] == [1, 1, 1]
        assert merged["count"] == 3
        assert merged["sum"] == 55.5


class TestRegistry:
    def test_snapshot_schema(self):
        registry = MetricsRegistry()
        registry.counter("frames")
        registry.counter("frames", 2)
        registry.gauge("clock_s", 1.5)
        registry.observe("span_ms.plan", 3.0)
        registry.register("stream", lambda: {"completed": 4})
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms", "sources"}
        assert snap["counters"] == {"frames": 3.0}
        assert snap["gauges"] == {"clock_s": 1.5}
        assert snap["histograms"]["span_ms.plan"]["count"] == 1
        assert snap["sources"] == {"stream": {"completed": 4}}

    def test_ingest_merges_static_payloads(self):
        registry = MetricsRegistry()
        registry.ingest("workers", {"hits": 2, "lookups": 4, "hit_rate": 0.5})
        registry.ingest("workers", {"hits": 4, "lookups": 4, "hit_rate": 1.0})
        merged = registry.snapshot()["sources"]["workers"]
        assert merged["hits"] == 6
        assert merged["lookups"] == 8
        assert merged["hit_rate"] == 0.75

    def test_failing_supplier_degrades_to_empty(self):
        registry = MetricsRegistry()
        registry.register("broken", lambda: 1 / 0)
        assert registry.snapshot()["sources"]["broken"] == {}

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS_MS) == sorted(DEFAULT_BUCKETS_MS)


#: A realistic pair of worker stats payloads — the shape WorkerPool.stats()
#: ships (nested tier snapshots, ratio leaves, mode strings).
WORKER_SNAPSHOTS = [
    {
        "requests": 6,
        "map_cache": {"hits": 10, "misses": 2, "lookups": 12,
                      "hit_rate": 10 / 12,
                      "by_op": {"knn": {"hits": 4, "misses": 1}}},
        "l2": {"hits": 3, "misses": 1, "lookups": 4, "hit_rate": 0.75,
               "persistent": False},
    },
    {
        "requests": 4,
        "map_cache": {"hits": 2, "misses": 6, "lookups": 8,
                      "hit_rate": 0.25,
                      "by_op": {"knn": {"hits": 2, "misses": 3}}},
        "l2": {"hits": 1, "misses": 3, "lookups": 4, "hit_rate": 0.25,
               "persistent": True},
    },
]


class TestMergeEquivalence:
    def test_registry_merge_equals_worker_merge(self):
        """MetricsRegistry.merge subsumed the worker pool's merge: both
        entry points must produce the identical merged view."""
        assert (MetricsRegistry.merge(WORKER_SNAPSHOTS)
                == workers_merge(WORKER_SNAPSHOTS))
        assert (MetricsRegistry.merge(WORKER_SNAPSHOTS)
                == merge_snapshots(WORKER_SNAPSHOTS))

    def test_merged_values(self):
        merged = MetricsRegistry.merge(WORKER_SNAPSHOTS)
        assert merged["requests"] == 10
        assert merged["map_cache"]["hits"] == 12
        assert merged["map_cache"]["lookups"] == 20
        assert merged["map_cache"]["hit_rate"] == 12 / 20  # recomputed
        assert merged["map_cache"]["by_op"]["knn"] == {"hits": 6, "misses": 4}
        assert merged["l2"]["persistent"] is False  # first value kept

    def test_histogram_lists_sum_elementwise(self):
        merged = MetricsRegistry.merge([
            {"hist": {"counts": [1, 0, 2], "count": 3}},
            {"hist": {"counts": [0, 5, 1], "count": 6}},
        ])
        assert merged["hist"]["counts"] == [1, 5, 3]
        assert merged["hist"]["count"] == 9

    def test_mismatched_lists_keep_first(self):
        merged = MetricsRegistry.merge([
            {"hist": {"counts": [1, 2]}},
            {"hist": {"counts": [1, 2, 3]}},
        ])
        assert merged["hist"]["counts"] == [1, 2]

    def test_empty_and_none_snapshots_drop_out(self):
        assert MetricsRegistry.merge([]) == {}
        assert MetricsRegistry.merge([{}, None]) == {}
        assert MetricsRegistry.merge([None, {"a": 1}]) == {"a": 1}

    def test_rate_without_counters_is_dropped(self):
        merged = MetricsRegistry.merge([{"odd_rate": 0.5}, {"odd_rate": 0.7}])
        assert "odd_rate" not in merged
