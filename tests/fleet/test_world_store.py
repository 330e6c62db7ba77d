"""The fleet's shared world store: attribution through the tiers stays exact.

A fleet's streams share mapping results only through its executor's
whole-op tiers: each shard's L1 :class:`MapCache` in front of one shared
:class:`SharedMapStore` L2 (with its optional disk spill).  These tests
pin the accounting contract of that chain: every chain lookup is one L1
probe, every L1 miss is one L2 probe, and a chain misses exactly when the
L2 does (accounting may never invent or drop a lookup); a hit is
classified by the tier that served it — the requesting shard's own L1
(self), the shared L2 (cross), or the disk spill of an earlier run
(external) — and sharing never changes an answer.
"""

import numpy as np
import pytest

from repro.cluster.store import SharedMapStore
from repro.engine import MapCache
from repro.mapping.ball_query import ball_query_indices
from repro.mapping.hooks import TieredLookup, use_map_cache
from repro.mapping.knn import knn_indices


def _shards(n=2, l2=None):
    """``n`` shard chains over one shared L2, as a fleet's cluster has."""
    l2 = l2 if l2 is not None else SharedMapStore()
    l1s = [MapCache(max_entries=1 << 15) for _ in range(n)]
    return l2, l1s, [TieredLookup([l1, l2]) for l1 in l1s]


def _cloud(rng, n=400, span=16.0):
    return rng.uniform(0, span, (n, 3))


def _assert_counts_sum(l2, l1s, chains):
    """Attribution must be a partition of the tiers' counters."""
    for l1, chain in zip(l1s, chains):
        stats = chain.stats()
        assert stats.lookups == l1.stats().lookups
        for op, counts in stats.by_op.items():
            assert sum(counts.values()) == sum(l1.stats().by_op[op].values())
    assert l2.stats().lookups == sum(l1.stats().misses for l1 in l1s)
    assert l2.stats().misses == sum(c.stats().misses for c in chains)


class TestAttribution:
    def test_self_vs_cross_classification(self, rng):
        l2, (l1_a, l1_b), (veh0, veh1) = _shards()
        cloud = _cloud(rng)
        with use_map_cache(veh0):
            knn_indices(cloud, cloud, 4)   # veh0 computes
            knn_indices(cloud, cloud, 4)   # veh0 again: its own L1 (self)
        with use_map_cache(veh1):
            knn_indices(cloud, cloud, 4)   # veh1: the shared L2 (cross)
        assert l1_a.stats().by_op["knn"] == {"hits": 1, "misses": 1}
        assert l1_b.stats().by_op["knn"] == {"hits": 0, "misses": 1}
        assert l2.stats().by_op["knn"] == {"hits": 1, "misses": 1}
        assert veh1.stats().by_op["knn"] == {"hits": 1, "misses": 0}
        # The cross hit was promoted: veh1 now serves it from its own L1.
        with use_map_cache(veh1):
            knn_indices(cloud, cloud, 4)
        assert l1_b.stats().by_op["knn"] == {"hits": 1, "misses": 1}
        _assert_counts_sum(l2, [l1_a, l1_b], [veh0, veh1])

    def test_results_identical_through_wrapping(self, rng):
        """Sharing is wall-clock only: same answers as the bare kernel,
        bit for bit, whichever tier serves them."""
        queries = _cloud(rng, n=500)
        expect = knn_indices(queries, queries, 5)
        _, _, (veh0, veh1) = _shards()
        with use_map_cache(veh0):
            cold = knn_indices(queries, queries, 5)
        with use_map_cache(veh1):
            warm = knn_indices(queries, queries, 5)
        for got in (cold, warm):
            assert np.array_equal(expect[0], got[0])
            assert np.array_equal(expect[1], got[1])

    def test_external_hits_on_unowned_keys(self, rng, tmp_path):
        """Entries on disk from an earlier run (no live shard computed
        them) are served from the spill, not recomputed."""
        cloud = _cloud(rng)
        expect = knn_indices(cloud, cloud, 4)
        _, _, (first,) = _shards(1, SharedMapStore(cache_dir=tmp_path))
        with use_map_cache(first):
            knn_indices(cloud, cloud, 4)  # populate the spill
        l2, l1s, chains = _shards(2, SharedMapStore(cache_dir=tmp_path))
        with use_map_cache(chains[1]):
            got = knn_indices(cloud, cloud, 4)
        assert l2.disk_hits == 1
        assert chains[1].stats().by_op["knn"] == {"hits": 1, "misses": 0}
        assert np.array_equal(expect[0], got[0])
        assert np.array_equal(expect[1], got[1])
        _assert_counts_sum(l2, l1s, chains)

    def test_counts_sum_across_ops_and_fronts(self, rng):
        """Mixed op traffic (kNN + ball query) from two shards: per-op
        counts line up tier to tier."""
        l2, l1s, chains = _shards()
        cloud = _cloud(rng, n=600)
        for chain in chains:
            with use_map_cache(chain):
                knn_indices(cloud, cloud, 4)
                ball_query_indices(cloud, cloud, 2.0, 6)
        _assert_counts_sum(l2, l1s, chains)
        for op in ("knn", "ball_query"):
            assert l2.stats().by_op[op] == {"hits": 1, "misses": 1}
            total = sum(sum(c.stats().by_op[op].values()) for c in chains)
            assert total == 2

    def test_ownership_book_is_bounded(self, rng, monkeypatch):
        """The shared store keeps at most ``max_entries`` results, and its
        book of evicted digests (which tells capacity misses from cold
        ones) stays bounded too."""
        import repro.engine.map_cache as map_cache

        monkeypatch.setattr(map_cache, "_EVICTED_MEMORY", 4)
        l2, l1s, (chain,) = _shards(1, SharedMapStore(max_entries=8))
        clouds = [_cloud(rng, n=40) for _ in range(20)]
        with use_map_cache(chain):
            for cloud in clouds:
                knn_indices(cloud, cloud, 3)
        assert len(l2) <= 8 and l2.stats().evictions == 12
        assert len(l2._evicted) <= 4

    def test_snapshot_shape(self, rng):
        l2, _, (chain,) = _shards(1)
        cloud = _cloud(rng)
        with use_map_cache(chain):
            knn_indices(cloud, cloud, 4)
        snap = chain.stats().snapshot()
        assert snap["lookups"] == snap["hits"] + snap["misses"] == 1
        assert "by_op" in snap and "front" not in snap
        assert len(snap["tiers"]) == 2
        assert snap["tiers"][1] == l2.stats().snapshot()
        assert snap["tiers"][1]["disk_hits"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TieredLookup([None, None])
        with pytest.raises(ValueError):
            SharedMapStore(max_entries=0)
        with pytest.raises(ValueError):
            SharedMapStore(max_disk_bytes=0)
