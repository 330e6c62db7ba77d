"""The batched planner: key disjointness, batch chain API, whole-call reuse.

Exactness of the batched front against the reference ops is covered by
``test_incremental.py`` (parametrized over planner and oracle) and the
property suites; this file pins the plan-specific machinery — the
versioned fixed-width key universe (disjoint from the oracle's 16-byte
digests by construction), the ``get_many``/``put_many`` chain semantics,
and whole-call reuse.
"""

import numpy as np
import pytest

from repro.engine import MapCache
from repro.mapping.ball_query import ball_query_indices
from repro.mapping.hooks import TieredLookup, use_map_cache
from repro.mapping.knn import knn_indices
from repro.stream import TileMapCache
from repro.stream.incremental import PerTileOracle


def _pair(oracle=False, tier=None, **kwargs):
    kwargs.setdefault("min_points", 1)
    cls = PerTileOracle if oracle else TileMapCache
    front = cls(**kwargs)
    tier = tier if tier is not None else MapCache(max_entries=1 << 15)
    return front, tier, TieredLookup([tier], front=front)


class TestKeyDisjointness:
    """Planner and oracle keys can never collide: warming either front
    leaves the other stone cold in a shared store (the planner's keys
    carry a versioned fixed-width prefix and are all longer than the
    oracle's 16-byte ``content_digest`` sub-keys), while both still
    produce the exact reference arrays."""

    @pytest.mark.parametrize("warm_oracle", [True, False])
    def test_knn_universes_disjoint(self, rng, warm_oracle):
        cloud = rng.uniform(0, 20, (400, 3))
        _, tier, chain = _pair(warm_oracle, tile_size=4.0)
        with use_map_cache(chain):
            knn_indices(cloud, cloud, 5)
        replay, _, chain2 = _pair(not warm_oracle, tier=tier, tile_size=4.0)
        with use_map_cache(chain2):
            got = knn_indices(cloud, cloud, 5)
        per_tile = replay.stats().by_op["knn"]
        assert per_tile["hits"] == 0 and per_tile["misses"] > 0
        assert np.array_equal(knn_indices(cloud, cloud, 5)[0], got[0])


class TestKeyFormat:
    """The versioned fixed-width key encoding itself."""

    def test_prefix_is_versioned_and_fixed_width(self):
        from repro.stream.plan import _KEY_VERSION, _key_prefix

        pre = _key_prefix(b"tile/knn", 8)
        assert pre.startswith(_KEY_VERSION)
        assert len(pre) == len(_KEY_VERSION) + 16
        assert pre != _key_prefix(b"tile/knn", 16)
        assert pre == _key_prefix(b"tile/knn", 8)

    def test_serving_keys_cannot_collide_with_legacy_digests(self):
        """Every legacy sub-key is exactly 16 bytes (a bare blake2b
        digest); every versioned serving key is prefix + >= 1 component
        digest, i.e. >= 34 bytes — disjoint by length alone, for any
        content."""
        from repro.stream.plan import _key_prefix
        from repro.stream.tiles import content_digest

        legacy = content_digest(b"tile/knn", 8, b"anything")
        assert len(legacy) == 16
        serving = _key_prefix(b"tile/knn", 8) + content_digest(b"x")
        assert len(serving) >= 34

    def test_store_key_sets_disjoint_on_real_traffic(self, rng):
        """Run identical traffic through the planner and the oracle into
        separate stores: not a single key in common, across both op
        families (the whole-call entries only the planner writes
        included)."""
        cloud = rng.uniform(0, 20, (500, 3))
        key_sets = []
        for oracle in (False, True):
            _, tier, chain = _pair(oracle, tile_size=4.0)
            with use_map_cache(chain):
                knn_indices(cloud, cloud, 5)
                ball_query_indices(cloud, cloud, 2.0, 6)
            key_sets.append(set(tier._entries.keys()))
        planner_keys, oracle_keys = key_sets
        assert planner_keys and oracle_keys
        assert not (planner_keys & oracle_keys)
        assert all(len(k) == 16 for k in oracle_keys)


class TestBatchChainApi:
    def test_get_many_promotes_and_counts(self):
        l1 = MapCache(max_entries=64)
        l2 = MapCache(max_entries=64)
        chain = TieredLookup([l1, l2])
        keys = [bytes([i]) * 16 for i in range(4)]
        l2.put(keys[1], np.arange(3), "op")
        l2.put(keys[3], np.arange(5), "op")
        values = chain.get_many(keys, "op")
        assert values[0] is None and values[2] is None
        assert np.array_equal(values[1], np.arange(3))
        assert np.array_equal(values[3], np.arange(5))
        # L2 hits were promoted into L1: a second batch hits L1 only.
        assert l1.get(keys[1], "op") is not None
        assert l1.stats().by_op["op"]["hits"] >= 1
        # per-op counting saw every probe
        assert l1.stats().by_op["op"]["misses"] >= 4

    def test_put_many_writes_through_every_tier(self):
        l1 = MapCache(max_entries=64)
        l2 = MapCache(max_entries=64)
        chain = TieredLookup([l1, l2])
        keys = [bytes([i]) * 16 for i in range(3)]
        values = [np.arange(i + 1) for i in range(3)]
        chain.put_many(keys, values, "op")
        for key, value in zip(keys, values):
            assert np.array_equal(l1.get(key, "op"), value)
            assert np.array_equal(l2.get(key, "op"), value)

    def test_get_many_matches_sequential_gets(self):
        l1 = MapCache(max_entries=64)
        chain = TieredLookup([l1])
        keys = [bytes([i]) * 16 for i in range(6)]
        for i in (0, 2, 4):
            l1.put(keys[i], np.array([i]), "op")
        batch = chain.get_many(keys, "op")
        single = [TieredLookup([l1]).get(k, "op") for k in keys]
        for b, s in zip(batch, single):
            assert (b is None) == (s is None)
            if b is not None:
                assert np.array_equal(b, s)


class TestWholeCallReuse:
    def test_knn_whole_hits_are_owned(self, rng):
        cloud = rng.uniform(0, 16, (300, 3))
        front, _, chain = _pair(tile_size=4.0)
        with use_map_cache(chain):
            idx1, dist1 = knn_indices(cloud, cloud, 4)
            idx1[:] = -1  # scribble on the result...
            idx2, _ = knn_indices(cloud, cloud, 4)
        # ...and the cached whole-call entry must be unaffected.
        assert not np.array_equal(idx1, idx2)
        assert idx2.base is None
        assert front.stats().by_op["knn/whole"]["hits"] == 1
