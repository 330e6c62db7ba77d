"""The whole-op key universe and chain semantics streams are served by.

Exactness of ops through the chain is covered by ``test_incremental.py``
and the property suites; this file pins the lookup machinery itself —
content keys that keep op families and parameters apart, the chain's
probe / promote / write-through semantics (all carried by
:meth:`TieredLookup.memoize`), and owned results on a hit.
"""

import numpy as np
import pytest

from repro.engine import MapCache
from repro.mapping.ball_query import ball_query_indices
from repro.mapping.hooks import TieredLookup, use_map_cache
from repro.mapping.knn import knn_indices


def _pair(tier=None):
    tier = tier if tier is not None else MapCache(max_entries=1 << 15)
    return tier, TieredLookup([tier])


def _compute_never():
    raise AssertionError("a stored entry was recomputed")


class TestKeyDisjointness:
    """kNN and ball-query keys can never collide: warming one op family
    leaves the other stone cold in a shared store, while both still
    produce the exact reference arrays."""

    @pytest.mark.parametrize("warm_knn", [True, False])
    def test_knn_universes_disjoint(self, rng, warm_knn):
        cloud = rng.uniform(0, 20, (400, 3))
        expect_knn = knn_indices(cloud, cloud, 5)
        expect_ball = ball_query_indices(cloud, cloud, 2.0, 5)
        tier, chain = _pair()
        with use_map_cache(chain):
            if warm_knn:
                knn_indices(cloud, cloud, 5)
            else:
                ball_query_indices(cloud, cloud, 2.0, 5)
        _, replay = _pair(tier)
        with use_map_cache(replay):
            got_knn = knn_indices(cloud, cloud, 5)
            got_ball = ball_query_indices(cloud, cloud, 2.0, 5)
            knn_indices(cloud, cloud, 6)  # another k: another key
        by_op = replay.stats().by_op
        # The warm family hits once; the other misses, and k=6 misses too.
        assert by_op["knn"] == {"hits": int(warm_knn),
                                "misses": 1 + int(not warm_knn)}
        assert by_op["ball_query"] == {"hits": int(not warm_knn),
                                       "misses": int(warm_knn)}
        assert np.array_equal(expect_knn[0], got_knn[0])
        assert np.array_equal(expect_ball, got_ball)


class TestKeyFormat:
    """The content keys themselves, on real traffic."""

    def test_store_key_sets_disjoint_on_real_traffic(self, rng):
        """Run kNN and ball-query traffic on the same cloud into separate
        stores: not a single key in common, and every key is one
        fixed-width 16-byte digest."""
        cloud = rng.uniform(0, 20, (500, 3))
        key_sets = []
        for op in ("knn", "ball_query"):
            tier, chain = _pair()
            with use_map_cache(chain):
                if op == "knn":
                    knn_indices(cloud, cloud, 5)
                    knn_indices(cloud, cloud, 6)
                else:
                    ball_query_indices(cloud, cloud, 2.0, 6)
                    ball_query_indices(cloud, cloud, 2.5, 6)
            key_sets.append(set(tier._entries.keys()))
        knn_keys, ball_keys = key_sets
        assert len(knn_keys) == 2 and len(ball_keys) == 2
        assert not (knn_keys & ball_keys)
        assert all(len(k) == 16 for k in knn_keys | ball_keys)


class TestBatchChainApi:
    """Chain semantics: first tier that hits wins, hits are promoted into
    every tier above, misses are written through every tier, and every
    tier counts each probe it sees."""

    def test_get_many_promotes_and_counts(self):
        l1 = MapCache(max_entries=64)
        l2 = MapCache(max_entries=64)
        chain = TieredLookup([l1, l2])
        arrays = [np.full(4, i, dtype=np.int64) for i in range(4)]
        keys = [l1.key("op", (a,), {}) for a in arrays]
        l2.put(keys[1], np.arange(3), "op")
        l2.put(keys[3], np.arange(5), "op")
        values = [chain.memoize("op", (a,), {}, lambda i=i: np.array([-i]))
                  for i, a in enumerate(arrays)]
        assert np.array_equal(values[0], [0]) and np.array_equal(values[2], [-2])
        assert np.array_equal(values[1], np.arange(3))
        assert np.array_equal(values[3], np.arange(5))
        # L2 hits were promoted into L1: a second pass hits L1 only.
        for a in arrays:
            chain.memoize("op", (a,), {}, _compute_never)
        assert l1.stats().by_op["op"] == {"hits": 4, "misses": 4}
        assert l2.stats().by_op["op"] == {"hits": 2, "misses": 2}
        assert chain.stats().by_op["op"] == {"hits": 6, "misses": 2}

    def test_put_many_writes_through_every_tier(self):
        l1 = MapCache(max_entries=64)
        l2 = MapCache(max_entries=64)
        chain = TieredLookup([l1, l2])
        arrays = [np.arange(i + 1) for i in range(3)]
        for a in arrays:
            chain.memoize("op", (a,), {}, lambda a=a: a * 10)
        for a in arrays:
            key = l1.key("op", (a,), {})
            assert np.array_equal(l1.get(key, "op"), a * 10)
            assert np.array_equal(l2.get(key, "op"), a * 10)

    def test_get_many_matches_sequential_gets(self):
        l1 = MapCache(max_entries=64)
        chain = TieredLookup([l1])
        arrays = [np.full(2, i, dtype=np.int64) for i in range(6)]
        keys = [l1.key("op", (a,), {}) for a in arrays]
        for i in (0, 2, 4):
            l1.put(keys[i], np.array([i]), "op")
        single = [l1.get(k, "op") for k in keys]
        computed = np.array([-1])
        served = [chain.memoize("op", (a,), {}, lambda: computed)
                  for a in arrays]
        for s, c in zip(single, served):
            assert np.array_equal(computed if s is None else s, c)
        assert chain.stats().by_op["op"] == {"hits": 3, "misses": 3}


class TestWholeCallReuse:
    def test_knn_whole_hits_are_owned(self, rng):
        cloud = rng.uniform(0, 16, (300, 3))
        _, chain = _pair()
        with use_map_cache(chain):
            idx1, dist1 = knn_indices(cloud, cloud, 4)
            idx1[:] = -1  # scribble on the result...
            idx2, _ = knn_indices(cloud, cloud, 4)
        # ...and the cached whole-call entry must be unaffected.
        assert not np.array_equal(idx1, idx2)
        assert idx2.base is None
        assert chain.stats().by_op["knn"] == {"hits": 1, "misses": 1}
