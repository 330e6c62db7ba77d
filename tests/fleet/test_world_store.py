"""WorldTileStore: chained-front attribution stays exact.

The store wraps the streaming tile front and books every chain sub-lookup
against the requesting stream.  These tests pin the accounting contract
of the chained fronts: per op, the world store's
``self + cross + external`` hits equal the inner front's hits and its
misses equal the inner front's misses (attribution may never invent or
drop a lookup), the chain's tier stats still see every sub-lookup, and
the classification itself follows ownership (same tenant -> self,
other tenant -> cross, unknown owner -> external).
"""

import numpy as np
import pytest

from repro.engine import MapCache
from repro.fleet import WorldTileStore
from repro.mapping.ball_query import ball_query_indices
from repro.mapping.hooks import TieredLookup, request_context, use_map_cache
from repro.mapping.knn import knn_indices
from repro.stream import TileMapCache


def _store(**kwargs):
    kwargs.setdefault("min_points", 1)
    inner = TileMapCache(**kwargs)
    store = WorldTileStore(inner)
    chain = TieredLookup([MapCache(max_entries=1 << 15)], front=store)
    return inner, store, chain


def _cloud(rng, n=400, span=16.0):
    return rng.uniform(0, span, (n, 3))


def _assert_counts_sum(store, inner):
    """Attribution must be a partition of the inner front's counters."""
    ws = store.stats()
    ts = inner.stats()
    assert ws.hits == ts.tile_hits
    assert ws.misses == ts.tile_misses
    assert set(ws.by_op) == set(ts.by_op)
    for op, world in ws.by_op.items():
        assert (
            world["self_hits"] + world["cross_hits"] + world["external_hits"]
            == ts.by_op[op]["hits"]
        ), op
        assert world["misses"] == ts.by_op[op]["misses"], op


class TestAttribution:
    def test_self_vs_cross_classification(self, rng):
        inner, store, chain = _store(tile_size=4.0)
        cloud = _cloud(rng)
        with use_map_cache(chain):
            with request_context("veh0"):
                knn_indices(cloud, cloud, 4)   # veh0 computes everything
            with request_context("veh0"):
                knn_indices(cloud, cloud, 4)   # veh0 again: self hits
            with request_context("veh1"):
                knn_indices(cloud, cloud, 4)   # veh1: cross hits
        ws = store.stats()
        assert ws.misses > 0 and ws.self_hits > 0 and ws.cross_hits > 0
        assert ws.self_hits == ws.cross_hits  # identical replays
        assert ws.shared_keys > 0
        assert ws.by_stream["veh0"]["misses"] > 0
        assert ws.by_stream["veh1"]["hits"] == ws.cross_hits
        _assert_counts_sum(store, inner)

    def test_results_identical_through_wrapping(self, rng):
        """The wrapper is observability only: same answers as the bare
        front, bit for bit."""
        queries = _cloud(rng, n=500)
        expect = knn_indices(queries, queries, 5)
        _, _, chain = _store(tile_size=4.0)
        with use_map_cache(chain), request_context("veh0"):
            cold = knn_indices(queries, queries, 5)
        with use_map_cache(chain), request_context("veh1"):
            warm = knn_indices(queries, queries, 5)
        assert np.array_equal(expect[0], cold[0])
        assert np.array_equal(expect[0], warm[0])

    def test_external_hits_on_unowned_keys(self, rng):
        """Entries already in the chain with no ownership record (a disk
        warm-start, in production) classify as external, not cross."""
        cloud = _cloud(rng)
        tier = MapCache(max_entries=1 << 15)
        inner_a = TileMapCache(min_points=1, tile_size=4.0)
        chain_a = TieredLookup([tier], front=inner_a)
        with use_map_cache(chain_a), request_context("veh0"):
            knn_indices(cloud, cloud, 4)  # populate the tier, no store
        inner, store, _ = _store(tile_size=4.0)
        chain_b = TieredLookup([tier], front=store)
        with use_map_cache(chain_b), request_context("veh1"):
            knn_indices(cloud, cloud, 4)
        ws = store.stats()
        assert ws.external_hits > 0 and ws.cross_hits == 0
        _assert_counts_sum(store, inner)

    def test_counts_sum_across_ops_and_fronts(self, rng):
        """Mixed op traffic (kNN + ball-query tiles) through two tenants:
        per-op counts line up front-to-front and reach the tier."""
        inner, store, chain = _store(tile_size=4.0)
        cloud = _cloud(rng, n=600)
        with use_map_cache(chain):
            for tenant in ("veh0", "veh1"):
                with request_context(tenant):
                    knn_indices(cloud, cloud, 4)
                    ball_query_indices(cloud, cloud, 2.0, 6)
        _assert_counts_sum(store, inner)
        ws = store.stats()
        assert {"knn", "ball_query"} <= set(ws.by_op)
        # Every sub-lookup the fronts booked is also visible in the tier.
        tier_by_op = chain.stats().snapshot()["tiers"][0]["by_op"]
        for op in ("knn", "ball_query"):
            tier_counts = tier_by_op[op + "/tile"]
            assert (
                tier_counts["hits"] + tier_counts["misses"]
                == ws.by_op[op]["misses"]
                + ws.by_op[op]["self_hits"]
                + ws.by_op[op]["cross_hits"]
                + ws.by_op[op]["external_hits"]
            )

    def test_ownership_book_is_bounded(self, rng):
        inner, store, chain = _store(tile_size=2.0)
        store.max_owned_keys = 8
        cloud = _cloud(rng, n=600, span=30.0)
        with use_map_cache(chain), request_context("veh0"):
            knn_indices(cloud, cloud, 3)
        assert len(store._owners) <= 8

    def test_snapshot_shape(self, rng):
        inner, store, chain = _store(tile_size=4.0)
        cloud = _cloud(rng)
        with use_map_cache(chain), request_context("veh0"):
            knn_indices(cloud, cloud, 4)
        snap = store.stats().snapshot()
        assert snap["lookups"] == snap["self_hits"] + snap["cross_hits"] + \
            snap["external_hits"] + snap["misses"]
        assert "by_op" in snap and "by_stream" in snap
        assert snap["shared_keys"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorldTileStore(None)
        with pytest.raises(ValueError):
            WorldTileStore(TileMapCache(), max_owned_keys=0)
