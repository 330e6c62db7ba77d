"""Frame-over-frame reuse through the whole-op chain: exact, bit for bit.

Streams serve every frame's kNN, ball query, FPS, kernel maps and voxelize
through the engine's lookup chain (:class:`TieredLookup` over
:class:`MapCache` tiers).  Reuse is whole-op: a call either repeats an
earlier call's content exactly and hits, or misses and runs the kernel on
the whole cloud.  These are op-level checks (the network-level
bit-identity lives in ``tests/properties/test_prop_stream.py``): for random
clouds of several densities, answers served through the chain must equal
the uncached computation exactly — indices, distances, padding — and the
``*_bruteforce`` references, on cold chains, warm chains, and across
perturbed "next frames".
"""

import sys

import numpy as np
import pytest

from repro.cluster.store import SharedMapStore
from repro.engine import MapCache
from repro.mapping.ball_query import ball_query_bruteforce, ball_query_indices
from repro.mapping.hooks import TieredLookup, use_map_cache
from repro.mapping.kernel_map import kernel_map
from repro.mapping.knn import knn_bruteforce, knn_indices
from repro.pointcloud.coords import quantize_unique, voxelize

_SHAPE = "planner"


def _chain():
    """A fresh chain of the shape under test, and its L1."""
    l1 = MapCache(max_entries=1 << 15)
    tiers = [l1] if _SHAPE == "planner" else [l1, SharedMapStore()]
    return l1, TieredLookup(tiers)


@pytest.fixture(params=["planner", "oracle"], autouse=True)
def chain_shape(request, monkeypatch):
    """Run every exactness test on both chain shapes a stream is served by.

    ``planner``: the single L1 of a session-built engine; ``oracle``: a
    cluster shard's L1 over a shared :class:`SharedMapStore` L2, whose hits
    are promoted into the L1.  The ids are kept from this file's earlier
    front-vs-oracle matrix so each test id keeps one history.
    """
    monkeypatch.setattr(sys.modules[__name__], "_SHAPE", request.param)
    return request.param


def _clouds(rng, n_q=300, n_r=400, span=20.0):
    return rng.uniform(0, span, (n_q, 3)), rng.uniform(0, span, (n_r, 3))


class TestKnnExact:
    @pytest.mark.parametrize("span,repeats", [(2.0, 1), (4.0, 1), (4.0, 2),
                                              (8.0, 0), (30.0, 1)])
    def test_matches_reference(self, rng, span, repeats):
        """Dense (span 2) to sparse (span 30) clouds, served cold and then
        ``repeats`` more times from the chain."""
        queries, references = _clouds(rng, span=span)
        expect_idx, expect_dist = knn_indices(queries, references, 8)
        _, chain = _chain()
        with use_map_cache(chain):
            for _ in range(1 + repeats):
                got_idx, got_dist = knn_indices(queries, references, 8)
        assert np.array_equal(expect_idx, got_idx)
        assert np.array_equal(expect_dist, got_dist)
        assert np.array_equal(knn_bruteforce(queries, references, 8)[0], got_idx)
        assert chain.stats().by_op["knn"] == {"hits": repeats, "misses": 1}

    def test_warm_hit_still_exact(self, rng):
        queries, references = _clouds(rng)
        expect = knn_indices(queries, references, 5)
        _, chain = _chain()
        with use_map_cache(chain):
            knn_indices(queries, references, 5)
            warm_idx, warm_dist = knn_indices(queries, references, 5)
        assert chain.stats().by_op["knn"]["hits"] == 1
        assert np.array_equal(expect[0], warm_idx)
        assert np.array_equal(expect[1], warm_dist)

    def test_cross_frame_reuse_is_exact(self, rng):
        """Perturb one region: the next frame is new content, so it misses
        and is ranked whole (no stale entry can serve it), while the
        earlier frame still hits."""
        queries = rng.uniform(0, 32.0, (500, 3))
        _, chain = _chain()
        with use_map_cache(chain):
            knn_indices(queries, queries, 6)
        # next frame: points in one corner move, the rest are byte-stable
        moved = queries.copy()
        corner = np.all(queries < 6.0, axis=1)
        moved[corner] += 0.25
        expect = knn_indices(moved, moved, 6)
        expect_first = knn_indices(queries, queries, 6)
        with use_map_cache(chain):
            got = knn_indices(moved, moved, 6)
            again = knn_indices(queries, queries, 6)
        assert chain.stats().by_op["knn"] == {"hits": 1, "misses": 2}
        assert np.array_equal(expect[0], got[0])
        assert np.array_equal(expect[1], got[1])
        assert np.array_equal(expect_first[0], again[0])
        assert np.array_equal(expect_first[1], again[1])

    def test_duplicate_points_tie_breaks(self, rng):
        """Exact ties stress the index-order tie-break, cold and warm."""
        base = np.round(rng.uniform(0, 12, (150, 3)) * 2) / 2  # many collisions
        queries = np.concatenate([base, base[:40]])
        _, chain = _chain()
        expect = knn_bruteforce(queries, queries, 4)
        with use_map_cache(chain):
            cold = knn_indices(queries, queries, 4)
            warm = knn_indices(queries, queries, 4)
        assert np.array_equal(expect[0], cold[0])
        assert np.array_equal(expect[0], warm[0])
        assert np.array_equal(expect[1], warm[1])

    def test_k_larger_than_references_falls_back(self, rng):
        """Fewer references than k: every row repeats its nearest, and the
        chain hands back exactly that padding."""
        queries = rng.uniform(0, 8, (40, 3))
        references = rng.uniform(0, 8, (5, 3))
        _, chain = _chain()
        expect = knn_indices(queries, references, 9)
        with use_map_cache(chain):
            knn_indices(queries, references, 9)
            got = knn_indices(queries, references, 9)
        assert np.array_equal(expect[0], got[0])
        assert np.array_equal(knn_bruteforce(queries, references, 9)[0], got[0])
        assert np.all(got[0][:, 5:] == got[0][:, :1])
        assert chain.stats().by_op["knn"]["hits"] == 1


class TestBallQueryExact:
    @pytest.mark.parametrize("span,repeats,radius", [
        (2.0, 1, 1.5),   # dense: most of the cloud in radius, rows cut at k
        (4.0, 1, 2.0),   # dense
        (2.0, 1, 3.0),   # every reference in radius
        (3.0, 0, 1.0),   # cold only
    ])
    def test_matches_reference(self, rng, span, repeats, radius):
        queries, references = _clouds(rng, span=span)
        expect = ball_query_indices(queries, references, radius, 6)
        _, chain = _chain()
        with use_map_cache(chain):
            for _ in range(1 + repeats):
                got = ball_query_indices(queries, references, radius, 6)
        assert np.array_equal(expect, got)
        assert np.array_equal(
            ball_query_bruteforce(queries, references, radius, 6), got
        )
        assert chain.stats().by_op["ball_query"] == {"hits": repeats,
                                                     "misses": 1}

    def test_isolated_queries_use_global_nearest_fallback(self, rng):
        """A query with no in-radius neighbor pads with the *global* nearest
        reference — which may lie far from every other query."""
        references = rng.uniform(0, 4, (60, 3))
        lonely = np.array([[30.0, 30.0, 30.0]])
        queries = np.concatenate([rng.uniform(0, 4, (50, 3)), lonely])
        expect = ball_query_indices(queries, references, 0.5, 4)
        _, chain = _chain()
        with use_map_cache(chain):
            got = ball_query_indices(queries, references, 0.5, 4)
        assert np.array_equal(expect, got)
        nearest = np.argmin(((references - lonely) ** 2).sum(axis=1))
        assert np.all(got[-1] == nearest)

    def test_warm_reuse_exact(self, rng):
        queries, references = _clouds(rng)
        expect = ball_query_indices(queries, references, 2.0, 8)
        _, chain = _chain()
        with use_map_cache(chain):
            ball_query_indices(queries, references, 2.0, 8)
            got = ball_query_indices(queries, references, 2.0, 8)
        assert chain.stats().by_op["ball_query"]["hits"] == 1
        assert np.array_equal(expect, got)


class TestKernelMapExact:
    """Kernel maps through the chain: exact, row order included."""

    @pytest.mark.parametrize("algorithm", ["mergesort", "hash", "bruteforce"])
    def test_matches_reference_including_row_order(self, rng, algorithm):
        coords, _ = quantize_unique(
            rng.integers(0, 60, (500, 3)), 1
        )
        expect = kernel_map(coords, coords, kernel_size=3, algorithm=algorithm)
        _, chain = _chain()
        with use_map_cache(chain):
            for _ in range(2):
                got = kernel_map(coords, coords, kernel_size=3,
                                 algorithm=algorithm)
                assert np.array_equal(expect.in_idx, got.in_idx)
                assert np.array_equal(expect.out_idx, got.out_idx)
                assert np.array_equal(expect.weight_idx, got.weight_idx)
                assert expect.kernel_volume == got.kernel_volume
        assert chain.stats().by_op[f"kernel_map/{algorithm}"] == {
            "hits": 1, "misses": 1}

    def test_strided_downsampling_maps(self, rng):
        pts = rng.uniform(0, 10, (800, 3))
        in_coords, _ = voxelize(pts, 0.4)
        out_coords, _ = quantize_unique(in_coords, 2)
        expect = kernel_map(in_coords, out_coords, kernel_size=2)
        _, chain = _chain()
        with use_map_cache(chain):
            got = kernel_map(in_coords, out_coords, kernel_size=2)
        assert np.array_equal(expect.in_idx, got.in_idx)
        assert np.array_equal(expect.out_idx, got.out_idx)
        assert np.array_equal(expect.weight_idx, got.weight_idx)


class TestGatingAndStats:
    def test_small_clouds_pass_through(self, rng):
        """No size gate: a tiny cloud is one whole-op lookup like any other."""
        _, chain = _chain()
        queries, references = _clouds(rng, n_q=50, n_r=50)
        expect = knn_indices(queries, references, 3)
        with use_map_cache(chain):
            got = knn_indices(queries, references, 3)
        assert chain.stats().misses == 1  # went down the digest path
        assert np.array_equal(expect[0], got[0])

    def test_feature_space_knn_passes_through(self, rng):
        _, chain = _chain()
        features = rng.normal(size=(300, 16))  # DGCNN-style feature graph
        expect = knn_indices(features, features, 4)
        with use_map_cache(chain):
            got = knn_indices(features, features, 4)
        assert chain.stats().by_op["knn"] == {"hits": 0, "misses": 1}
        assert np.array_equal(expect[0], got[0])
        assert np.array_equal(knn_bruteforce(features, features, 4)[0], got[0])

    def test_fps_passes_through(self, rng):
        from repro.mapping import farthest_point_sampling

        _, chain = _chain()
        points = rng.normal(size=(300, 3))
        expect = farthest_point_sampling(points, 32)
        with use_map_cache(chain):
            got = farthest_point_sampling(points, 32)
        assert np.array_equal(expect, got)
        assert "fps" in chain.stats().by_op

    def test_snapshot_shape(self, rng):
        l1, chain = _chain()
        queries, references = _clouds(rng)
        with use_map_cache(chain):
            knn_indices(queries, references, 4)
            knn_indices(queries, references, 4)
        snap = chain.stats().snapshot()
        assert snap["lookups"] == snap["hits"] + snap["misses"] == 2
        assert snap["by_op"]["knn"] == {"hits": 1, "misses": 1}
        assert "front" not in snap
        assert len(snap["tiers"]) == len(chain.tiers)
        assert snap["tiers"][0] == l1.stats().snapshot()
        assert snap["tiers"][0]["by_op"]["knn"] == {"hits": 1, "misses": 1}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TieredLookup([])
        with pytest.raises(ValueError):
            TieredLookup([None])
        with pytest.raises(ValueError):
            MapCache(max_entries=0)
        with pytest.raises(ValueError):
            MapCache(max_bytes=0)

    def test_kernel_maps_and_voxelize_take_the_digest_path(self, rng):
        """Sort-based ops share the same whole-op digest path (a repeat
        call hits)."""
        coords, _ = quantize_unique(rng.integers(0, 60, (600, 3)), 1)
        points = rng.uniform(0, 20, (2000, 3))
        _, chain = _chain()
        expect = voxelize(points, 0.2)
        with use_map_cache(chain):
            for _ in range(2):
                kernel_map(coords, coords, kernel_size=3)
                got = voxelize(points, 0.2)
        assert np.array_equal(expect[0], got[0])
        assert np.array_equal(expect[1], got[1])
        by_op = chain.stats().by_op
        assert by_op["kernel_map/mergesort"] == {"hits": 1, "misses": 1}
        assert by_op["voxelize"] == {"hits": 1, "misses": 1}


class TestVoxelizeExact:
    def test_no_cache_no_change(self, rng):
        points = rng.uniform(0, 10, (500, 3))
        a = voxelize(points, 0.25)
        b = voxelize(points, 0.25)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        _, chain = _chain()
        with use_map_cache(chain):
            c = voxelize(points, 0.25)
        assert np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1])
