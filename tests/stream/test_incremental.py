"""TileMapCache exactness: decomposed ops equal the reference, bit for bit.

These are op-level checks (the network-level bit-identity lives in
``tests/properties/test_prop_stream.py``): for random clouds and a range of
tile/halo configurations, the tile front's composed kNN / ball-query
answers must equal the plain reference computation exactly — indices,
distances, padding — on cold caches, warm caches, and across perturbed
"next frames".  Every other op must pass through to the digest path.
"""

import sys

import numpy as np
import pytest

from repro.engine import MapCache
from repro.mapping.ball_query import ball_query_indices
from repro.mapping.hooks import TieredLookup, use_map_cache
from repro.mapping.kernel_map import kernel_map
from repro.mapping.knn import knn_indices
from repro.pointcloud.coords import quantize_unique, voxelize
from repro.stream import TileMapCache
from repro.stream.incremental import PerTileOracle

_FRONT_CLS = TileMapCache


def _front(chain_entries=1 << 15, **kwargs):
    kwargs.setdefault("min_points", 1)
    front = _FRONT_CLS(**kwargs)
    chain = TieredLookup([MapCache(max_entries=chain_entries)], front=front)
    return front, chain


@pytest.fixture(params=[TileMapCache, PerTileOracle],
                ids=["planner", "oracle"], autouse=True)
def front_cls(request, monkeypatch):
    """Run every exactness test against both fronts.

    The batched planner serves all production traffic; the per-tile
    oracle is the retired reference implementation the planner is proven
    against.  Both must satisfy every contract in this file.
    """
    monkeypatch.setattr(sys.modules[__name__], "_FRONT_CLS", request.param)
    return request.param


def _clouds(rng, n_q=300, n_r=400, span=20.0):
    return rng.uniform(0, span, (n_q, 3)), rng.uniform(0, span, (n_r, 3))


class TestKnnExact:
    @pytest.mark.parametrize("tile_size,halo", [(2.0, 1), (4.0, 1), (4.0, 2),
                                                (8.0, 0), (30.0, 1)])
    def test_matches_reference(self, rng, tile_size, halo):
        queries, references = _clouds(rng)
        expect_idx, expect_dist = knn_indices(queries, references, 8)
        _, chain = _front(tile_size=tile_size, halo=halo)
        with use_map_cache(chain):
            got_idx, got_dist = knn_indices(queries, references, 8)
        assert np.array_equal(expect_idx, got_idx)
        # Distances: exact value up to BLAS sub-matrix rounding (see the
        # floating-point note in repro.stream.incremental).
        assert np.allclose(expect_dist, got_dist, rtol=1e-12, atol=1e-9)

    def test_warm_hit_still_exact(self, rng):
        queries, references = _clouds(rng)
        expect = knn_indices(queries, references, 5)
        front, chain = _front(tile_size=4.0, halo=1)
        with use_map_cache(chain):
            knn_indices(queries, references, 5)
            warm_idx, warm_dist = knn_indices(queries, references, 5)
        assert front.stats().tile_hits > 0
        assert np.array_equal(expect[0], warm_idx)
        assert np.allclose(expect[1], warm_dist, rtol=1e-12, atol=1e-9)

    def test_cross_frame_reuse_is_exact(self, rng):
        """Perturb one region; unchanged tiles hit, answers stay exact."""
        queries, references = _clouds(rng, n_q=500, n_r=500, span=32.0)
        front, chain = _front(tile_size=4.0, halo=1)
        with use_map_cache(chain):
            knn_indices(queries, queries, 6)
        # next frame: points in one corner move, the rest are byte-stable
        moved = queries.copy()
        corner = np.all(queries < 6.0, axis=1)
        moved[corner] += 0.25
        expect = knn_indices(moved, moved, 6)
        before = front.stats().tile_hits
        with use_map_cache(chain):
            got = knn_indices(moved, moved, 6)
        assert front.stats().tile_hits > before  # clean tiles reused
        assert np.array_equal(expect[0], got[0])
        assert np.allclose(expect[1], got[1], rtol=1e-12, atol=1e-9)

    def test_duplicate_points_tie_breaks(self, rng):
        """Exact ties stress the index-order tie-break across halos."""
        base = np.round(rng.uniform(0, 12, (150, 3)) * 2) / 2  # many collisions
        queries = np.concatenate([base, base[:40]])
        _, chain = _front(tile_size=3.0, halo=1)
        expect = knn_indices(queries, queries, 4)
        with use_map_cache(chain):
            got = knn_indices(queries, queries, 4)
        assert np.array_equal(expect[0], got[0])

    def test_k_larger_than_references_falls_back(self, rng):
        queries = rng.uniform(0, 8, (40, 3))
        references = rng.uniform(0, 8, (5, 3))
        front, chain = _front(tile_size=2.0, halo=1)
        expect = knn_indices(queries, references, 9)
        with use_map_cache(chain):
            got = knn_indices(queries, references, 9)
        assert np.array_equal(expect[0], got[0])
        assert front.stats().fallback_rows == len(queries)


class TestBallQueryExact:
    @pytest.mark.parametrize("tile_size,halo,radius", [
        (2.0, 1, 1.5),   # full cover (2.0 >= 1.5)
        (4.0, 1, 2.0),   # full cover
        (2.0, 1, 3.0),   # under-cover: certificate path
        (3.0, 0, 1.0),   # degenerate halo: fallback-heavy
    ])
    def test_matches_reference(self, rng, tile_size, halo, radius):
        queries, references = _clouds(rng)
        expect = ball_query_indices(queries, references, radius, 6)
        _, chain = _front(tile_size=tile_size, halo=halo)
        with use_map_cache(chain):
            got = ball_query_indices(queries, references, radius, 6)
        assert np.array_equal(expect, got)

    def test_isolated_queries_use_global_nearest_fallback(self, rng):
        """A query with no in-radius neighbor pads with the *global* nearest
        reference — which may live far outside the halo."""
        references = rng.uniform(0, 4, (60, 3))
        lonely = np.array([[30.0, 30.0, 30.0]])
        queries = np.concatenate([rng.uniform(0, 4, (50, 3)), lonely])
        expect = ball_query_indices(queries, references, 0.5, 4)
        front, chain = _front(tile_size=2.0, halo=1)
        with use_map_cache(chain):
            got = ball_query_indices(queries, references, 0.5, 4)
        assert np.array_equal(expect, got)
        assert front.stats().fallback_rows >= 1

    def test_warm_reuse_exact(self, rng):
        queries, references = _clouds(rng)
        expect = ball_query_indices(queries, references, 2.0, 8)
        front, chain = _front(tile_size=4.0, halo=1)
        with use_map_cache(chain):
            ball_query_indices(queries, references, 2.0, 8)
            got = ball_query_indices(queries, references, 2.0, 8)
        assert front.stats().tile_hits > 0
        assert np.array_equal(expect, got)


class TestKernelMapExact:
    """Kernel maps through a front-equipped chain: declined, still exact."""

    @pytest.mark.parametrize("algorithm", ["mergesort", "hash", "bruteforce"])
    def test_matches_reference_including_row_order(self, rng, algorithm):
        coords, _ = quantize_unique(
            rng.integers(0, 60, (500, 3)), 1
        )
        expect = kernel_map(coords, coords, kernel_size=3, algorithm=algorithm)
        front, chain = _front()
        with use_map_cache(chain):
            got = kernel_map(coords, coords, kernel_size=3, algorithm=algorithm)
        assert np.array_equal(expect.in_idx, got.in_idx)
        assert np.array_equal(expect.out_idx, got.out_idx)
        assert np.array_equal(expect.weight_idx, got.weight_idx)
        assert expect.kernel_volume == got.kernel_volume
        assert front.stats().decomposed_calls == 0

    def test_strided_downsampling_maps(self, rng):
        pts = rng.uniform(0, 10, (800, 3))
        in_coords, _ = voxelize(pts, 0.4)
        out_coords, _ = quantize_unique(in_coords, 2)
        expect = kernel_map(in_coords, out_coords, kernel_size=2)
        _, chain = _front()
        with use_map_cache(chain):
            got = kernel_map(in_coords, out_coords, kernel_size=2)
        assert np.array_equal(expect.in_idx, got.in_idx)
        assert np.array_equal(expect.out_idx, got.out_idx)
        assert np.array_equal(expect.weight_idx, got.weight_idx)


class TestGatingAndStats:
    def test_small_clouds_pass_through(self, rng):
        front = _FRONT_CLS(min_points=1000)
        chain = TieredLookup([MapCache()], front=front)
        queries, references = _clouds(rng, n_q=50, n_r=50)
        with use_map_cache(chain):
            knn_indices(queries, references, 3)
        assert front.stats().decomposed_calls == 0
        assert chain.stats().misses == 1  # went down the digest path

    def test_feature_space_knn_passes_through(self, rng):
        front, chain = _front()
        features = rng.normal(size=(300, 16))  # DGCNN-style feature graph
        with use_map_cache(chain):
            knn_indices(features, features, 4)
        assert front.stats().decomposed_calls == 0

    def test_fps_passes_through(self, rng):
        from repro.mapping import farthest_point_sampling

        front, chain = _front()
        with use_map_cache(chain):
            farthest_point_sampling(rng.normal(size=(300, 3)), 32)
        assert front.stats().decomposed_calls == 0
        assert "fps" in chain.stats().by_op

    def test_snapshot_shape(self, rng):
        front, chain = _front(tile_size=4.0)
        queries, references = _clouds(rng)
        with use_map_cache(chain):
            knn_indices(queries, references, 4)
        snap = front.stats().snapshot()
        assert snap["decomposed_calls"] == 1
        assert snap["tile_lookups"] == snap["tile_hits"] + snap["tile_misses"]
        assert "knn" in snap["by_op"]
        chain_snap = chain.stats().snapshot()
        assert chain_snap["front"] == snap
        assert "knn/tile" in chain_snap["tiers"][0]["by_op"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TileMapCache(tile_size=0)
        with pytest.raises(ValueError):
            TileMapCache(halo=-1)

    def test_kernel_maps_and_voxelize_take_the_digest_path(self, rng):
        """Sort-based ops are declined: the front never sees them and the
        chain's whole-op digest path serves them (a repeat call hits)."""
        coords, _ = quantize_unique(rng.integers(0, 60, (600, 3)), 1)
        points = rng.uniform(0, 20, (2000, 3))
        front, chain = _front()
        for algorithm in ("mergesort", "hash", "bruteforce"):
            op = f"kernel_map/{algorithm}"
            assert not front.handles(op, (coords, coords, coords[:1]), {})
        assert not front.handles("voxelize", (points,), {"voxel_size": 0.2})
        expect = voxelize(points, 0.2)
        with use_map_cache(chain):
            for _ in range(2):
                kernel_map(coords, coords, kernel_size=3)
                got = voxelize(points, 0.2)
        assert np.array_equal(expect[0], got[0])
        assert np.array_equal(expect[1], got[1])
        assert front.stats().decomposed_calls == 0
        by_op = chain.stats().by_op
        assert by_op["kernel_map/mergesort"] == {"hits": 1, "misses": 1}
        assert by_op["voxelize"] == {"hits": 1, "misses": 1}

    def test_engine_requires_a_tier_for_tiles(self):
        from repro.engine import SimulationEngine

        with pytest.raises(ValueError):
            SimulationEngine(map_cache=None, tile_cache=TileMapCache())


class TestVoxelizeExact:
    def test_no_cache_no_change(self, rng):
        points = rng.uniform(0, 10, (500, 3))
        a = voxelize(points, 0.25)
        b = voxelize(points, 0.25)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
