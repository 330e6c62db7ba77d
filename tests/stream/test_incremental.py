"""Neighbour search on stream-like clouds: exact, bit for bit.

Streams rank every frame whole: each kNN and ball-query call selects the
k nearest from row blocks of one distance matrix.  For random clouds of
several densities, duplicate points, fewer references than k, isolated
queries, tiny clouds and feature-space graphs, every answer must equal
the ``*_bruteforce`` reference — indices, distances, padding — on a first
call and on repeated calls.  (The module name is historical: the
frame-over-frame reuse it once tested is gone, and the test ids are
kept.)
"""

import numpy as np
import pytest

from repro.mapping import farthest_point_sampling, fps_bruteforce
from repro.mapping.ball_query import ball_query_bruteforce, ball_query_indices
from repro.mapping.knn import knn_bruteforce, knn_indices
from repro.pointcloud import coords


@pytest.fixture(params=["planner", "oracle"], autouse=True)
def block_budget(request, monkeypatch):
    """Run every test under two row-block budgets of the distance matrix.

    ``planner``: the default ~2 MB budget, one block for these clouds;
    ``oracle``: 8-byte blocks, one row per block, so every selection
    crosses block boundaries.  The ids are kept from this file's earlier
    matrices, so each test id keeps one history.
    """
    if request.param == "oracle":
        monkeypatch.setattr(coords, "_BLOCK_BYTES", 8)
    return request.param


def _clouds(rng, n_q=300, n_r=400, span=20.0):
    return rng.uniform(0, span, (n_q, 3)), rng.uniform(0, span, (n_r, 3))


class TestKnnExact:
    @pytest.mark.parametrize("span,repeats", [(2.0, 1), (4.0, 1), (4.0, 2),
                                              (8.0, 0), (30.0, 1)])
    def test_matches_reference(self, rng, span, repeats):
        """Dense (span 2) to sparse (span 30) clouds, searched once and
        then ``repeats`` more times."""
        queries, references = _clouds(rng, span=span)
        expect_idx, expect_dist = knn_bruteforce(queries, references, 8)
        for _ in range(1 + repeats):
            got_idx, got_dist = knn_indices(queries, references, 8)
            assert np.array_equal(expect_idx, got_idx)
            assert np.array_equal(expect_dist, got_dist)

    def test_duplicate_points_tie_breaks(self, rng):
        """Exact ties stress the index-order tie-break, first and repeated
        call."""
        base = np.round(rng.uniform(0, 12, (150, 3)) * 2) / 2  # many collisions
        queries = np.concatenate([base, base[:40]])
        expect = knn_bruteforce(queries, queries, 4)
        first = knn_indices(queries, queries, 4)
        again = knn_indices(queries, queries, 4)
        assert np.array_equal(expect[0], first[0])
        assert np.array_equal(expect[0], again[0])
        assert np.array_equal(expect[1], again[1])

    def test_k_larger_than_references_falls_back(self, rng):
        """Fewer references than k: every row repeats its nearest."""
        queries = rng.uniform(0, 8, (40, 3))
        references = rng.uniform(0, 8, (5, 3))
        expect = knn_indices(queries, references, 9)
        got = knn_indices(queries, references, 9)
        assert np.array_equal(expect[0], got[0])
        assert np.array_equal(knn_bruteforce(queries, references, 9)[0], got[0])
        assert np.all(got[0][:, 5:] == got[0][:, :1])


class TestBallQueryExact:
    @pytest.mark.parametrize("span,repeats,radius", [
        (2.0, 1, 1.5),   # dense: most of the cloud in radius, rows cut at k
        (4.0, 1, 2.0),   # dense
        (2.0, 1, 3.0),   # every reference in radius
        (3.0, 0, 1.0),   # one call only
    ])
    def test_matches_reference(self, rng, span, repeats, radius):
        queries, references = _clouds(rng, span=span)
        expect = ball_query_bruteforce(queries, references, radius, 6)
        for _ in range(1 + repeats):
            got = ball_query_indices(queries, references, radius, 6)
            assert np.array_equal(expect, got)

    def test_isolated_queries_use_global_nearest_fallback(self, rng):
        """A query with no in-radius neighbor pads with the *global* nearest
        reference — which may lie far from every other query."""
        references = rng.uniform(0, 4, (60, 3))
        lonely = np.array([[30.0, 30.0, 30.0]])
        queries = np.concatenate([rng.uniform(0, 4, (50, 3)), lonely])
        got = ball_query_indices(queries, references, 0.5, 4)
        assert np.array_equal(
            ball_query_bruteforce(queries, references, 0.5, 4), got)
        nearest = np.argmin(((references - lonely) ** 2).sum(axis=1))
        assert np.all(got[-1] == nearest)


class TestGatingAndStats:
    """No size or kind gate: tiny clouds, feature-space graphs and FPS all
    run the same whole-cloud kernels."""

    def test_small_clouds_pass_through(self, rng):
        queries, references = _clouds(rng, n_q=50, n_r=50)
        got = knn_indices(queries, references, 3)
        assert np.array_equal(knn_bruteforce(queries, references, 3)[0], got[0])

    def test_feature_space_knn_passes_through(self, rng):
        features = rng.normal(size=(300, 16))  # DGCNN-style feature graph
        got = knn_indices(features, features, 4)
        assert np.array_equal(knn_bruteforce(features, features, 4)[0], got[0])

    def test_fps_passes_through(self, rng):
        points = rng.normal(size=(300, 3))
        assert np.array_equal(farthest_point_sampling(points, 32),
                              fps_bruteforce(points, 32))
