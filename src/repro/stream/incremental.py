"""Tile-granular incremental map reuse: the content-aware cache front.

:class:`TileMapCache` plugs into :class:`repro.mapping.hooks.TieredLookup`
as its ``front``.  For kNN and ball query it decomposes the whole-cloud
call into per-tile sub-problems, addresses each sub-problem into the
chain's ordinary digest tiers (L1 / shared L2 / disk — so tile results
shard and persist exactly like whole-op results), and recomputes only the
tiles whose content changed, plus whatever the op's locality demands.

The bit-identity contract is non-negotiable: composition must reproduce
the reference op's output *exactly*, including neighbor ordering,
padding and tie-breaking.  Two op families qualify:

``knn``
    Rows are independent per query.  A query tile is answered against a
    *halo* of reference tiles within ``halo`` Chebyshev tiles; any point
    outside the halo is provably farther than ``halo * tile_size`` from
    every query in the tile, so a row whose k-th local neighbor is within
    that bound is certified global-exact.  Uncertified rows (sparse halos,
    boundary ties) are recomputed against the full reference cloud — rows
    are independent, so partial fallback stays exact.  Tie-breaks survive
    because the halo is materialized in ascending global order: local
    index order *is* global index order restricted to the halo.

``ball_query``
    Same row independence and halo geometry.  A row is certified when the
    halo covers the full query radius and at least one candidate is in
    radius (the reference pads with the nearest in-radius point), or —
    for under-covering halos — when all ``k`` local candidates are within
    the covered bound.  Everything else falls back per-row.

Both are global and superlinear (a distance matrix per call), which is
what makes partitioning pay.  Everything else falls through to the
chain's whole-content digest path untouched: kernel maps and voxelize are
one O(n log n) ranking pass over the cloud (PointAcc's merge-sort mapping)
that recomputes faster than it decomposes; FPS is inherently global and
sequential; DGCNN's feature-space graphs have no spatial tiles.

Serving routes every decomposed call through the plan/probe/execute
pipeline in :mod:`repro.stream.plan` (vectorized digesting, one
``get_many`` chain round trip) under *versioned fixed-width* sub-keys.
The original per-tile loops survive as :class:`PerTileOracle` — no longer
a serving mode but the independent reference implementation the property
suite (``tests/properties/test_prop_plan.py``) proves the planner
bit-identical against.  The oracle keeps its variable-width
``content_digest`` keys, which are 16 bytes and therefore provably
disjoint from the planner's longer versioned keys: the two
implementations can share a cache chain without ever serving each
other's entries.

A note on floating point: tile-local distance matrices are computed by the
same :func:`~repro.pointcloud.coords.pairwise_squared_distance` formula on
the same operands as the monolithic call, but BLAS may tile a sub-matrix
GEMM differently, so a distance can differ from the monolithic value in
its last ulp.  Selections and orderings are unaffected for points in
general position (an inversion needs two candidates within one ulp of
each other — i.e. an exact geometric tie, which the index tie-break
resolves identically either way, computed within a single matrix);
returned kNN *distances* are therefore exact in value but only
reproducible to rounding.  Every map, index, trace and report — the
simulation results — stays bit-identical, which
``tests/properties/test_prop_stream.py`` enforces end to end.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..mapping.ball_query import _ball_query_details
from ..mapping.hooks import count_by_op
from ..mapping.knn import _knn_compute
from ..obs.trace import span as _span
from . import plan as _plan
from .tiles import TilePartition, content_digest

__all__ = ["PerTileOracle", "TileFrontStats", "TileMapCache"]


class TileFrontStats:
    """Observable tile-front behaviour, per op and aggregate.

    ``tile_hits``/``tile_misses`` count sub-problem lookups against the
    chain — per-tile probes plus, on the plan path, the one whole-call
    probe per decomposed op (booked under ``<op>/whole`` in ``by_op``);
    ``fallback_rows`` counts query rows that needed a global recompute
    (certificate failures), ``certified_rows`` the rows served from
    tile-local answers.  ``decomposed_calls`` is how many whole-op calls
    the front handled at all.
    """

    def __init__(self) -> None:
        self.decomposed_calls = 0
        self.tile_hits = 0
        self.tile_misses = 0
        self.certified_rows = 0
        self.fallback_rows = 0
        self.by_op: dict = {}  # op -> {"hits": int, "misses": int}

    @property
    def tile_lookups(self) -> int:
        return self.tile_hits + self.tile_misses

    @property
    def tile_hit_rate(self) -> float:
        return self.tile_hits / self.tile_lookups if self.tile_lookups else 0.0

    def _count(self, op: str, hit: bool) -> None:
        count_by_op(self.by_op, op, hit)
        if hit:
            self.tile_hits += 1
        else:
            self.tile_misses += 1

    def _count_many(self, op: str, hits: int, misses: int) -> None:
        """Bulk counting for the plan path: one probe batch, one update."""
        count_by_op(self.by_op, op, hit=True, n=hits)
        count_by_op(self.by_op, op, hit=False, n=misses)
        self.tile_hits += hits
        self.tile_misses += misses

    def snapshot(self) -> dict:
        return {
            "decomposed_calls": self.decomposed_calls,
            "tile_hits": self.tile_hits,
            "tile_misses": self.tile_misses,
            "tile_lookups": self.tile_lookups,
            "tile_hit_rate": self.tile_hit_rate,
            "certified_rows": self.certified_rows,
            "fallback_rows": self.fallback_rows,
            "by_op": {op: dict(c) for op, c in self.by_op.items()},
        }


class TileMapCache:
    """Content-aware front decomposing kNN / ball query into tile lookups.

    Parameters
    ----------
    tile_size:
        Tile side in cloud units (meters for scene datasets).
    halo:
        Halo width in tiles.  Larger halos certify more rows per tile but
        dirty more sub-keys per changed tile; ``halo * tile_size`` is the
        certified coverage radius.  Any value is *correct* (uncertifiable
        rows fall back) — this knob trades recompute against reuse
        granularity.
    min_points:
        Ops on clouds smaller than this (either input) pass through to
        the digest tiers — tiny layers are cheaper to rehash whole than
        to decompose.

    The retired per-tile serving mode lives on as :class:`PerTileOracle`:
    same decomposition walked one tile at a time under 16-byte keys,
    importable for property tests only.
    """

    def __init__(
        self,
        tile_size: float = 4.0,
        halo: int = 1,
        min_points: int = 256,
    ) -> None:
        if tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {tile_size}")
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        self.tile_size = float(tile_size)
        self.halo = int(halo)
        self.min_points = int(min_points)
        self._stats = TileFrontStats()
        # (id(points), size) -> (points, TilePartition): mapping inputs are
        # immutable by library convention (see repro.pointcloud.cloud), and
        # one frame presents the same coordinate array to many layers, so
        # partitions, per-tile digests and neighborhoods are reused across
        # those calls.  The held reference keeps the id stable; bounded,
        # oldest out first.
        self._partitions: OrderedDict = OrderedDict()
        # Recompute-lineage diagnosis memory: per (op, params, tenant)
        # family, the last-seen (tile digest, halo digest) per spatial
        # tile key.  Written only by the ledger path (repro.obs.ledger
        # active) and never read by the compute path — purely
        # observability state.
        self._ledger_memory: dict = {}

    def stats(self) -> TileFrontStats:
        return self._stats

    # ------------------------------------------------------------------
    # Front protocol
    # ------------------------------------------------------------------

    def handles(self, op: str, arrays, params: dict) -> bool:
        """True for kNN / ball query over spatial (1-3 D) clouds."""
        if op not in ("knn", "ball_query"):
            return False
        queries, references = arrays[0], arrays[1]
        return (
            queries.ndim == 2
            and references.ndim == 2
            and 1 <= queries.shape[1] <= 3
            and len(queries) >= self.min_points
            and len(references) >= self.min_points
        )

    def memoize(self, op: str, arrays, params: dict, compute, chain):
        try:
            self._stats.decomposed_calls += 1
            with _span("front", op=op):
                return _plan.run_planned(
                    self, chain, op, arrays[0], arrays[1], params
                )
        except ValueError:
            # Untileable geometry (e.g. coordinates beyond the packable
            # tile-key range).  Caching may never change a result — so
            # compute plainly rather than fail.
            return compute()

    # ------------------------------------------------------------------
    # Shared partition plumbing (planner and oracle)
    # ------------------------------------------------------------------

    def _partition(self, points, size) -> TilePartition:
        """Partition memo: by array identity first, content digest second.

        The id probe is free and catches the common case (layers sharing
        their coordinate array object); the content probe catches
        equal-content arrays rebuilt per layer, which would otherwise
        re-partition — and re-digest — identical geometry several times
        per frame.
        """
        id_key = (id(points), size)
        entry = self._partitions.get(id_key)
        if entry is not None and entry[0] is points:
            self._partitions.move_to_end(id_key)
            return entry[1]
        content_key = (content_digest(points), size)
        entry = self._partitions.get(content_key)
        if entry is None:
            entry = (points, TilePartition(points, size))
            self._partitions[content_key] = entry
        else:
            self._partitions.move_to_end(content_key)
        # The id slot pins *this* array object (the content slot may pin an
        # older equal-content one), so the identity probe stays valid.
        self._partitions[id_key] = (points, entry[1])
        while len(self._partitions) > 64:
            self._partitions.popitem(last=False)
        return entry[1]

    def _float_tiles(self, queries, references):
        qpart = self._partition(queries, self.tile_size)
        rpart = self._partition(references, self.tile_size)
        r_cov = self.halo * self.tile_size
        return qpart, rpart, r_cov


class PerTileOracle(TileMapCache):
    """The retired per-tile front, kept as the property-test oracle.

    One chain walk per tile under variable-width ``content_digest`` keys.
    It no longer serves traffic: the batched planner (:mod:`repro.stream.
    plan`) produces identical arrays from the same decomposition, and
    the property suite proves it against *this* class.  Because the
    batched universe carries a versioned fixed-width prefix, oracle keys
    and planner keys can never collide even in a shared store.
    """

    def memoize(self, op: str, arrays, params: dict, compute, chain):
        try:
            if op == "knn":
                return self._memo_knn(arrays[0], arrays[1], params["k"], chain)
            return self._memo_ball(
                arrays[0], arrays[1], params["radius"], params["k"], chain
            )
        except ValueError:
            # Untileable geometry: compute plainly, as the planner does.
            return compute()

    def _memo_knn(self, queries, references, k: int, chain):
        self._stats.decomposed_calls += 1
        qpart, rpart, r_cov = self._float_tiles(queries, references)
        r_cov2 = r_cov * r_cov
        idx_out = np.empty((len(queries), k), dtype=np.int64)
        dist_out = np.empty((len(queries), k), dtype=np.float64)
        fallback = []
        for key in qpart.keys():
            q_idx = qpart.indices(key)
            halo_digest, perm, hal = rpart.sorted_neighborhood(key, self.halo)
            if len(hal) == 0:
                fallback.append(q_idx)
                continue
            sub_key = content_digest(
                b"tile/knn", int(k), self.tile_size, self.halo,
                qpart.digest(key), halo_digest, perm,
            )
            entry = chain.get(sub_key, "knn/tile", copy=False)
            if entry is None:
                self._stats._count("knn", hit=False)
                loc, dist = _knn_compute(queries[q_idx], references[hal], k)
                if len(hal) >= k:
                    # Every true neighbor within halo coverage: exact.
                    cert = dist[:, k - 1] <= r_cov2
                else:
                    cert = np.zeros(len(q_idx), dtype=bool)
                chain.put(sub_key, (loc, dist, cert), "knn/tile", copy=False)
            else:
                self._stats._count("knn", hit=True)
                loc, dist, cert = entry
            hit_rows = q_idx[cert]
            idx_out[hit_rows] = hal[loc[cert]]
            dist_out[hit_rows] = dist[cert]
            self._stats.certified_rows += len(hit_rows)
            if not cert.all():
                fallback.append(q_idx[~cert])
        if fallback:
            rows = np.concatenate(fallback)
            self._stats.fallback_rows += len(rows)
            f_idx, f_dist = _knn_compute(queries[rows], references, k)
            idx_out[rows] = f_idx
            dist_out[rows] = f_dist
        return idx_out, dist_out

    def _memo_ball(self, queries, references, radius: float, k: int, chain):
        self._stats.decomposed_calls += 1
        qpart, rpart, r_cov = self._float_tiles(queries, references)
        r_cov2 = r_cov * r_cov
        full_cover = r_cov >= radius
        idx_out = np.empty((len(queries), k), dtype=np.int64)
        fallback = []
        for key in qpart.keys():
            q_idx = qpart.indices(key)
            halo_digest, perm, hal = rpart.sorted_neighborhood(key, self.halo)
            if len(hal) == 0:
                fallback.append(q_idx)
                continue
            sub_key = content_digest(
                b"tile/ball", float(radius), int(k), self.tile_size, self.halo,
                qpart.digest(key), halo_digest, perm,
            )
            entry = chain.get(sub_key, "ball_query/tile", copy=False)
            if entry is None:
                self._stats._count("ball_query", hit=False)
                loc, in_radius, kth_sq = _ball_query_details(
                    queries[q_idx], references[hal], radius, k
                )
                if full_cover:
                    # Halo covers the query sphere: the in-radius candidate
                    # set (and its order, and the nearest-point pad) is the
                    # global one whenever it is non-empty.
                    cert = in_radius >= 1
                elif len(hal) >= k:
                    # Under-covering halo: exact when all k candidates sit
                    # within the covered bound (then they are the global
                    # top-k and all in radius).
                    cert = kth_sq <= r_cov2
                else:
                    cert = np.zeros(len(q_idx), dtype=bool)
                chain.put(sub_key, (loc, cert), "ball_query/tile", copy=False)
            else:
                self._stats._count("ball_query", hit=True)
                loc, cert = entry
            hit_rows = q_idx[cert]
            idx_out[hit_rows] = hal[loc[cert]]
            self._stats.certified_rows += len(hit_rows)
            if not cert.all():
                fallback.append(q_idx[~cert])
        if fallback:
            rows = np.concatenate(fallback)
            self._stats.fallback_rows += len(rows)
            f_idx, _, _ = _ball_query_details(queries[rows], references, radius, k)
            idx_out[rows] = f_idx
        return idx_out
