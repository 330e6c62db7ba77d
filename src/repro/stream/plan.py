"""Batched tile-front planner: plan / probe / execute for kNN and ball query.

The tile front (:mod:`repro.stream.incremental`) decomposes a kNN or
ball-query call into per-query-tile sub-problems.  Walking them one tile
at a time — fresh digest temporaries, a re-hashed sub-key and a chain
``get``/``put`` per tile — makes the Python toll dominate below ~200
points per tile.  This module runs the same decomposition, under the same
bit-identity contract, in three vectorized phases:

``plan``
    One pass builds every tile's probe: digests come from
    :meth:`~repro.stream.tiles.TilePartition.digest_all` (packed-buffer
    batch hashing), halo neighborhoods from the whole-partition sweep
    :meth:`~repro.stream.tiles.TilePartition.fill_neighborhoods`, and
    sub-keys by raw concatenation of a *versioned* prefix with the
    per-tile component digests — fixed width per op, no per-tile key
    hashing at all.  The version tag (:data:`_KEY_VERSION`) keeps this
    cache universe provably disjoint from the per-tile oracle's
    variable-width 16-byte ``content_digest`` keys: every serving key is
    longer than 16 bytes.

``probe``
    One ``get_many`` round trip through the chain
    (:meth:`repro.mapping.hooks.TieredLookup.get_many`) instead of one
    chain walk per tile.  A *whole-call* probe runs first: the result of
    a byte-identical previous call (a geometry-only replay, another shard
    presenting the same frame) is served outright, skipping
    decomposition entirely.

``execute``
    Only the missed tiles compute, and flow back in one ``put_many``.
    Each tile entry carries a per-row exactness certificate; rows whose
    certificate fails recompute against the whole reference cloud.

kNN and ball query share this skeleton and differ only in the tile
solver, the certificate rule and the output arrays (:data:`_OPS`).
Kernel maps and voxelize are sort-based, O(n log n) whole-cloud passes
that recompute faster than they decompose, so the front declines them
and they take the chain's whole-op digest path.  The per-tile loops
survive as :class:`~repro.stream.incremental.PerTileOracle` — the
reference the property suite compares against, not a serving mode.
"""

from __future__ import annotations

import hashlib
from typing import Callable, NamedTuple

import numpy as np

from ..mapping.ball_query import _ball_query_details
from ..mapping.hooks import batch_get, batch_put, current_tenant
from ..mapping.knn import _knn_compute
from ..obs.ledger import current_ledger
from ..obs.trace import span as _span
from .tiles import _DIGEST_SIZE, hash_part as _hash_part

__all__ = ["run_planned", "whole_key"]

#: Tile cache-universe version tag.  Every serving sub-key starts with it,
#: so a format change only has to bump the tag to retire the old universe;
#: and because it makes every key longer than the 16-byte digests the
#: per-tile oracle (and every whole-call probe) uses, new-format and
#: oracle keys can never collide.
_KEY_VERSION = b"T2"


# ----------------------------------------------------------------------
# Keys: versioned fixed-width tile keys + whole-call probes
# ----------------------------------------------------------------------


def _key_prefix(*parts) -> bytes:
    """The call-constant prefix of one op's fixed-width tile sub-keys.

    ``_KEY_VERSION`` + one digest over the version tag, the op tag and
    the parameters.  A tile's sub-key is this prefix concatenated with
    its 16-byte component digests — assembling a key is pure byte
    concatenation, hashed parts are hashed exactly once per call.
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    _hash_part(h, _KEY_VERSION)
    for part in parts:
        _hash_part(h, part)
    return _KEY_VERSION + h.digest()


def whole_key(op: str, arrays, params: dict) -> bytes:
    """Content key of one whole mapping call (the plan path's L0 probe)."""
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    _hash_part(h, b"tile/whole")
    _hash_part(h, op)
    for arr in arrays:
        _hash_part(h, np.asarray(arr))
    for name in sorted(params):
        _hash_part(h, name)
        _hash_part(h, params[name])
    return h.digest()


# ----------------------------------------------------------------------
# Chain access: the shared batch-or-per-key adapter, tile-entry regime
# (immutable sub-entries are composed from, never mutated: copy=False)
# ----------------------------------------------------------------------


def _get_many(chain, keys, op: str) -> list:
    return batch_get(chain, keys, op, copy=False)


def _put_many(chain, keys, values, op: str) -> None:
    batch_put(chain, keys, values, op, copy=False)


# ----------------------------------------------------------------------
# Recompute lineage: per-tile miss diagnosis for the ledger
# ----------------------------------------------------------------------

#: Spatial keys remembered per (op, params, tenant) family before the
#: diagnosis memory resets to cold (bounds a long drive's footprint).
_LEDGER_MEMORY_LIMIT = 65536


def _ledger_classify(ledger, front, op, family, tile_ids, miss) -> None:
    """Diagnose *why* each missed tile of one planned call recomputed.

    ``tile_ids`` carries ``(spatial_key, tile_digest, halo_digest)`` per
    planned tile, aligned with the probe's sub-keys; ``miss`` indexes the
    tiles whose chain probe came back empty.  Against the front's
    previous sighting of each spatial key (held per call family, so
    different params or tenants never cross-diagnose): an unseen key is
    ``cold``, a changed tile digest is ``digest_changed``, a changed halo
    digest on an unchanged tile is ``halo_moved``, and identical digests
    that still missed mean the entry was ``evicted`` from every tier.
    The memory refreshes from hits too — this function only *reads* cache
    state, so ledger-on runs stay bit-identical to ledger-off.
    """
    memory = front._ledger_memory.setdefault(family, {})
    causes: dict = {}
    for j in miss:
        skey, tile_digest, halo_digest = tile_ids[j]
        prev = memory.get(skey)
        if prev is None:
            cause = "recompute(cold)"
        elif prev[0] != tile_digest:
            cause = "recompute(digest_changed)"
        elif prev[1] != halo_digest:
            cause = "recompute(halo_moved)"
        else:
            cause = "recompute(evicted)"
        causes[cause] = causes.get(cause, 0) + 1
    if len(memory) + len(tile_ids) > _LEDGER_MEMORY_LIMIT:
        memory.clear()
    for skey, tile_digest, halo_digest in tile_ids:
        memory[skey] = (tile_digest, halo_digest)
    for cause, n in causes.items():
        ledger.tile(op, cause, n)


# ----------------------------------------------------------------------
# The two planned ops: tile solver + certificate, global row solver
# ----------------------------------------------------------------------


def _knn_tile(queries, halo_refs, params, r_cov):
    """kNN of one query tile against its sorted halo: ``(loc, dist, cert)``.

    A row is exact when its k-th local neighbor lies within the halo's
    coverage radius ``r_cov`` — every point outside the halo is farther.
    """
    k = params["k"]
    loc, dist = _knn_compute(queries, halo_refs, k)
    if len(halo_refs) >= k:
        cert = dist[:, k - 1] <= r_cov * r_cov
    else:
        cert = np.zeros(len(queries), dtype=bool)
    return loc, dist, cert


def _ball_tile(queries, halo_refs, params, r_cov):
    """Ball query of one query tile against its sorted halo: ``(loc, cert)``.

    With the halo covering the query sphere, the in-radius candidates
    (their order, and the nearest-point pad) are the global ones whenever
    at least one exists.  An under-covering halo is exact when all ``k``
    candidates sit within the covered bound: they are then the global
    top-k and all in radius.
    """
    radius, k = params["radius"], params["k"]
    loc, in_radius, kth_sq = _ball_query_details(queries, halo_refs, radius, k)
    if r_cov >= radius:
        cert = in_radius >= 1
    elif len(halo_refs) >= k:
        cert = kth_sq <= r_cov * r_cov
    else:
        cert = np.zeros(len(queries), dtype=bool)
    return loc, cert


def _knn_rows(queries, references, params):
    return _knn_compute(queries, references, params["k"])


def _ball_rows(queries, references, params):
    return _ball_query_details(queries, references, params["radius"],
                               params["k"])[:1]


class _Op(NamedTuple):
    """What one planned op adds to the shared skeleton."""

    tag: bytes             #: sub-key tag
    params: tuple          #: (name, cast) in sub-key order
    solve_tile: Callable   #: -> cache entry ``(loc, *columns, cert)``
    solve_rows: Callable   #: global recompute -> ``(idx, *columns)``
    dtypes: tuple          #: output dtypes, ``idx`` first


_OPS = {
    "knn": _Op(b"tile/knn", (("k", int),), _knn_tile, _knn_rows,
               (np.int64, np.float64)),
    "ball_query": _Op(b"tile/ball", (("radius", float), ("k", int)),
                      _ball_tile, _ball_rows, (np.int64,)),
}


def run_planned(front, chain, op: str, queries, references, params: dict):
    """Plan/probe/execute one kNN or ball-query call.

    Returns exactly what the reference op returns: ``(idx, dist)`` for
    kNN, ``idx`` for ball query — bit-identical to the per-tile oracle.
    """
    spec = _OPS[op]
    params = {name: cast(params[name]) for name, cast in spec.params}
    stats = front.stats()
    ledger = current_ledger()
    wkey = whole_key(op, (queries, references), params)
    with _span("probe", op=op, whole=True):
        whole = chain.get(wkey, op + "/whole", copy=True)
    stats._count(op + "/whole", whole is not None)
    if whole is not None:
        if ledger is not None:
            ledger.call(op, 0, cause="probe_hit")
        return whole
    with _span("plan", op=op) as plan_sp:
        qpart, rpart, r_cov = front._float_tiles(queries, references)
        q_digests = qpart.digest_all()
        pre = _key_prefix(spec.tag, *params.values(), front.tile_size,
                          front.halo)
        n_digests, n_flat, n_bounds = rpart.fill_neighborhoods(
            front.halo, qpart.unique_keys
        )
        tiles, sub_keys, fallback, tile_ids = [], [], [], []
        for i, key in enumerate(qpart.unique_keys.tolist()):
            q_idx = qpart.indices(key)
            canonical = n_flat[n_bounds[i]:n_bounds[i + 1]]
            if len(canonical) == 0:
                fallback.append(q_idx)
                continue
            perm_digest, hal = rpart.sorted_halo(key, front.halo, canonical)
            sub_keys.append(pre + q_digests[i] + n_digests[i] + perm_digest)
            tiles.append((q_idx, hal))
            if ledger is not None:
                tile_ids.append((key, q_digests[i], n_digests[i]))
        plan_sp.count("tiles", float(len(sub_keys)))
    if ledger is not None:
        ledger.call(op, len(sub_keys) + len(fallback))
        ledger.tile(op, "fallback(empty_halo)", len(fallback))
    with _span("probe", op=op) as probe_sp:
        entries = _get_many(chain, sub_keys, op + "/tile")
        miss = [j for j, e in enumerate(entries) if e is None]
        probe_sp.count("probes", float(len(entries)))
        probe_sp.count("misses", float(len(miss)))
    if ledger is not None:
        _ledger_classify(ledger, front, op, (pre, current_tenant()),
                         tile_ids, miss)
    with _span("execute", op=op) as exec_sp:
        for j in miss:
            q_idx, hal = tiles[j]
            entries[j] = spec.solve_tile(queries[q_idx], references[hal],
                                         params, r_cov)
        _put_many(chain, [sub_keys[j] for j in miss],
                  [entries[j] for j in miss], op + "/tile")
        exec_sp.count("computed", float(len(miss)))
    stats._count_many(op, hits=len(entries) - len(miss), misses=len(miss))
    k = params["k"]
    outs = [np.empty((len(queries), k), dtype=dtype) for dtype in spec.dtypes]
    rows_parts, idx_parts = [], []
    col_parts = [[] for _ in outs[1:]]
    for (q_idx, hal), (loc, *columns, cert) in zip(tiles, entries):
        hit_rows = q_idx[cert]
        if len(hit_rows):
            rows_parts.append(hit_rows)
            idx_parts.append(hal[loc[cert]])
            for parts, column in zip(col_parts, columns):
                parts.append(column[cert])
        if not cert.all():
            fallback.append(q_idx[~cert])
    if rows_parts:
        rows = np.concatenate(rows_parts)
        for out, parts in zip(outs, [idx_parts, *col_parts]):
            out[rows] = np.concatenate(parts)
        stats.certified_rows += len(rows)
    if fallback:
        rows = np.concatenate(fallback)
        stats.fallback_rows += len(rows)
        solved = spec.solve_rows(queries[rows], references, params)
        for out, column in zip(outs, solved):
            out[rows] = column
    result = tuple(outs) if len(outs) > 1 else outs[0]
    chain.put(wkey, result, op + "/whole", copy=True)
    return result
