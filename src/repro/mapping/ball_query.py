"""Ball query: k nearest neighbors constrained to a radius.

Paper Section 2.1.2: "ball query further requires these points to lie in the
sphere of radius r, i.e. ||p - q||^2 <= r".  PointNet++ pads groups that have
fewer than ``k`` in-radius neighbors by repeating the first found neighbor,
so every output group has exactly ``k`` maps — we reproduce that convention
(it determines gather traffic, which the cost models consume).
"""

from __future__ import annotations

import numpy as np

from ..pointcloud.coords import pairwise_squared_distance, squared_distance_blocks
from .maps import MapTable

__all__ = ["ball_query_bruteforce", "ball_query_indices", "ball_query_maps"]


def ball_query_indices(
    queries: np.ndarray,
    references: np.ndarray,
    radius: float,
    k: int,
) -> np.ndarray:
    """For each query, indices of up to ``k`` in-radius refs, padded to ``k``.

    Neighbors are taken in increasing-distance order (stable).  A query with
    no in-radius neighbor falls back to its nearest reference (the reference
    implementation's behaviour), so groups are never empty.

    Never mutates either input; the returned array is freshly owned by the
    caller.
    """
    queries = np.asarray(queries, dtype=np.float64)
    references = np.asarray(references, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if len(references) == 0:
        raise ValueError("ball query with empty reference cloud")
    return _ball_query_compute(queries, references, radius, k)


def _ball_query_compute(
    queries: np.ndarray,
    references: np.ndarray,
    radius: float,
    k: int,
) -> np.ndarray:
    """Ball query from each row block's in-radius pairs, never a whole row.

    A row with more than ``k`` pairs first drops every pair farther than
    its ``k``-th smallest distance (ties at that distance stay), so the
    sort sees at most ``k`` pairs per row plus ties -- the MPU's TopK
    truncation.  The pairs are then ordered by (row, distance, index) --
    ``nonzero`` lists a row's columns ascending and ``lexsort`` is stable
    -- and each row keeps its first ``k``, which is
    :func:`ball_query_bruteforce`'s answer.
    """
    r2 = radius * radius
    result = np.empty((len(queries), k), dtype=np.int64)
    col = np.arange(k)
    for lo, block in squared_distance_blocks(queries, references):
        out = result[lo:lo + len(block)]
        rows, cols = np.nonzero(block <= r2)
        dist = block[rows, cols]
        dense = np.flatnonzero(np.bincount(rows, minlength=len(block)) > k)
        if len(dense):
            # A dense row's k smallest distances are all in radius, so its
            # k-th smallest over the whole row is its cut.
            cut = np.full(len(block), r2)
            cut[dense] = np.partition(block[dense], k - 1, axis=1)[:, k - 1]
            near = dist <= cut[rows]
            rows, cols, dist = rows[near], cols[near], dist[near]
        order = np.lexsort((dist, rows))
        rows, cols = rows[order], cols[order]
        counts = np.bincount(rows, minlength=len(block))
        rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        keep = rank < k
        out[rows[keep], rank[keep]] = cols[keep]
        # Nothing in radius: the nearest reference.  Every short row is
        # then padded with its first (nearest) neighbour.
        empty = counts == 0
        out[empty, 0] = block[empty].argmin(axis=1)
        filled = np.clip(counts, 1, k)
        out[:] = np.where(col < filled[:, None], out, out[:, :1])
    return result


def ball_query_bruteforce(
    queries: np.ndarray,
    references: np.ndarray,
    radius: float,
    k: int,
) -> np.ndarray:
    """Reference ball query: lexsort every full row, keep the first k.

    Same contract as :func:`ball_query_indices` (no cache consulted); the
    property suite pins the pair-selection kernel to it.
    """
    sq = pairwise_squared_distance(queries, references)
    n_ref = sq.shape[1]
    k_eff = min(k, n_ref)
    order = np.lexsort((np.broadcast_to(np.arange(n_ref), sq.shape), sq), axis=1)
    candidates = order[:, :k_eff]
    sorted_sq = np.take_along_axis(sq, candidates, axis=1)
    # Candidates are distance-ascending, so in-radius flags form a prefix of
    # each row; count the prefix and pad the tail with the nearest point
    # (also the fallback when no candidate is in radius).
    counts = np.maximum((sorted_sq <= radius * radius).sum(axis=1), 1)
    col = np.arange(k_eff)[None, :]
    result = np.where(col < counts[:, None], candidates, candidates[:, :1])
    if k_eff < k:
        pad = np.repeat(result[:, :1], k - k_eff, axis=1)
        result = np.concatenate([result, pad], axis=1)
    return result.astype(np.int64)


def ball_query_maps(
    queries: np.ndarray, references: np.ndarray, radius: float, k: int
) -> MapTable:
    """Ball query as a :class:`MapTable` (weight index = neighbor rank)."""
    idx = ball_query_indices(queries, references, radius, k)
    n_q = len(idx)
    out_idx = np.repeat(np.arange(n_q, dtype=np.int64), k)
    weight_idx = np.tile(np.arange(k, dtype=np.int64), n_q)
    return MapTable(idx.ravel(), out_idx, weight_idx, kernel_volume=k)
