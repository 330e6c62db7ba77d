"""k-nearest-neighbor search producing map tables.

Paper Section 2.1.2: for each output point, the top-k nearest input points
are selected; the n-th neighbor is multiplied with weight w_n, so the weight
index of a map is the neighbor's rank.  The MPU implements this as a TopK
ranking kernel (Fig. 8c) that keeps only the k best of each row; this
module selects the same way, and keeps the full-row sort as
:func:`knn_bruteforce`.
"""

from __future__ import annotations

import numpy as np

from ..pointcloud.coords import pairwise_squared_distance, squared_distance_blocks
from .maps import MapTable

__all__ = ["knn_bruteforce", "knn_indices", "knn_maps"]


def knn_indices(
    queries: np.ndarray, references: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """For each query, indices and squared distances of its k nearest refs.

    Returns ``(idx, sq_dist)`` of shape ``(len(queries), k)``; neighbors are
    ordered by increasing distance with index as tie-breaker (so results are
    deterministic and match a stable hardware sort).  If fewer than ``k``
    references exist, the available ones are repeated to pad the last column
    (mirroring the PointNet++ reference implementation's behaviour of reusing
    the nearest point).

    Never mutates either input; both returned arrays are freshly owned by
    the caller (no views of internals).
    """
    queries = np.asarray(queries, dtype=np.float64)
    references = np.asarray(references, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(references) == 0:
        raise ValueError("knn with empty reference cloud")
    return _knn_compute(queries, references, k)


def _knn_compute(
    queries: np.ndarray, references: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest by k ``argmin`` passes per row block of distances.

    ``argmin`` returns the lowest index among equal minima, and each pick
    is masked with +inf before the next pass, so the picks come out in
    :func:`knn_bruteforce`'s (distance, index) order -- a selection, as in
    the MPU's TopK, not a sort of the whole row.
    """
    k_eff = min(k, len(references))
    idx = np.empty((len(queries), k), dtype=np.int64)
    dist = np.empty((len(queries), k), dtype=np.float64)
    for lo, block in squared_distance_blocks(queries, references):
        hi = lo + len(block)
        rows = np.arange(len(block))
        for j in range(k_eff):
            col = block.argmin(axis=1)
            idx[lo:hi, j] = col
            dist[lo:hi, j] = block[rows, col]
            block[rows, col] = np.inf
    # Fewer than k references: repeat the nearest.
    idx[:, k_eff:] = idx[:, :1]
    dist[:, k_eff:] = dist[:, :1]
    return idx, dist


def knn_bruteforce(
    queries: np.ndarray, references: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference kNN: lexsort every full row by (distance, index), keep k.

    Same contract as :func:`knn_indices` (no cache consulted); the
    property suite pins the selection kernel to it.
    """
    sq = pairwise_squared_distance(queries, references)
    n_ref = sq.shape[1]
    k_eff = min(k, n_ref)
    order = np.lexsort((np.broadcast_to(np.arange(n_ref), sq.shape), sq), axis=1)
    idx = np.ascontiguousarray(order[:, :k_eff])
    dist = np.take_along_axis(sq, idx, axis=1)
    if k_eff < k:
        pad = k - k_eff
        idx = np.concatenate([idx, np.repeat(idx[:, :1], pad, axis=1)], axis=1)
        dist = np.concatenate([dist, np.repeat(dist[:, :1], pad, axis=1)], axis=1)
    return idx, dist


def knn_maps(queries: np.ndarray, references: np.ndarray, k: int) -> MapTable:
    """kNN as a :class:`MapTable`: weight index = neighbor rank (0..k-1)."""
    idx, _ = knn_indices(queries, references, k)
    n_q = len(idx)
    out_idx = np.repeat(np.arange(n_q, dtype=np.int64), k)
    weight_idx = np.tile(np.arange(k, dtype=np.int64), n_q)
    return MapTable(idx.ravel(), out_idx, weight_idx, kernel_volume=k)
