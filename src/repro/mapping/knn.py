"""k-nearest-neighbor search producing map tables.

Paper Section 2.1.2: for each output point, the top-k nearest input points
are selected; the n-th neighbor is multiplied with weight w_n, so the weight
index of a map is the neighbor's rank.  The MPU implements this as a TopK
ranking kernel (Fig. 8c) that keeps only the k best of each row.

The answer is defined on the one-GEMM distance matrix
(:func:`~repro.pointcloud.coords.pairwise_squared_distance`) with index as
tie-breaker, and :func:`knn_bruteforce` sorts its rows.
:func:`knn_indices` reaches the same answer without the matrix: a 3-D
query takes the ``k + 1`` smallest of its candidates from a cell index of
the references, and keeps them when the GEMM error bound separates
consecutive picks and puts the ``k``-th below every reference outside the
probed cells.  A row whose ``k``-th pick lies beyond that clearance is
retried on cells twice as wide; a row with picks within the bound of each
other (ties, duplicates) is selected from its own row of the one GEMM, as
is every row of a cloud whose grid does not pack or that is not 3-D
(DGCNN's feature-space kNN), and of a call too small, or a level too
dense, to pay for its cells.
"""

from __future__ import annotations

import numpy as np

from ..pointcloud.coords import (
    cell_candidates,
    gemm_error_bound,
    pairwise_squared_distance,
    squared_distance_rows,
)
from .maps import MapTable

__all__ = ["knn_bruteforce", "knn_indices", "knn_maps"]

#: Queries whose distances size the first cells of :func:`_knn_cells`.
_SAMPLE_QUERIES = 16

#: What the cell levels cost, in units of the one-GEMM path's cost per
#: query-reference pair (~5 ns on 2 vCPUs): a fixed part for the call (its
#: first cell size and levels), then a part per candidate pair.  A level
#: runs only when that is below its rows' pair count.  Measured on
#: PointNet++ frames: 2048 x 512 pairs 5.5 ms on the GEMM vs 6.9 on the
#: cells, 2048 x 1024 pairs 11.0 vs 6.0 ms.
_CELL_FIXED = 1 << 18
_CELL_PER_PAIR = 16


def knn_indices(
    queries: np.ndarray, references: np.ndarray, k: int
) -> np.ndarray:
    """For each query, the indices of its k nearest refs, ``(len(queries), k)``.

    Neighbors are ordered by increasing distance with index as tie-breaker
    (so results are deterministic and match a stable hardware sort).  If
    fewer than ``k`` references exist, the available ones are repeated to
    pad the last column (mirroring the PointNet++ reference
    implementation's behaviour of reusing the nearest point).  A caller
    that needs the distances reads them with
    :func:`~repro.pointcloud.coords.squared_distances_at`.

    Never mutates either input; the returned array is freshly owned by the
    caller (no view of internals).
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
) -> np.ndarray:
    """The cell path for every row it settles, the one GEMM for the rest."""
    k_eff = min(k, len(references))
    idx = np.empty((len(queries), k), dtype=np.int64)
    rest = _knn_cells(queries, references, k_eff, idx)
    for sel, block in squared_distance_rows(queries, references, rest):
        idx[sel, :k_eff] = _knn_block(block, k_eff)
    # Fewer than k references: repeat the nearest.
    idx[:, k_eff:] = idx[:, :1]
    return idx


def _knn_cells(
    queries: np.ndarray, references: np.ndarray, k: int, idx: np.ndarray
) -> np.ndarray:
    """Fill ``idx[:, :k]`` for the rows a cell index settles; return the
    rest, ascending.

    Each level takes every open row's ``k`` candidates of smallest ``e``
    and the next one's ``lo``.  Consecutive picks must be separated (``hi``
    below the next ``lo``), which makes their one-GEMM distances strictly
    increasing and every other candidate's larger still, and the ``k``-th
    pick's ``hi`` must be below the row's ``floor``, which no reference
    outside the block can undercut.  A row that fails the first goes to
    the GEMM (more cells cannot separate it); a row that fails the second,
    or has fewer than ``k`` candidates, goes to the next level, whose cells
    are twice as wide.  Once a block holds every reference its floor is
    infinite, so the levels end.  A call whose first level would cost more
    than the GEMM (``_CELL_FIXED``, ``_CELL_PER_PAIR``), or a later level
    whose candidates would, leaves its rows to the GEMM.
    """
    todo = np.arange(len(queries))
    if queries.shape[1] != 3:
        return todo
    fixed, size, rest = _CELL_FIXED, None, []
    while len(todo):
        budget = (len(todo) * len(references) - fixed) // _CELL_PER_PAIR
        if budget < len(todo) * k:  # a settled row has k pairs at least
            break
        if size is None:
            size = _first_cell_size(queries, references, k)
        cells = cell_candidates(queries[todo], references, size, budget)
        if cells is None:
            break
        fixed = 0  # paid: a later level beats building the GEMM for its rows
        ready = cells.counts >= k
        picks, cut = _smallest(cells, ready, k)
        lo, hi = cells.bounds(picks)
        separated = (hi[:, :-1] < lo[:, 1:]).all(axis=1) & (hi[:, -1] < cut)
        done = separated & (hi[:, -1] < cells.floor[ready])
        mine = todo[ready]
        idx[mine[done], :k] = cells.refs(picks[done])
        rest.append(mine[~separated])
        todo = np.concatenate([todo[~ready], mine[separated & ~done]])
        size *= 2.0
    rest.append(todo)
    return np.sort(np.concatenate(rest))


def _smallest(cells, ready: np.ndarray, k: int):
    """The ``k`` smallest-``e`` pairs of each ``ready`` query (each with at
    least ``k`` pairs): their positions, ascending, and the ``lo`` of the
    query's next smallest (``inf`` when it has no other pair).

    ``k`` ``minimum.reduceat`` passes each take a query's smallest
    remaining ``e`` (the first one when several are equal -- those fail
    the separation anyway); one more finds the next value.
    """
    counts = cells.counts[ready]
    if ready.all():
        e, offset, segment = cells.e.copy(), None, cells.rows
    else:
        keep = np.repeat(ready, cells.counts)
        e, offset = cells.e[keep], np.flatnonzero(keep)
        segment = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    picks = np.empty((len(counts), k), dtype=np.int64)
    for j in range(k):
        least = np.minimum.reduceat(e, starts)
        hits = np.flatnonzero(e == least[segment])
        picks[:, j] = hits[np.searchsorted(hits, starts)]
        e[picks[:, j]] = np.inf
    least = np.minimum.reduceat(e, starts)
    cut = np.full(len(counts), np.inf)
    more = np.isfinite(least)
    cut[more] = least[more] - gemm_error_bound(cells.q_sq[ready][more],
                                               cells.r_sq_max, least[more])
    return (picks if offset is None else offset[picks]), cut


def _first_cell_size(
    queries: np.ndarray, references: np.ndarray, k: int
) -> float:
    """The upper-quartile ``k``-th nearest distance of a few evenly spaced
    queries, by direct distances: the block's faces are at least that far
    from every query, so about three rows in four settle at the first
    level.  Never below 2^-19 of the span of all coordinates, so the
    levels are few; 1 when every point coincides."""
    step = max(1, len(queries) // _SAMPLE_QUERIES)
    sample = queries[::step][:_SAMPLE_QUERIES]
    e = sum((s[:, None] - r[None, :]) ** 2
            for s, r in zip(sample.T, references.T))
    kth = np.partition(e, k - 1, axis=1)[:, k - 1]
    span = (max(queries.max(), references.max())
            - min(queries.min(), references.min()))
    size = max(float(np.sqrt(np.percentile(kth, 75))),
               float(span) * 2.0 ** -19)
    return size if size > 0 and np.isfinite(size) else 1.0


def _knn_block(block: np.ndarray, k: int) -> np.ndarray:
    """The k nearest by k ``argmin`` passes over a row block of distances.

    ``argmin`` returns the lowest index among equal minima, and each pick
    is masked with +inf before the next pass, so the picks come out in
    :func:`knn_bruteforce`'s (distance, index) order -- a selection, as in
    the MPU's TopK, not a sort of the whole row.
    """
    rows = np.arange(len(block))
    out = np.empty((len(block), k), dtype=np.int64)
    for j in range(k):
        col = block.argmin(axis=1)
        out[:, j] = col
        block[rows, col] = np.inf
    return out


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
    idx = knn_indices(queries, references, k)
    n_q = len(idx)
    out_idx = np.repeat(np.arange(n_q, dtype=np.int64), k)
    weight_idx = np.tile(np.arange(k, dtype=np.int64), n_q)
    return MapTable(idx.ravel(), out_idx, weight_idx, kernel_volume=k)
