"""Ball query: k nearest neighbors constrained to a radius.

Paper Section 2.1.2: "ball query further requires these points to lie in the
sphere of radius r, i.e. ||p - q||^2 <= r".  PointNet++ pads groups that have
fewer than ``k`` in-radius neighbors by repeating the first found neighbor,
so every output group has exactly ``k`` maps — we reproduce that convention
(it determines gather traffic, which the cost models consume).

The answer is defined on the one-GEMM distance matrix
(:func:`~repro.pointcloud.coords.pairwise_squared_distance`), and
:func:`ball_query_bruteforce` sorts its rows.  :func:`ball_query_indices`
reaches the same answer without the matrix: a 3-D query takes its
candidates from a cell index of the references whose cells are wider than
the radius (PointAcc ranks packed keys for every mapping op, Fig. 8), and
decides from their direct distances wherever the GEMM error bound settles
the decision.  A row it cannot settle -- a distance within the bound of
``r^2`` or of another candidate's (ties, duplicates), or an empty ball --
is finished on its own row of the one GEMM, as is every row of a cloud
whose grid does not pack or that is not 3-D, and of a call too small, or
with blocks too dense, to pay for its cells.
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

__all__ = ["ball_query_bruteforce", "ball_query_indices", "ball_query_maps"]

#: What the cell path costs, in units of the one-GEMM path's cost per
#: query-reference pair (~10 ns on 2 vCPUs): a fixed part, then a part per
#: candidate pair (measured 3.6-4.6; 6 leaves room for rows that fall back
#: after all).  A call takes the cells only when that is below its pair
#: count.  Measured on PointNet++ frames and dataset clouds: 64 x 256
#: pairs 0.16 ms on the GEMM vs 0.35 on the cells, 256 x 1022 pairs 2.1 vs
#: 0.8 ms; r = 0.4 on a unit-scale ShapeNet object (half of all pairs are
#: candidates) 41 vs 75 ms; sa1 on a lidar cloud with every third point
#: repeated (a fifth of all pairs are candidates, nine rows in ten tie)
#: 104 vs 207 ms.
_CELL_FIXED = 1 << 15
_CELL_PER_PAIR = 6


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
    """The cell path for every row it settles, the one GEMM for the rest."""
    r2 = radius * radius
    result = np.empty((len(queries), k), dtype=np.int64)
    rest = _ball_query_cells(queries, references, r2, k, result)
    for sel, block in squared_distance_rows(queries, references, rest):
        result[sel] = _ball_query_block(block, r2, k)
    return result


def _ball_query_cells(
    queries: np.ndarray,
    references: np.ndarray,
    r2: float,
    k: int,
    result: np.ndarray,
) -> np.ndarray:
    """Fill ``result``'s rows that a one-level cell index settles; return
    the rest.

    The cells are wider than ``sqrt(r^2 + 2 Delta_max)``, so every
    reference outside a query's 3x3x3 block is certainly out of radius
    (each row's ``floor`` is checked, not assumed).  A candidate is in
    radius when ``hi <= r^2`` and out when ``lo > r^2``; anything between
    unsettles its row.  The in-radius pairs are ordered by ``e`` (a row
    with more than ``k + 1`` first drops those beyond its ``k+1``-th
    smallest), and every consecutive pair up to the ``k``-th and the
    ``k+1``-th must be separated (``hi`` below the next ``lo``): then their
    one-GEMM distances are strictly increasing, so the order and the cut
    are the brute force's whatever the index tie-break.
    """
    n = len(queries)
    every = np.arange(n)
    budget = (n * len(references) - _CELL_FIXED) // _CELL_PER_PAIR
    if queries.shape[1] != 3 or budget < n:  # a settled row has a pair
        return every
    # ||p||^2 <= 3 max|coordinate|^2 for every point of either cloud.
    norm_max = 3.0 * max(np.abs(queries).max(), np.abs(references).max()) ** 2
    delta_max = gemm_error_bound(norm_max, norm_max, r2)
    cells = cell_candidates(queries, references,
                            np.sqrt(r2 + 2.0 * delta_max) * (1.0 + 2.0 ** -20),
                            budget)
    if cells is None:
        return every
    lo, hi = cells.bounds(slice(None))
    inside = hi <= r2
    unsettled = np.zeros(n, dtype=bool)
    unsettled[cells.rows[~inside & (lo <= r2)]] = True
    unsettled |= cells.floor <= r2
    pairs = np.flatnonzero(inside)
    rows = cells.rows[pairs]
    counts = np.bincount(rows, minlength=n)
    unsettled |= counts == 0  # an empty ball takes the nearest point
    dense = np.flatnonzero(counts > k + 1)
    if len(dense):
        # A dense row needs only its k + 1 nearest, ties kept: cut it at
        # its (k+1)-th smallest e, from one padded row per dense query.
        e = cells.e[pairs]
        slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        which = np.full(n, -1)
        which[dense] = np.arange(len(dense))
        mine = which[rows] >= 0
        padded = np.full((len(dense), counts[dense].max()), np.inf)
        padded[which[rows[mine]], slot[mine]] = e[mine]
        cut = np.full(n, np.inf)
        cut[dense] = np.partition(padded, k, axis=1)[:, k]
        near = e <= cut[rows]
        pairs, rows = pairs[near], rows[near]
        counts = np.bincount(rows, minlength=n)
    order = np.lexsort((cells.e[pairs], rows))
    pairs, rows = pairs[order], rows[order]
    cols, lo, hi = cells.refs(pairs), lo[pairs], hi[pairs]
    rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    close = (rank[1:] > 0) & (rank[1:] <= k) & (hi[:-1] >= lo[1:])
    unsettled[rows[1:][close]] = True
    # Settled rows: the nearest pick fills the row, then the picks go in.
    settled = ~unsettled[rows]
    nearest = settled & (rank == 0)
    result[rows[nearest]] = cols[nearest, None]
    keep = settled & (rank < k)
    result[rows[keep], rank[keep]] = cols[keep]
    return np.flatnonzero(unsettled)


def _ball_query_block(block: np.ndarray, r2: float, k: int) -> np.ndarray:
    """Ball query from a row block's in-radius pairs, never a whole row.

    A row with more than ``k`` pairs first drops every pair farther than
    its ``k``-th smallest distance (ties at that distance stay), so the
    sort sees at most ``k`` pairs per row plus ties -- the MPU's TopK
    truncation.  The pairs are then ordered by (row, distance, index) --
    ``nonzero`` lists a row's columns ascending and ``lexsort`` is stable
    -- and each row keeps its first ``k``, which is
    :func:`ball_query_bruteforce`'s answer.
    """
    out = np.empty((len(block), k), dtype=np.int64)
    col = np.arange(k)
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
    return np.where(col < filled[:, None], out, out[:, :1])


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
