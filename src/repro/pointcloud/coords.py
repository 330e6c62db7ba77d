"""Coordinate math for sparse point clouds.

Point cloud networks operate on integer voxel coordinates (SparseConv-based
models) or floating-point coordinates (PointNet++-based models).  This module
provides the coordinate-level primitives the rest of the library builds on:

* lexicographic ordering / ranking keys (the ordering the Mapping Unit's
  sorting networks compare on),
* coordinate quantization (the SparseConv downsampling rule
  ``q = floor(p / ts) * ts`` from paper Section 2.1.1),
* deduplication of voxelized clouds,
* kernel-offset enumeration for D-dimensional convolution neighborhoods.

All functions are pure and operate on ``(N, D)`` numpy arrays.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

__all__ = [
    "lexicographic_order",
    "lexicographic_sort",
    "coords_to_keys",
    "key_deltas",
    "keys_to_coords",
    "quantize",
    "quantize_unique",
    "voxelize",
    "unique_coords",
    "kernel_offsets",
    "pairwise_squared_distance",
    "squared_distance_blocks",
    "squared_distance_rows",
    "squared_distances_at",
    "squared_distance_to_set",
    "direct_squared_distance",
    "gemm_error_bound",
    "CellCandidates",
    "cell_candidates",
    "bounding_box",
]

# Coordinates are packed into a single int64 ranking key so that hardware
# comparators (and numpy sorts) can compare a point with one operation.  The
# paper's Mapping Unit compares concatenated coordinate fields the same way
# (Figure 7: "Key: Coords").  21 bits per axis covers +/- 2^20 voxels.
_KEY_BITS_PER_AXIS = 21
_KEY_AXIS_MASK = (1 << _KEY_BITS_PER_AXIS) - 1
_KEY_OFFSET = 1 << (_KEY_BITS_PER_AXIS - 1)


def _as_coord_array(coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords)
    if coords.ndim != 2:
        raise ValueError(f"coords must be (N, D), got shape {coords.shape}")
    return coords


def lexicographic_order(coords: np.ndarray) -> np.ndarray:
    """Return the permutation that sorts ``coords`` lexicographically.

    The first axis is the most significant, matching the ordering obtained by
    comparing packed keys from :func:`coords_to_keys`.
    """
    coords = _as_coord_array(coords)
    # np.lexsort sorts by the *last* key first, so reverse the column order.
    return np.lexsort(tuple(coords[:, d] for d in reversed(range(coords.shape[1]))))


def lexicographic_sort(coords: np.ndarray) -> np.ndarray:
    """Return ``coords`` sorted lexicographically (row-wise)."""
    return _as_coord_array(coords)[lexicographic_order(coords)]


def coords_to_keys(coords: np.ndarray) -> np.ndarray:
    """Pack integer coordinates into int64 ranking keys.

    Keys preserve lexicographic order: ``key(a) < key(b)`` iff ``a`` precedes
    ``b`` lexicographically.  Raises if a coordinate does not fit in the
    per-axis field.
    """
    coords = _as_coord_array(coords).astype(np.int64)
    ndim = coords.shape[1]
    if ndim * _KEY_BITS_PER_AXIS > 63:
        raise ValueError(f"cannot pack {ndim} axes of {_KEY_BITS_PER_AXIS} bits into int64")
    shifted = coords + _KEY_OFFSET
    if np.any(shifted < 0) or np.any(shifted > _KEY_AXIS_MASK):
        raise ValueError("coordinate out of packable range for ranking key")
    keys = np.zeros(len(coords), dtype=np.int64)
    for d in range(ndim):
        keys = (keys << _KEY_BITS_PER_AXIS) | shifted[:, d]
    return keys


def key_deltas(offsets: np.ndarray) -> np.ndarray:
    """Packed-key shift of each offset row.

    The per-axis fields of :func:`coords_to_keys` add without carries, so
    ``coords_to_keys(p + delta) == coords_to_keys(p) + key_deltas(delta)``
    whenever ``p`` and ``p + delta`` are both packable.  Computed by
    arithmetic, not packing: ``delta`` itself need not be packable.
    """
    offsets = _as_coord_array(offsets).astype(np.int64)
    ndim = offsets.shape[1]
    shifts = np.array(
        [1 << (_KEY_BITS_PER_AXIS * (ndim - 1 - d)) for d in range(ndim)],
        dtype=np.int64,
    )
    return offsets @ shifts


def keys_to_coords(keys: np.ndarray, ndim: int) -> np.ndarray:
    """Invert :func:`coords_to_keys`."""
    keys = np.asarray(keys, dtype=np.int64)
    coords = np.empty((len(keys), ndim), dtype=np.int64)
    for d in reversed(range(ndim)):
        coords[:, d] = (keys & _KEY_AXIS_MASK) - _KEY_OFFSET
        keys = keys >> _KEY_BITS_PER_AXIS
    return coords


def quantize(coords: np.ndarray, tensor_stride: int) -> np.ndarray:
    """Quantize coordinates to a coarser grid: ``floor(p / ts) * ts``.

    This is the SparseConv output-cloud construction rule (paper
    Section 2.1.1): after ``k`` downsamplings the tensor stride is ``2**k``
    and the low ``log2(ts)`` bits of every coordinate are cleared.
    """
    if tensor_stride < 1:
        raise ValueError(f"tensor_stride must be >= 1, got {tensor_stride}")
    coords = _as_coord_array(coords).astype(np.int64)
    return np.floor_divide(coords, tensor_stride) * tensor_stride


def unique_coords(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate coordinates, keeping lexicographic order.

    Returns ``(unique, inverse)`` where ``unique[inverse[i]] == coords[i]``.
    """
    coords = _as_coord_array(coords).astype(np.int64)
    keys = coords_to_keys(coords)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    return keys_to_coords(unique_keys, coords.shape[1]), inverse


def quantize_unique(coords: np.ndarray, tensor_stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantize then deduplicate: the full downsampled output cloud.

    Returns ``(out_coords, inverse)`` with ``out_coords`` sorted
    lexicographically and ``inverse`` mapping each input point to its output
    voxel.
    """
    return unique_coords(quantize(coords, tensor_stride))


def voxelize(
    points: np.ndarray, voxel_size: float
) -> tuple[np.ndarray, np.ndarray]:
    """Map continuous points to integer voxel coordinates.

    Returns ``(voxel_coords, inverse)`` where ``voxel_coords`` are the unique
    occupied voxels (sorted) and ``inverse`` maps each point to its voxel.
    """
    if voxel_size <= 0:
        raise ValueError(f"voxel_size must be positive, got {voxel_size}")
    points = np.asarray(points, dtype=np.float64)
    grid = np.floor(points / voxel_size).astype(np.int64)
    return unique_coords(grid)


def kernel_offsets(kernel_size: int, ndim: int = 3) -> np.ndarray:
    """Enumerate the weight offsets of a D-dim convolution kernel.

    For ``kernel_size=3, ndim=3`` this is the 27 offsets in ``{-1,0,1}^3``
    (paper Section 2.1.2), ordered lexicographically so offset index equals
    weight index.
    """
    if kernel_size < 1:
        raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
    half = (kernel_size - 1) // 2
    lo = -half
    hi = kernel_size - half - 1
    axes = [range(lo, hi + 1)] * ndim
    return np.array(list(itertools.product(*axes)), dtype=np.int64)


#: Bytes of the distance matrix finished per row block: small enough that a
#: block is still in cache when the neighbour kernels select from it.
_BLOCK_BYTES = 2 << 20


def _distance_operands(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a @ b.T, np.sum(a * a, axis=1), np.sum(b * b, axis=1)


def _block_rows(n_cols: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * max(1, n_cols)))


def _finish(block: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray,
            norms: np.ndarray) -> None:
    """Turn rows of the GEMM into squared distances in place:
    ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b``, clipped for float error."""
    np.add(a_sq[:, None], b_sq[None, :], out=norms)
    block *= 2.0
    np.subtract(norms, block, out=block)
    np.maximum(block, 0.0, out=block)


def _finish_blocks(gram: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray):
    """Turn ``gram`` into squared distances in place, one row block at a
    time, yielding ``(lo, block)`` as each block is done.

    The GEMM is always the one whole ``a @ b.T``: a sub-block GEMM may
    round differently in the last ulp, the elementwise tail never does.
    """
    step = _block_rows(gram.shape[1])
    norms = np.empty((min(step, len(gram)), gram.shape[1]))
    for lo in range(0, len(gram), step):
        block = gram[lo:lo + step]
        _finish(block, a_sq[lo:lo + step], b_sq, norms[:len(block)])
        yield lo, block


def pairwise_squared_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between two point sets, shape (|a|, |b|)."""
    gram, a_sq, b_sq = _distance_operands(a, b)
    for _ in _finish_blocks(gram, a_sq, b_sq):
        pass
    return gram


def squared_distance_blocks(a: np.ndarray, b: np.ndarray):
    """:func:`pairwise_squared_distance` handed out one row block at a time.

    Yields ``(lo, block)``, ``block`` being rows ``lo:lo + len(block)`` of
    the matrix, bit for bit, while it is still in cache.  Blocks are views
    of one private buffer, so the caller may overwrite them.
    """
    return _finish_blocks(*_distance_operands(a, b))


def squared_distance_rows(a: np.ndarray, b: np.ndarray, rows: np.ndarray):
    """Only rows ``rows`` (ascending, distinct) of
    :func:`pairwise_squared_distance`, bit for bit, one block at a time.

    Yields ``(sel, block)``, ``block`` holding the matrix rows ``sel`` (a
    piece of ``rows``); the caller may overwrite it.  The GEMM is the one
    whole ``a @ b.T``, built on the first ``next`` and not at all when
    ``rows`` is empty; only the rows asked for get the elementwise tail.
    """
    if len(rows) == 0:
        return
    gram, a_sq, b_sq = _distance_operands(a, b)
    if len(rows) == len(gram):
        for lo, block in _finish_blocks(gram, a_sq, b_sq):
            yield rows[lo:lo + len(block)], block
        return
    step = _block_rows(gram.shape[1])
    norms = np.empty((min(step, len(rows)), gram.shape[1]))
    for lo in range(0, len(rows), step):
        sel = rows[lo:lo + step]
        block = gram[sel]
        _finish(block, a_sq[sel], b_sq, norms[:len(block)])
        yield sel, block


def squared_distances_at(a: np.ndarray, b: np.ndarray,
                         idx: np.ndarray) -> np.ndarray:
    """``pairwise_squared_distance(a, b)[i, idx[i, j]]`` for every ``i, j``,
    bit for bit: the one whole GEMM, finished only at the picks."""
    gram, a_sq, b_sq = _distance_operands(a, b)
    idx = np.asarray(idx, dtype=np.int64)
    picked = gram[np.arange(len(idx))[:, None], idx]
    out = a_sq[:, None] + b_sq[idx]
    out -= 2.0 * picked
    np.maximum(out, 0.0, out=out)
    return out


def direct_squared_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances of row-aligned pairs ``(a[i], b[i])``, straight from
    the coordinate differences: no GEMM, so no cancellation against the
    norms, only a relative error of a few ulp."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _sum_of_squares(a_d - b_d for a_d, b_d in zip(a.T, b.T))


def _sum_of_squares(columns) -> np.ndarray:
    """``sum_d c_d^2`` over freshly made columns, squared in place.  Working
    a coordinate column at a time is several times faster than on rows."""
    out = None
    for column in columns:
        np.multiply(column, column, out=column)
        if out is None:
            out = column
        else:
            out += column
    return out


#: Machine epsilon of float64, the unit of :func:`gemm_error_bound`.
_EPS = float(np.finfo(np.float64).eps)


def gemm_error_bound(a_sq, b_sq, direct):
    """``Delta`` with ``|pairwise_squared_distance(a, b) - e| <= Delta`` for
    3-D points ``a``, ``b``, ``e`` their :func:`direct_squared_distance`:
    ``16 eps (||a||^2 + ||b||^2) + 8 eps e``.

    ``a_sq``, ``b_sq`` are the squared norms (``np.sum(a * a, axis=1)``).
    The one-GEMM distance rounds the two norms (3 ulp each), the
    three-term dot product (3 ulp of ``|a| |b|``, for any summation order,
    with or without FMA) and the two-term tail; ``e`` rounds the
    differences, squares and sums (5 ulp of itself).  To first order that
    is ``3.5 eps (||a||^2 + ||b||^2) + 3 eps e``; the bound keeps a factor
    above 2 over it, so the rounding of the bound's own arithmetic and of
    any comparison made with it cannot break it.
    """
    return 16.0 * _EPS * (a_sq + b_sq) + 8.0 * _EPS * direct


# The 9 (dx, dy) columns of the 27-cell block: each column's three cells
# (dz = -1, 0, 1) are consecutive keys, since z is the lowest key field.
_COLUMN_DELTAS = key_deltas(kernel_offsets(3)[1::3])


class CellCandidates(NamedTuple):
    """Each query's candidates from a cell index of the references.

    Pairs are grouped by query, ascending: pair ``p`` joins query
    ``rows[p]`` to reference ``order[pos[p]]`` (``order`` sorts the
    references by cell) at direct squared distance ``e[p]``, and query
    ``i`` has ``counts[i]`` pairs.  ``floor[i]`` is below the one-GEMM
    distance from query ``i`` to every reference that is not its candidate
    (``inf`` when every reference is one).
    """

    rows: np.ndarray
    counts: np.ndarray
    pos: np.ndarray
    order: np.ndarray
    e: np.ndarray
    q_sq: np.ndarray  #: squared norm of each query
    r_sq_max: float  #: the largest squared norm of a reference
    floor: np.ndarray

    def refs(self, pairs) -> np.ndarray:
        """Reference indices of ``pairs`` (an index or mask into the pairs)."""
        return self.order[self.pos[pairs]]

    def bounds(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` around the one-GEMM distance of ``pairs``:
        :func:`gemm_error_bound` with the largest reference norm.  Both are
        non-decreasing in ``e`` within a query, so ordering a query's pairs
        by ``e`` orders them by either."""
        e = self.e[pairs]
        delta = gemm_error_bound(self.q_sq[self.rows[pairs]], self.r_sq_max, e)
        return e - delta, e + delta


def cell_candidates(queries: np.ndarray, references: np.ndarray,
                    cell_size: float, max_pairs: int) -> CellCandidates | None:
    """Every reference in the 3x3x3 block of grid cells around each query's.

    Cells are ``floor(p / cell_size)``, packed with :func:`coords_to_keys`;
    the reference keys are sorted once and the occupied query cells are
    searched at their 9 ``(dx, dy)`` columns of 3 consecutive keys -- the
    kernel-map ranking, run over cells.  Returns ``None`` when the inputs
    are not finite 3-D clouds, a cell or its neighbours would not pack, or
    the blocks hold more than ``max_pairs`` pairs (found before any
    distance is computed).

    ``floor`` comes from the query's gap to the faces of its block, less a
    slack of ``16 eps (max|coord| + cell_size)`` that covers the cell
    rounding (a point within a few ulp of a face may be indexed one cell
    over) and the gap's own arithmetic; :func:`gemm_error_bound` then
    lowers it, with the largest reference norm.  A face beyond which no
    reference's cell lies has no gap to keep.
    """
    q = np.asarray(queries, dtype=np.float64)
    r = np.asarray(references, dtype=np.float64)
    h = float(cell_size)
    if q.shape[1:] != (3,) or r.shape[1:] != (3,) or not h > 0:
        return None
    if not (np.isfinite(q).all() and np.isfinite(r).all()):
        return None
    # Coordinate-major copies: per-axis work runs on contiguous rows.
    q, r = q.T.copy(), r.T.copy()
    tq, tr = np.floor(q / h), np.floor(r / h)
    # A cell and both its neighbours along each axis must pack.
    lowest, highest = 1 - _KEY_OFFSET, _KEY_OFFSET - 2
    for t in (tq, tr):
        if t.size and not (t.min() >= lowest and t.max() <= highest):
            return None
    ref_keys = coords_to_keys(tr.T)
    order = np.argsort(ref_keys, kind="stable")
    sorted_keys = ref_keys[order]
    cells, inverse = np.unique(coords_to_keys(tq.T), return_inverse=True)
    # Column-major needles: each column's run is ascending, which keeps
    # searchsorted's successive searches short.
    centres = _COLUMN_DELTAS[:, None] + cells[None, :]
    first = np.searchsorted(sorted_keys, centres - 1, "left")
    lengths = np.searchsorted(sorted_keys, centres + 1, "right") - first
    # Each occupied cell's candidates (its 9 column ranges, in a row), then
    # each query's: the ranges of its cell's list.
    cell_counts = lengths.sum(axis=0)
    lengths, first = lengths.T.ravel(), first.T.ravel()
    ends = np.cumsum(lengths)
    cell_pos = (np.arange(ends[-1] if len(ends) else 0)
                + np.repeat(first - (ends - lengths), lengths))
    counts = cell_counts[inverse]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if total > max_pairs:
        return None
    cell_first = (np.cumsum(cell_counts) - cell_counts)[inverse]
    pos = cell_pos[np.arange(total)
                   + np.repeat(cell_first - (ends - counts), counts)]
    rows = np.repeat(np.arange(len(counts)), counts)
    r_sorted = r[:, order]
    e = _sum_of_squares(np.repeat(q[d], counts) - r_sorted[d][pos]
                        for d in range(3))
    q_sq = _sum_of_squares(q.copy())
    r_sq_max = float(_sum_of_squares(r.copy()).max(initial=0.0))
    slack = 16.0 * _EPS * (max(np.abs(q).max(initial=0.0),
                               np.abs(r).max(initial=0.0)) + h)
    if r.size:
        below = np.where(tq - 2 >= tr.min(axis=1, keepdims=True),
                         q - h * (tq - 1.0), np.inf)
        above = np.where(tq + 2 <= tr.max(axis=1, keepdims=True),
                         h * (tq + 2.0) - q, np.inf)
        gap = np.minimum(below, above).min(axis=0)
    else:
        gap = np.full(len(counts), np.inf)
    # The gap is infinite exactly when every reference is a candidate.
    floor = np.full(len(counts), np.inf)
    fenced = np.isfinite(gap)
    gap2 = np.maximum(gap[fenced] - slack, 0.0) ** 2
    floor[fenced] = gap2 - gemm_error_bound(q_sq[fenced], r_sq_max, gap2)
    return CellCandidates(rows, counts, pos, order, e, q_sq, r_sq_max, floor)


def squared_distance_to_set(points: np.ndarray, point_set: np.ndarray) -> np.ndarray:
    """For each point, the squared distance to its nearest member of a set."""
    return pairwise_squared_distance(points, point_set).min(axis=1)


def bounding_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box ``(min, max)`` of a point set."""
    points = np.asarray(points)
    if len(points) == 0:
        raise ValueError("bounding_box of empty point set")
    return points.min(axis=0), points.max(axis=0)
