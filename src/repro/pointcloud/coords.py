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
    "squared_distance_to_set",
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

    Like the mapping ops, voxelization is a pure function of its inputs and
    consults the active map cache (:mod:`repro.mapping.hooks`) when one is
    installed: it is the first thing every SparseConv frame pays, and an
    identical cloud (a replayed frame, another shard presenting the same
    one) hits the whole-op digest tiers.  With no cache active — every
    direct caller outside the engine — the behaviour is exactly the plain
    computation.
    """
    if voxel_size <= 0:
        raise ValueError(f"voxel_size must be positive, got {voxel_size}")
    points = np.asarray(points, dtype=np.float64)
    # Deferred import: repro.mapping imports this module at package load.
    from ..mapping import hooks

    cache = hooks.active_cache()
    if cache is not None:
        return cache.memoize(
            "voxelize",
            (points,),
            {"voxel_size": float(voxel_size)},
            lambda: _voxelize_compute(points, voxel_size),
        )
    return _voxelize_compute(points, voxel_size)


def _voxelize_compute(
    points: np.ndarray, voxel_size: float
) -> tuple[np.ndarray, np.ndarray]:
    """The reference voxelization: quantize to the grid, deduplicate."""
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


def pairwise_squared_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between two point sets, shape (|a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b, clipped for float error.
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.maximum(sq, 0.0)


def squared_distance_to_set(points: np.ndarray, point_set: np.ndarray) -> np.ndarray:
    """For each point, the squared distance to its nearest member of a set."""
    return pairwise_squared_distance(points, point_set).min(axis=1)


def bounding_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box ``(min, max)`` of a point set."""
    points = np.asarray(points)
    if len(points) == 0:
        raise ValueError("bounding_box of empty point set")
    return points.min(axis=0), points.max(axis=0)
