"""Kernel mapping for SparseConv: three interchangeable algorithms.

Paper Sections 2.1.2 and 4.1.1.  A map ``(p, q, w_delta)`` exists when input
point ``p`` sits at offset ``delta * ts_in`` from output point ``q``:
``p = q + delta * ts_in``.  The three implementations here are:

* :func:`kernel_map_bruteforce` — O(N_in * N_out) set comparison; only for
  testing on tiny clouds.
* :func:`kernel_map_hash` — the state-of-the-art CPU/GPU algorithm
  (MinkowskiEngine): build a hash table of input coordinates, probe
  ``q + delta`` for every output/offset pair.
* :func:`kernel_map_mergesort` — PointAcc's formulation (Fig. 9): shift the
  input cloud by ``-delta``, merge-sort it with the output cloud, and detect
  key intersections between adjacent elements.

All three return identical :class:`MapTable`s (property-tested); they differ
in the hardware cost models attached to them in ``repro.core``.
"""

from __future__ import annotations

import numpy as np

from ..pointcloud.coords import coords_to_keys, kernel_offsets, key_deltas
from .maps import MapTable

__all__ = [
    "kernel_map_bruteforce",
    "kernel_map_hash",
    "kernel_map_mergesort",
    "kernel_map",
]


def _validate(in_coords: np.ndarray, out_coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    in_coords = np.asarray(in_coords, dtype=np.int64)
    out_coords = np.asarray(out_coords, dtype=np.int64)
    if in_coords.ndim != 2 or out_coords.ndim != 2:
        raise ValueError("coordinates must be (N, D) arrays")
    if in_coords.shape[1] != out_coords.shape[1]:
        raise ValueError("input/output coordinate dimensions differ")
    return in_coords, out_coords


def _resolve_offsets(
    in_coords: np.ndarray,
    kernel_size: int,
    tensor_stride: int,
    offsets: np.ndarray | None,
) -> np.ndarray:
    """Offsets a map must satisfy (``p = q + offset``), explicit or enumerated."""
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 2 or offsets.shape[1] != in_coords.shape[1]:
            raise ValueError(f"offsets must be (K, {in_coords.shape[1]})")
        return offsets
    return kernel_offsets(kernel_size, in_coords.shape[1]) * tensor_stride


def kernel_map_bruteforce(
    in_coords: np.ndarray,
    out_coords: np.ndarray,
    kernel_size: int = 3,
    tensor_stride: int = 1,
    offsets: np.ndarray | None = None,
) -> MapTable:
    """Reference kernel mapping by exhaustive comparison (testing only)."""
    in_coords, out_coords = _validate(in_coords, out_coords)
    offsets = _resolve_offsets(in_coords, kernel_size, tensor_stride, offsets)
    return _bruteforce_compute(in_coords, out_coords, offsets)


def _bruteforce_compute(
    in_coords: np.ndarray, out_coords: np.ndarray, offsets: np.ndarray
) -> MapTable:
    in_list = {tuple(c): i for i, c in enumerate(in_coords.tolist())}
    ins, outs, weights = [], [], []
    for w, delta in enumerate(offsets.tolist()):
        for q_idx, q in enumerate(out_coords.tolist()):
            probe = tuple(qc + dc for qc, dc in zip(q, delta))
            p_idx = in_list.get(probe)
            if p_idx is not None:
                ins.append(p_idx)
                outs.append(q_idx)
                weights.append(w)
    return MapTable(
        np.array(ins, dtype=np.int64),
        np.array(outs, dtype=np.int64),
        np.array(weights, dtype=np.int64),
        kernel_volume=len(offsets),
    )


def kernel_map_hash(
    in_coords: np.ndarray,
    out_coords: np.ndarray,
    kernel_size: int = 3,
    tensor_stride: int = 1,
    offsets: np.ndarray | None = None,
) -> MapTable:
    """Hash-table kernel mapping (the MinkowskiEngine-style baseline).

    Builds a dict keyed by packed input coordinates and probes each
    ``q + delta``; a hit yields a map.  This is the algorithm PointAcc's
    merge-sort formulation replaces (Section 4.1.1).
    """
    in_coords, out_coords = _validate(in_coords, out_coords)
    offsets = _resolve_offsets(in_coords, kernel_size, tensor_stride, offsets)
    return _hash_compute(in_coords, out_coords, offsets)


def _hash_compute(
    in_coords: np.ndarray, out_coords: np.ndarray, offsets: np.ndarray
) -> MapTable:
    table = {int(key): i for i, key in enumerate(coords_to_keys(in_coords))}
    ins, outs, weights = [], [], []
    for w, delta in enumerate(offsets):
        probe_keys = coords_to_keys(out_coords + delta[None, :])
        for q_idx, key in enumerate(probe_keys.tolist()):
            p_idx = table.get(key)
            if p_idx is not None:
                ins.append(p_idx)
                outs.append(q_idx)
                weights.append(w)
    return MapTable(
        np.array(ins, dtype=np.int64),
        np.array(outs, dtype=np.int64),
        np.array(weights, dtype=np.int64),
        kernel_volume=len(offsets),
    )


def kernel_map_mergesort(
    in_coords: np.ndarray,
    out_coords: np.ndarray,
    kernel_size: int = 3,
    tensor_stride: int = 1,
    offsets: np.ndarray | None = None,
) -> MapTable:
    """Merge-sort kernel mapping — PointAcc's algorithm (Fig. 9).

    Each cloud is packed into ranking keys and sorted once.  Shifting every
    point by a constant ``-delta`` preserves lexicographic order and
    subtracts a constant from its packed key
    (:func:`~repro.pointcloud.coords.key_deltas`), so an offset's pass is
    one subtraction of the sorted input keys.  Merged with the sorted output
    keys, equal adjacent keys are intersections, i.e. maps.  One per-axis
    bounding-box test of ``p - delta`` replaces range-checking each shifted
    cloud.  When input and output are one duplicate-free cloud and the
    offsets are symmetric (the submanifold case), only the first half of
    the offsets is probed: the zero centre offset is the identity, and the
    rows of ``-delta`` are those of ``delta`` with input and output swapped.

    Two shortcuts read the maps off the key structure of grid-aligned
    clouds, chosen from the inputs alone (``s`` a power of two):

    * **Columns** (offsets ``kernel_offsets(3) * s`` over one
      duplicate-free cloud whose z coordinates are multiples of ``s``).
      The three probes ``dz = +1, 0, -1`` of a ``(dx, dy)`` column are
      keys ``s`` apart that no key of the cloud lies between, so one
      search finds the first and each next sits at ``pos + hit``; the
      ``(0, 0, -s)`` rows are adjacent keys ``s`` apart, with no search.
      The half-probe then costs 4 searches instead of 13.
    * **Parents** (offsets ``kernel_offsets(2) * s``, input coordinates
      multiples of ``s``, output coordinates multiples of ``2s``).  Each
      input's only candidate output is its parent cell: its key with the
      low ``log2(2s)`` bits of every field cleared, at weight
      ``4 bx + 2 by + bz`` from the bits at ``log2(s)``.  One search of
      the parent keys and a stable sort by weight replace 8 searches.

    The table is exactly what the MPU's merger + intersection detector
    compute, row for row (the per-offset merge loop is kept as the reference
    in the tests); the cycle-level model, which still charges every offset,
    lives in ``repro.core.mpu``.
    """
    in_coords, out_coords = _validate(in_coords, out_coords)
    offsets = _resolve_offsets(in_coords, kernel_size, tensor_stride, offsets)
    return _mergesort_compute(in_coords, out_coords, offsets)


def _mergesort_compute(
    in_coords: np.ndarray, out_coords: np.ndarray, offsets: np.ndarray
) -> MapTable:
    k = len(offsets)
    if len(in_coords) == 0 or len(out_coords) == 0 or k == 0:
        empty = np.empty(0, dtype=np.int64)
        return MapTable(empty, empty, empty, kernel_volume=k)

    in_keys = coords_to_keys(in_coords)
    in_order = np.argsort(in_keys, kind="stable")
    sorted_in_keys = in_keys[in_order]
    same = in_coords.shape == out_coords.shape and np.array_equal(
        in_coords, out_coords
    )
    if same:
        out_order, sorted_out_keys = in_order, sorted_in_keys
    else:
        out_keys = coords_to_keys(out_coords)
        out_order = np.argsort(out_keys, kind="stable")
        sorted_out_keys = out_keys[out_order]
    # Every p - delta is packable iff the two corners of their per-axis
    # bounding box are: this raises exactly where packing each shifted cloud
    # would, and makes key(p - delta) == key(p) - key_delta exact.  (One
    # reduction per column: an axis-0 reduction of (n, 3) is ~10x slower.)
    lo = np.array([column.min() for column in in_coords.T])
    hi = np.array([column.max() for column in in_coords.T])
    coords_to_keys(np.stack([lo - offsets.max(axis=0), hi - offsets.min(axis=0)]))
    # A sentinel no packed key equals: every probe position is in bounds.
    padded_out_keys = np.append(sorted_out_keys, -1)

    # A downsampling kernel over grid-aligned clouds: each input's one
    # candidate output is its parent cell.
    s = _kernel_scale(offsets, 2)
    if s and _aligned(sorted_in_keys, s) and _aligned(sorted_out_keys, 2 * s):
        return _parent_maps(sorted_in_keys, in_order, padded_out_keys, out_order, s)

    # Submanifold symmetry: over one duplicate-free cloud with offsets[-1 - w]
    # == -offsets[w], the rows of -delta are the rows of delta with in/out
    # swapped — already in row order, since a translation preserves key
    # order — and a zero centre offset maps every point to itself.
    symmetric = (
        same
        and k % 2 == 1
        and np.array_equal(offsets[::-1], -offsets)
        and not np.any(sorted_in_keys[1:] == sorted_in_keys[:-1])
    )
    # A 3^3 kernel over a cloud on the grid along z: one search per column.
    s = _kernel_scale(offsets, 3) if symmetric else 0
    if s and not np.any(sorted_in_keys & (s - 1)):
        blocks = _column_blocks(sorted_in_keys, in_order, padded_out_keys, s)
    else:
        blocks = []
        for delta in key_deltas(offsets[: k // 2] if symmetric else offsets):
            # Merge + detect-intersection == searchsorted equality probe of
            # the input keys shifted by -delta against the sorted output keys.
            shifted = sorted_in_keys - delta
            pos = np.searchsorted(sorted_out_keys, shifted)
            hit = padded_out_keys[pos] == shifted
            blocks.append((in_order[hit], out_order[pos[hit]]))
    if symmetric:
        blocks.append((in_order, in_order))
        blocks += [(q_idx, p_idx) for p_idx, q_idx in reversed(blocks[:-1])]
    return MapTable(
        np.concatenate([p_idx for p_idx, _ in blocks]),
        np.concatenate([q_idx for _, q_idx in blocks]),
        np.repeat(np.arange(k), [len(p_idx) for p_idx, _ in blocks]),
        kernel_volume=k,
    )


def _kernel_scale(offsets: np.ndarray, kernel_size: int) -> int:
    """``s`` when ``offsets`` is exactly ``kernel_offsets(kernel_size, 3) * s``
    for a power of two ``s``, else 0."""
    if offsets.shape != (kernel_size**3, 3):
        return 0
    s = int(offsets[-1, 0])
    if s < 1 or s & (s - 1):
        return 0
    return s if np.array_equal(offsets, kernel_offsets(kernel_size, 3) * s) else 0


def _aligned(keys: np.ndarray, s: int) -> bool:
    """Whether every field of every packed key is a multiple of ``s``."""
    return not np.any(keys & key_deltas(np.full((1, 3), s - 1))[0])


def _column_blocks(
    sorted_keys: np.ndarray, order: np.ndarray, padded_keys: np.ndarray, s: int
) -> list:
    """Rows of the first 13 offsets of ``kernel_offsets(3) * s`` over one
    sorted duplicate-free cloud whose z fields are multiples of ``s``.

    For a ``(dx, dy)`` column the probes ``dz = +1, 0, -1`` are the keys
    ``c - s``, ``c``, ``c + s`` of one ``(x, y)`` line, and every key of
    the cloud between them would have an unaligned z field: where one
    probe sits at ``pos``, the next sits at ``pos + hit``.
    """
    blocks = []
    # (dx, dy, 0) of the four columns among offsets 0..11.
    for centre in key_deltas(kernel_offsets(3)[1:12:3] * s):
        shifted = sorted_keys - centre - s
        pos = np.searchsorted(sorted_keys, shifted)
        column = []
        for _ in range(3):
            hit = np.flatnonzero(padded_keys[pos] == shifted)
            column.append((order[hit], order[pos[hit]]))
            pos[hit] += 1
            shifted += s
        blocks += column[::-1]  # weight order: dz = -1, 0, +1
    # Offset (0, 0, -s): each point's next key, when it is s above.
    hit = sorted_keys[1:] == sorted_keys[:-1] + s
    blocks.append((order[:-1][hit], order[1:][hit]))
    return blocks


def _parent_maps(
    sorted_in_keys: np.ndarray,
    in_order: np.ndarray,
    padded_out_keys: np.ndarray,
    out_order: np.ndarray,
    s: int,
) -> MapTable:
    """Maps of offsets ``kernel_offsets(2) * s`` from inputs whose fields
    are multiples of ``s`` onto outputs whose fields are multiples of
    ``2s``: each input's one candidate output is its parent cell, the key
    with the low ``log2(2s)`` bits of every field cleared, at the weight
    spelled by its bits at ``log2(s)``.  Rows are ordered by weight, then
    by sorted input, as the per-offset passes emit them."""
    parents = sorted_in_keys & ~key_deltas(np.full((1, 3), 2 * s - 1))[0]
    # uint8, so that the stable sort by weight below is a radix sort.
    weights = np.zeros(len(sorted_in_keys), dtype=np.uint8)
    for bit in key_deltas(np.eye(3, dtype=np.int64) * s):
        weights = 2 * weights + ((sorted_in_keys & bit) != 0)
    pos = np.searchsorted(padded_out_keys[:-1], parents)
    hit = np.flatnonzero(padded_out_keys[pos] == parents)
    rows = hit[np.argsort(weights[hit], kind="stable")]
    return MapTable(
        in_order[rows], out_order[pos[rows]], weights[rows], kernel_volume=8
    )


def kernel_map(
    in_coords: np.ndarray,
    out_coords: np.ndarray,
    kernel_size: int = 3,
    tensor_stride: int = 1,
    algorithm: str = "mergesort",
    offsets: np.ndarray | None = None,
) -> MapTable:
    """Dispatch to one of the kernel-mapping algorithms by name."""
    algos = {
        "bruteforce": kernel_map_bruteforce,
        "hash": kernel_map_hash,
        "mergesort": kernel_map_mergesort,
    }
    if algorithm not in algos:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {sorted(algos)}")
    return algos[algorithm](in_coords, out_coords, kernel_size, tensor_stride, offsets)
