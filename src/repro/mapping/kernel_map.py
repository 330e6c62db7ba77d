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
from . import hooks
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


def _memoized(
    algorithm: str,
    in_coords: np.ndarray,
    out_coords: np.ndarray,
    offsets: np.ndarray,
    compute,
) -> MapTable:
    """Consult the active map cache; algorithms key separately because their
    tables are set-equal but row-ordered differently (bit-identity matters)."""
    cache = hooks.active_cache()
    if cache is None:
        return compute()
    return cache.memoize(
        f"kernel_map/{algorithm}", (in_coords, out_coords, offsets), {}, compute
    )


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
    return _memoized(
        "bruteforce", in_coords, out_coords, offsets,
        lambda: _bruteforce_compute(in_coords, out_coords, offsets),
    )


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
    return _memoized(
        "hash", in_coords, out_coords, offsets,
        lambda: _hash_compute(in_coords, out_coords, offsets),
    )


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

    The table is exactly what the MPU's merger + intersection detector
    compute, row for row (the per-offset merge loop is kept as the reference
    in the tests); the cycle-level model, which still charges every offset,
    lives in ``repro.core.mpu``.
    """
    in_coords, out_coords = _validate(in_coords, out_coords)
    offsets = _resolve_offsets(in_coords, kernel_size, tensor_stride, offsets)
    return _memoized(
        "mergesort", in_coords, out_coords, offsets,
        lambda: _mergesort_compute(in_coords, out_coords, offsets),
    )


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
    # would, and makes key(p - delta) == key(p) - key_delta exact.
    coords_to_keys(np.stack([
        in_coords.min(axis=0) - offsets.max(axis=0),
        in_coords.max(axis=0) - offsets.min(axis=0),
    ]))
    deltas = key_deltas(offsets)
    # A sentinel no packed key equals: every probe position is in bounds.
    padded_out_keys = np.append(sorted_out_keys, -1)

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
    blocks = []
    for delta in deltas[: k // 2] if symmetric else deltas:
        # Merge + detect-intersection == searchsorted equality probe of the
        # input keys shifted by -delta against the sorted output keys.
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
