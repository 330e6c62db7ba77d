"""Farthest point sampling — output-cloud construction for PointNet++.

Paper Section 2.1.1: each output point is sampled from the input cloud one by
one; at iteration ``t`` we choose the input point with the largest distance
to the current output set.  The MPU realizes this as a streaming arg-max over
maintained minimum distances (paper Fig. 8b); this module is the exact
functional reference that hardware model is tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coordinate_columns",
    "farthest_point_sampling",
    "fps_bruteforce",
    "random_sampling",
    "squared_distances_to",
]


def farthest_point_sampling(
    points: np.ndarray, n_samples: int, start_index: int = 0
) -> np.ndarray:
    """Indices of ``n_samples`` farthest-point samples of ``points``.

    Deterministic given ``start_index`` (the customary seed point is index 0,
    matching the reference PointNet++ implementation).  Runs the standard
    O(n_samples * N) incremental algorithm: maintain for every input point
    its distance to the nearest already-selected output and repeatedly pick
    the arg-max.

    Never mutates ``points``; the returned index array is freshly owned by
    the caller.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        raise ValueError("cannot sample from an empty point cloud")
    if not 0 <= start_index < n:
        raise ValueError(f"start_index {start_index} out of range for {n} points")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    n_samples = min(n_samples, n)

    return _fps_compute(points, n_samples, start_index)


def _fps_compute(
    points: np.ndarray, n_samples: int, start_index: int
) -> np.ndarray:
    if points.shape[1] != 3:
        return fps_bruteforce(points, n_samples, start_index)
    n = len(points)
    columns = coordinate_columns(points)
    scratch, sq = np.empty(n), np.empty(n)
    selected = np.empty(n_samples, dtype=np.int64)
    selected[0] = start_index
    # min_sq_dist[i] = squared distance from point i to the selected set.
    min_sq_dist = squared_distances_to(columns, start_index, np.empty(n), scratch)
    for t in range(1, n_samples):
        nxt = int(np.argmax(min_sq_dist))
        selected[t] = nxt
        squared_distances_to(columns, nxt, sq, scratch)
        np.minimum(min_sq_dist, sq, out=min_sq_dist)
    return selected


def coordinate_columns(points: np.ndarray) -> tuple[np.ndarray, ...]:
    """The x, y and z columns of an ``(n, 3)`` cloud, each contiguous."""
    return tuple(
        np.ascontiguousarray(points[:, d], dtype=np.float64) for d in range(3)
    )


def squared_distances_to(
    columns, index: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Squared distance of every point to point ``index``, written to ``out``.

    ``columns`` comes from :func:`coordinate_columns`; ``out`` and
    ``scratch`` are preallocated length-n buffers.  The terms are summed as
    ``(dx^2 + dz^2) + dy^2`` because :func:`fps_bruteforce` -- the einsum
    loop every FPS so far was computed with -- must pick the same samples,
    and that is the order ``einsum('ij,ij->i')`` added a row's three
    products in on the x86-64 / OpenBLAS / numpy 2.4 build this was
    checked on (100,000 of 100,000 rows bit-equal; the textbook
    ``(dx^2 + dy^2) + dz^2`` rounded differently in about a quarter of
    rows, which can flip an arg-max tie).  It is not a guarantee of numpy:
    einsum's SIMD reduction may group or fuse (FMA) the terms differently
    on another build or instruction set, and
    ``tests/mapping/test_selection_exact.py::test_column_update_equals_einsum``
    is the check that fails there.
    """
    x, y, z = columns
    np.subtract(x, x[index], out=out)
    np.multiply(out, out, out=out)
    np.subtract(z, z[index], out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    np.add(out, scratch, out=out)
    np.subtract(y, y[index], out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    np.add(out, scratch, out=out)
    return out


def fps_bruteforce(
    points: np.ndarray, n_samples: int, start_index: int = 0
) -> np.ndarray:
    """Reference FPS: the same recurrence with an ``einsum`` per iteration.

    Takes the already-validated arguments of
    :func:`farthest_point_sampling` (any dimension); the property suite
    pins the column kernel to it.
    """
    points = np.asarray(points, dtype=np.float64)
    selected = np.empty(n_samples, dtype=np.int64)
    selected[0] = start_index
    diff = points - points[start_index]
    min_sq_dist = np.einsum("ij,ij->i", diff, diff)
    for t in range(1, n_samples):
        nxt = int(np.argmax(min_sq_dist))
        selected[t] = nxt
        diff = points - points[nxt]
        np.minimum(min_sq_dist, np.einsum("ij,ij->i", diff, diff), out=min_sq_dist)
    return selected


def random_sampling(
    n_points: int, n_samples: int, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Uniform random downsampling (the cheap alternative, e.g. RandLA-Net)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_samples = min(n_samples, n_points)
    return np.sort(rng.choice(n_points, size=n_samples, replace=False))
