"""Stateless numpy kernels for network inference.

These are the arithmetic primitives the layer classes in
``repro.nn.layers`` wrap.  All operate on ``(rows, channels)`` feature
matrices and are deliberately boring: correctness here anchors every
functional test of the hardware models above.  The pooling and
interpolation kernels of the PointNet++ blocks also take a
:class:`~repro.nn.ghost.GhostFeatures` token: same checks, a ghost of the
output shape, no arithmetic (geometry-only execution).
"""

from __future__ import annotations

import numpy as np

from .ghost import GhostFeatures, is_ghost

__all__ = [
    "relu",
    "linear",
    "batch_norm",
    "softmax",
    "log_softmax",
    "max_pool_groups",
    "avg_pool_groups",
    "scatter_add",
    "scatter_max",
    "global_max_pool",
    "three_nn_interpolate",
]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``y = x @ W + b`` with ``W`` of shape (c_in, c_out)."""
    y = x @ weight
    if bias is not None:
        y = y + bias
    return y


def batch_norm(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch norm with fixed statistics."""
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def max_pool_groups(features: np.ndarray, group_size: int) -> np.ndarray:
    """Max over contiguous groups: (G*k, C) -> (G, C)."""
    rows, channels = features.shape
    if rows % group_size != 0:
        raise ValueError(f"{rows} rows not divisible by group size {group_size}")
    if is_ghost(features):
        return GhostFeatures(rows // group_size, channels)
    return features.reshape(rows // group_size, group_size, channels).max(axis=1)


def avg_pool_groups(features: np.ndarray, group_size: int) -> np.ndarray:
    """Mean over contiguous groups: (G*k, C) -> (G, C)."""
    rows, channels = features.shape
    if rows % group_size != 0:
        raise ValueError(f"{rows} rows not divisible by group size {group_size}")
    return features.reshape(rows // group_size, group_size, channels).mean(axis=1)


def scatter_add(
    values: np.ndarray, index: np.ndarray, n_out: int
) -> np.ndarray:
    """Sum rows of ``values`` into ``n_out`` output slots by ``index``."""
    out = np.zeros((n_out, values.shape[1]), dtype=values.dtype)
    np.add.at(out, np.asarray(index, dtype=np.int64), values)
    return out


def scatter_max(
    values: np.ndarray, index: np.ndarray, n_out: int, fill: float = 0.0
) -> np.ndarray:
    """Max-reduce rows of ``values`` into output slots; empty slots get ``fill``."""
    index = np.asarray(index, dtype=np.int64)
    out = np.full((n_out, values.shape[1]), -np.inf, dtype=values.dtype)
    np.maximum.at(out, index, values)
    out[np.isneginf(out)] = fill
    return out


def global_max_pool(features: np.ndarray) -> np.ndarray:
    """Max over all rows: (N, C) -> (C,)."""
    if len(features) == 0:
        raise ValueError("global max pool of empty feature matrix")
    if is_ghost(features):
        return GhostFeatures(features.shape[1])
    return features.max(axis=0)


def three_nn_interpolate(
    target_points: np.ndarray,
    source_points: np.ndarray,
    source_features: np.ndarray,
    eps: float = 1e-8,
) -> np.ndarray:
    """Inverse-distance weighted 3-NN interpolation (PointNet++ FP layer).

    The weights read the one-GEMM squared distances of the picks
    (:func:`~repro.pointcloud.coords.squared_distances_at`), the values
    the neighbours are ranked by; a ghost never builds that GEMM.
    """
    from ..mapping.knn import knn_indices
    from ..pointcloud.coords import squared_distances_at

    idx = knn_indices(target_points, source_points, k=3)
    if is_ghost(source_features):
        # The neighbour search above is mapping and runs on coordinates
        # either way; only the weighted gather is feature arithmetic.
        if len(source_features) != len(source_points):
            raise ValueError(
                f"{len(source_features)} source feature rows for "
                f"{len(source_points)} source points"
            )
        return GhostFeatures(len(target_points), source_features.shape[1])
    sq_dist = squared_distances_at(target_points, source_points, idx)
    weights = 1.0 / (sq_dist + eps)
    weights = weights / weights.sum(axis=1, keepdims=True)
    gathered = source_features[idx]  # (N, 3, C)
    return np.einsum("nk,nkc->nc", weights, gathered)
