"""DGCNN EdgeConv block.

Graph-based convolutions are "the special case of PointNet++-based
convolution where the mapping operations work on the point *features*
instead of point coordinates" (paper Section 2).  EdgeConv recomputes a kNN
graph in feature space at every layer (a dynamic graph), builds edge features
``concat(x_i, x_j - x_i)``, applies a shared MLP and max-pools per vertex.
"""

from __future__ import annotations

import numpy as np

from ..mapping.knn import knn_indices
from . import functional as F
from .layers import SharedMLP
from .trace import LayerKind, LayerSpec, Trace

__all__ = ["EdgeConv"]


class EdgeConv:
    """One EdgeConv layer: dynamic kNN graph + edge MLP + vertex max-pool."""

    def __init__(
        self,
        c_in: int,
        mlp_channels: list[int],
        k: int,
        rng: np.random.Generator,
        name: str = "edgeconv",
    ) -> None:
        self.c_in = c_in
        self.k = k
        self.name = name
        self.mlp = SharedMLP(2 * c_in, mlp_channels, rng, name=f"{name}.mlp")

    @property
    def c_out(self) -> int:
        return self.mlp.c_out

    def __call__(self, features: np.ndarray, trace: Trace | None = None) -> np.ndarray:
        n, c = features.shape
        if c != self.c_in:
            raise ValueError(f"{self.name}: expected {self.c_in} channels, got {c}")
        k = min(self.k, n)
        idx = knn_indices(features, features, k)
        if trace is not None:
            trace.record(
                LayerSpec(
                    name=f"{self.name}.knn",
                    kind=LayerKind.MAP_KNN,
                    n_in=n,
                    n_out=n,
                    rows=n,
                    n_maps=n * k,
                    kernel_volume=k,
                    params={"feature_dim": c},  # distances in feature space
                )
            )
            trace.record(
                LayerSpec(
                    name=f"{self.name}.gather",
                    kind=LayerKind.GATHER,
                    n_in=n,
                    n_out=n,
                    c_in=c,
                    n_maps=n * k,
                    kernel_volume=k,
                )
            )
        neighbors = features[idx]  # (N, k, C)
        center = np.repeat(features[:, None, :], k, axis=1)
        edge = np.concatenate([center, neighbors - center], axis=2).reshape(n * k, 2 * c)
        out = self.mlp(edge, trace)
        pooled = F.max_pool_groups(out, k)
        if trace is not None:
            trace.record(
                LayerSpec(
                    name=f"{self.name}.pool",
                    kind=LayerKind.POOL_MAX,
                    n_in=n * k,
                    n_out=n,
                    c_in=self.mlp.c_out,
                    c_out=self.mlp.c_out,
                    rows=n * k,
                    kernel_volume=k,
                )
            )
        return pooled
