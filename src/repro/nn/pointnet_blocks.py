"""PointNet++ building blocks: set abstraction and feature propagation.

These blocks emit the full operation sequence of Table 1's PointNet++-based
row: FPS (output cloud construction), ball query (neighbor search), explicit
gather, shared-MLP matmuls, and max-pool aggregation — so the recorded trace
carries exactly the mapping/movement/matmul mix the paper profiles in Fig. 6.

Every block also runs on :class:`~repro.nn.ghost.GhostFeatures` (an
xyz-only stage gets a ghost with zero channels): FPS, ball query and the
FP kNN still run on the real coordinates, the same specs are recorded, and
no feature is computed.
"""

from __future__ import annotations

import numpy as np

from ..mapping.ball_query import ball_query_indices
from ..mapping.fps import farthest_point_sampling
from . import functional as F
from .ghost import GhostFeatures, concat_channels, is_ghost
from .layers import SharedMLP
from .trace import LayerKind, LayerSpec, Trace

__all__ = [
    "SetAbstraction",
    "SetAbstractionMSG",
    "GlobalSetAbstraction",
    "FeaturePropagation",
]


def _record(trace: Trace | None, spec: LayerSpec) -> None:
    if trace is not None:
        trace.record(spec)


def _group_features(
    points: np.ndarray,
    features: np.ndarray | None,
    centers: np.ndarray,
    group_idx: np.ndarray,
) -> np.ndarray:
    """Gather per-group inputs: relative coordinates concat point features."""
    n_centers, k = group_idx.shape
    if is_ghost(features):
        if len(features) != len(points):
            raise ValueError(
                f"{len(features)} feature rows for {len(points)} points"
            )
        return GhostFeatures(n_centers * k, 3 + features.shape[1])
    grouped_xyz = points[group_idx] - centers[:, None, :]  # (M, k, 3)
    if features is None:
        grouped = grouped_xyz
    else:
        grouped = np.concatenate([grouped_xyz, features[group_idx]], axis=2)
    return grouped.reshape(n_centers * k, -1)


class SetAbstraction:
    """Single-scale-grouping SA module: FPS + ball query + MLP + max pool."""

    def __init__(
        self,
        npoint: int,
        radius: float,
        k: int,
        c_in: int,
        mlp_channels: list[int],
        rng: np.random.Generator,
        name: str = "sa",
    ) -> None:
        self.npoint = npoint
        self.radius = radius
        self.k = k
        self.c_in = c_in  # point feature channels (xyz is added internally)
        self.name = name
        self.mlp = SharedMLP(c_in + 3, mlp_channels, rng, name=f"{name}.mlp")

    @property
    def c_out(self) -> int:
        return self.mlp.c_out

    def __call__(
        self,
        points: np.ndarray,
        features: np.ndarray | None,
        trace: Trace | None = None,
        npoint: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``npoint`` overrides the constructor's center count for this
        call (models scale it with the input size)."""
        n = len(points)
        npoint = min(self.npoint if npoint is None else npoint, n)
        center_idx = farthest_point_sampling(points, npoint)
        centers = points[center_idx]
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.fps",
                kind=LayerKind.MAP_FPS,
                n_in=n,
                n_out=npoint,
                rows=n,
            ),
        )
        group_idx = ball_query_indices(centers, points, self.radius, self.k)
        n_maps = group_idx.size
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.ball",
                kind=LayerKind.MAP_BALL,
                n_in=n,
                n_out=npoint,
                rows=n,
                n_maps=n_maps,
                kernel_volume=self.k,
                params={"radius": self.radius},
            ),
        )
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.gather",
                kind=LayerKind.GATHER,
                n_in=n,
                n_out=npoint,
                c_in=self.c_in + 3,
                n_maps=n_maps,
                kernel_volume=self.k,
            ),
        )
        grouped = _group_features(points, features, centers, group_idx)
        out = self.mlp(grouped, trace)
        pooled = F.max_pool_groups(out, self.k)
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.pool",
                kind=LayerKind.POOL_MAX,
                n_in=npoint * self.k,
                n_out=npoint,
                c_in=self.mlp.c_out,
                c_out=self.mlp.c_out,
                rows=npoint * self.k,
                kernel_volume=self.k,
            ),
        )
        return centers, pooled


class SetAbstractionMSG:
    """Multi-scale-grouping SA: several (radius, k, mlp) branches, concat."""

    def __init__(
        self,
        npoint: int,
        scales: list[tuple[float, int, list[int]]],
        c_in: int,
        rng: np.random.Generator,
        name: str = "sa_msg",
    ) -> None:
        if not scales:
            raise ValueError("MSG module needs at least one scale")
        self.npoint = npoint
        self.c_in = c_in
        self.name = name
        self.scales = scales
        self.mlps = [
            SharedMLP(c_in + 3, mlp_channels, rng, name=f"{name}.s{i}.mlp")
            for i, (_, _, mlp_channels) in enumerate(scales)
        ]

    @property
    def c_out(self) -> int:
        return sum(mlp.c_out for mlp in self.mlps)

    def __call__(
        self,
        points: np.ndarray,
        features: np.ndarray | None,
        trace: Trace | None = None,
        npoint: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``npoint`` overrides the constructor's center count for this
        call (models scale it with the input size)."""
        n = len(points)
        npoint = min(self.npoint if npoint is None else npoint, n)
        center_idx = farthest_point_sampling(points, npoint)
        centers = points[center_idx]
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.fps",
                kind=LayerKind.MAP_FPS,
                n_in=n,
                n_out=npoint,
                rows=n,
            ),
        )
        outputs = []
        for i, ((radius, k, _), mlp) in enumerate(zip(self.scales, self.mlps)):
            group_idx = ball_query_indices(centers, points, radius, k)
            _record(
                trace,
                LayerSpec(
                    name=f"{self.name}.s{i}.ball",
                    kind=LayerKind.MAP_BALL,
                    n_in=n,
                    n_out=npoint,
                    rows=n,
                    n_maps=group_idx.size,
                    kernel_volume=k,
                    params={"radius": radius},
                ),
            )
            _record(
                trace,
                LayerSpec(
                    name=f"{self.name}.s{i}.gather",
                    kind=LayerKind.GATHER,
                    n_in=n,
                    n_out=npoint,
                    c_in=self.c_in + 3,
                    n_maps=group_idx.size,
                    kernel_volume=k,
                ),
            )
            grouped = _group_features(points, features, centers, group_idx)
            out = mlp(grouped, trace)
            pooled = F.max_pool_groups(out, k)
            _record(
                trace,
                LayerSpec(
                    name=f"{self.name}.s{i}.pool",
                    kind=LayerKind.POOL_MAX,
                    n_in=npoint * k,
                    n_out=npoint,
                    c_in=mlp.c_out,
                    c_out=mlp.c_out,
                    rows=npoint * k,
                    kernel_volume=k,
                ),
            )
            outputs.append(pooled)
        return centers, concat_channels(*outputs)


class GlobalSetAbstraction:
    """group_all SA: one group containing every point, MLP + global max."""

    def __init__(
        self,
        c_in: int,
        mlp_channels: list[int],
        rng: np.random.Generator,
        name: str = "sa_global",
    ) -> None:
        self.c_in = c_in
        self.name = name
        self.mlp = SharedMLP(c_in + 3, mlp_channels, rng, name=f"{name}.mlp")

    @property
    def c_out(self) -> int:
        return self.mlp.c_out

    def __call__(
        self,
        points: np.ndarray,
        features: np.ndarray | None,
        trace: Trace | None = None,
    ) -> np.ndarray:
        n = len(points)
        centroid = points.mean(axis=0, keepdims=True)
        grouped_xyz = points - centroid
        if features is None:
            grouped = grouped_xyz
        else:
            grouped = concat_channels(grouped_xyz, features)
        out = self.mlp(grouped, trace)
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.pool",
                kind=LayerKind.GLOBAL_POOL,
                n_in=n,
                n_out=1,
                c_in=self.mlp.c_out,
                c_out=self.mlp.c_out,
                rows=n,
            ),
        )
        return F.global_max_pool(out)


class FeaturePropagation:
    """FP module: 3-NN inverse-distance interpolation + unit MLP."""

    def __init__(
        self,
        c_source: int,
        c_skip: int,
        mlp_channels: list[int],
        rng: np.random.Generator,
        name: str = "fp",
    ) -> None:
        self.c_source = c_source
        self.c_skip = c_skip
        self.name = name
        self.mlp = SharedMLP(c_source + c_skip, mlp_channels, rng, name=f"{name}.mlp")

    @property
    def c_out(self) -> int:
        return self.mlp.c_out

    def __call__(
        self,
        target_points: np.ndarray,
        target_features: np.ndarray | None,
        source_points: np.ndarray,
        source_features: np.ndarray,
        trace: Trace | None = None,
    ) -> np.ndarray:
        n_target = len(target_points)
        n_source = len(source_points)
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.knn",
                kind=LayerKind.MAP_KNN,
                n_in=n_source,
                n_out=n_target,
                rows=n_source,
                n_maps=n_target * 3,
                kernel_volume=3,
            ),
        )
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.gather",
                kind=LayerKind.GATHER,
                n_in=n_source,
                n_out=n_target,
                c_in=self.c_source,
                n_maps=n_target * 3,
                kernel_volume=3,
            ),
        )
        interpolated = F.three_nn_interpolate(
            target_points, source_points, source_features
        )
        _record(
            trace,
            LayerSpec(
                name=f"{self.name}.interp",
                kind=LayerKind.INTERP,
                n_in=n_source,
                n_out=n_target,
                c_in=self.c_source,
                c_out=self.c_source,
                rows=n_target,
                kernel_volume=3,
            ),
        )
        if target_features is not None:
            if target_features.shape[1] != self.c_skip:
                raise ValueError(
                    f"{self.name}: expected skip width {self.c_skip}, "
                    f"got {target_features.shape[1]}"
                )
            combined = concat_channels(interpolated, target_features)
        else:
            if self.c_skip != 0:
                raise ValueError(f"{self.name}: missing skip features")
            combined = interpolated
        return self.mlp(combined, trace)
