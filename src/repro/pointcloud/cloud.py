"""Point cloud containers.

Two containers cover the two families of point-cloud networks in the paper
(Table 1):

* :class:`PointCloud` — continuous ``float`` coordinates plus per-point
  features; the input representation for PointNet++-based models.
* :class:`SparseTensor` — integer voxel coordinates at a *tensor stride*
  plus per-point features; the representation SparseConv-based models
  (MinkowskiNet et al.) compute on.

Both are thin, immutable-by-convention wrappers over numpy arrays: the point
count ``n``, feature width ``channels`` and coordinate dimension ``ndim`` are
the quantities every cost model downstream consumes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import coords as coord_ops

__all__ = ["PointCloud", "SparseTensor"]


def _is_ghost(features) -> bool:
    """Geometry-only stand-in (see :mod:`repro.nn.ghost`), duck-typed so the
    container layer needs no import from the model layer."""
    return type(features).__name__ == "GhostFeatures"


def _as_features(features):
    """Features as float64, or ``None``/a ghost as given."""
    if features is None or _is_ghost(features):
        return features
    return np.asarray(features, dtype=np.float64)


def _check_points_features(points: np.ndarray, features: np.ndarray | None) -> None:
    if points.ndim != 2:
        raise ValueError(f"points must be (N, D), got {points.shape}")
    if features is not None:
        if features.ndim != 2:
            raise ValueError(f"features must be (N, C), got {features.shape}")
        if len(features) != len(points):
            raise ValueError(
                f"points/features length mismatch: {len(points)} vs {len(features)}"
            )


@dataclass
class PointCloud:
    """A set of points ``{(p_k, f_k)}`` with continuous coordinates.

    ``features`` may be ``None`` for geometry-only clouds (mapping operations
    take only coordinates as input — paper Section 2.1), or a shape token
    for a geometry-only model run (see :mod:`repro.nn.ghost`).
    """

    points: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.features = _as_features(self.features)
        _check_points_features(self.points, self.features)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def ndim(self) -> int:
        return self.points.shape[1]

    @property
    def channels(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    def with_features(self, features: np.ndarray | None) -> "PointCloud":
        return PointCloud(self.points, features)

    def select(self, indices: np.ndarray) -> "PointCloud":
        """Subset of the cloud at the given point indices."""
        indices = np.asarray(indices)
        feats = None if self.features is None else self.features[indices]
        return PointCloud(self.points[indices], feats)

    def voxelize(self, voxel_size: float) -> "SparseTensor":
        """Quantize into a stride-1 sparse tensor, averaging features per voxel."""
        voxels, inverse = coord_ops.voxelize(self.points, voxel_size)
        if self.features is None:
            feats = None
        else:
            feats = np.zeros((len(voxels), self.channels), dtype=np.float64)
            np.add.at(feats, inverse, self.features)
            counts = np.bincount(inverse, minlength=len(voxels)).astype(np.float64)
            feats /= counts[:, None]
        # unique_coords output is sorted and duplicate-free by construction.
        return SparseTensor(voxels, feats, tensor_stride=1, _sorted=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PointCloud(n={self.n}, ndim={self.ndim}, channels={self.channels})"


@dataclass
class SparseTensor:
    """A voxelized point cloud: integer coordinates at a tensor stride.

    Invariants: coordinates are unique, lexicographically sorted and
    divisible by ``tensor_stride`` (the SparseConv quantization rule).  The
    constructor enforces sortedness/uniqueness so that downstream merge-sort
    based kernel mapping can rely on them.
    """

    coords: np.ndarray
    features: np.ndarray | None = None
    tensor_stride: int = 1
    _sorted: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.features = _as_features(self.features)
        _check_points_features(self.coords, self.features)
        if self.tensor_stride < 1:
            raise ValueError(f"tensor_stride must be >= 1, got {self.tensor_stride}")
        if np.any(self.coords % self.tensor_stride != 0):
            raise ValueError("coords must be divisible by tensor_stride")
        if not self._sorted:
            keys = coord_ops.coords_to_keys(self.coords)
            if len(keys) > 1 and np.any(np.diff(keys) <= 0):
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                if np.any(np.diff(keys) == 0):
                    raise ValueError("duplicate coordinates in SparseTensor")
                self.coords = self.coords[order]
                if self.features is not None:
                    self.features = self.features[order]
            self._sorted = True

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def ndim(self) -> int:
        return self.coords.shape[1]

    @property
    def channels(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    @property
    def keys(self) -> np.ndarray:
        """Packed lexicographic ranking keys of the coordinates."""
        return coord_ops.coords_to_keys(self.coords)

    def with_features(self, features: np.ndarray | None) -> "SparseTensor":
        """This cloud with new features (``None``, an array or a ghost).

        The result shares this tensor's ``coords`` array and stride, which
        already hold the invariants, so only the features are checked.
        """
        features = _as_features(features)
        _check_points_features(self.coords, features)
        tensor = copy.copy(self)
        tensor.features = features
        return tensor

    def downsample(self, stride_factor: int = 2) -> "SparseTensor":
        """Output-cloud construction by coordinate quantization (Section 2.1.1).

        Returns a geometry-only tensor at ``tensor_stride * stride_factor``;
        feature aggregation is the convolution's job, not the cloud's.
        """
        new_stride = self.tensor_stride * stride_factor
        out_coords, _ = coord_ops.quantize_unique(self.coords, new_stride)
        return SparseTensor(out_coords, None, tensor_stride=new_stride, _sorted=True)

    def to_point_cloud(self) -> PointCloud:
        """View voxel centers as a continuous cloud (for mixed pipelines)."""
        return PointCloud(self.coords.astype(np.float64), self.features)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseTensor(n={self.n}, ndim={self.ndim}, "
            f"channels={self.channels}, stride={self.tensor_stride})"
        )
