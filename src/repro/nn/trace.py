"""Workload traces: the interface between networks and hardware models.

Running a network functionally (numpy) on a concrete input cloud records a
:class:`Trace` — an ordered list of :class:`LayerSpec`s describing exactly
what work was done: mapping operations with their real map counts, explicit
gathers/scatters, dense matmuls and sparse convolutions with their shapes.

Every hardware model in this library (PointAcc itself and all the baseline
platforms) consumes the same trace, which is how the paper's comparisons are
apples-to-apples: identical workload, different machine models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["LayerKind", "LayerSpec", "Trace"]


class LayerKind(enum.Enum):
    """Operation categories, following paper Table 1 and Fig. 4."""

    # Mapping operations (Section 2.1).
    MAP_FPS = "map_fps"                # farthest point sampling
    MAP_RANDOM = "map_random"          # random sampling
    MAP_KNN = "map_knn"                # k nearest neighbors
    MAP_BALL = "map_ball"              # ball query
    MAP_KERNEL = "map_kernel"          # SparseConv kernel mapping
    MAP_QUANT = "map_quant"            # coordinate quantization (downsample)
    # Explicit data movement (Section 2.2) - costed by CPU/GPU/TPU models,
    # absorbed into the MMU flows on PointAcc.
    GATHER = "gather"
    SCATTER = "scatter"
    # Matrix computation.
    DENSE_MM = "dense_mm"              # FC / 1x1 conv / shared-MLP layer
    SPARSE_CONV = "sparse_conv"        # map-driven matmul of SparseConv
    # Aggregation / pointwise.
    POOL_MAX = "pool_max"              # neighborhood max aggregation
    GLOBAL_POOL = "global_pool"
    INTERP = "interp"                  # 3-NN weighted interpolation (FP layer)
    ELEMWISE = "elemwise"              # BN / ReLU / bias / residual add

    @property
    def is_mapping(self) -> bool:
        return self.value.startswith("map_")

    @property
    def is_movement(self) -> bool:
        return self in (LayerKind.GATHER, LayerKind.SCATTER)

    @property
    def is_matmul(self) -> bool:
        return self in (LayerKind.DENSE_MM, LayerKind.SPARSE_CONV)


@dataclass(frozen=True)
class LayerSpec:
    """One recorded operation.

    ``rows`` is the number of feature rows the op touches: output points for
    a dense FC, map entries for gather/scatter and sparse conv, input points
    for mapping ops.  ``n_in`` / ``n_out`` are the point counts of the
    surrounding clouds; ``kernel_volume`` the number of weight offsets /
    neighbors.  ``fusible`` marks pointwise dense ops eligible for the MMU's
    temporal layer fusion (consecutive fusible specs with matching point
    counts form a fusion chain).
    """

    name: str
    kind: LayerKind
    n_in: int
    n_out: int
    c_in: int = 0
    c_out: int = 0
    rows: int = 0
    n_maps: int = 0
    kernel_volume: int = 1
    fusible: bool = False
    params: dict = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        for attr in ("n_in", "n_out", "c_in", "c_out", "rows", "n_maps"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{self.name}: {attr} must be >= 0")
        if self.kernel_volume < 1:
            raise ValueError(f"{self.name}: kernel_volume must be >= 1")

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the op."""
        if self.kind is LayerKind.DENSE_MM:
            return self.rows * self.c_in * self.c_out
        if self.kind is LayerKind.SPARSE_CONV:
            return self.n_maps * self.c_in * self.c_out
        return 0

    @property
    def flops(self) -> int:
        """Total floating point op estimate (2x MACs, plus pointwise work)."""
        if self.kind.is_matmul:
            return 2 * self.macs
        if self.kind in (LayerKind.ELEMWISE, LayerKind.POOL_MAX, LayerKind.INTERP):
            return self.rows * max(self.c_out, self.c_in, 1)
        return 0

    def moved_elements(self) -> int:
        """Feature elements moved by an explicit gather/scatter."""
        if self.kind is LayerKind.GATHER:
            return self.n_maps * self.c_in
        if self.kind is LayerKind.SCATTER:
            return self.n_maps * self.c_out
        return 0


@dataclass
class Trace:
    """An ordered workload trace plus aggregate statistics.

    ``meta`` carries build provenance that is *not* part of the workload
    itself — e.g. the simulation engine stamps the workload key there.
    Hardware models must never read it (two traces
    with different ``meta`` describe identical work), which is why it stays
    out of ``summary()``'s workload counts.
    """

    specs: list[LayerSpec] = field(default_factory=list)
    name: str = ""
    input_points: int = 0  # points in the raw network input (set by runners)
    meta: dict = field(default_factory=dict)

    def record(self, spec: LayerSpec) -> LayerSpec:
        self.specs.append(spec)
        return spec

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def by_kind(self, *kinds: LayerKind) -> list[LayerSpec]:
        return [s for s in self.specs if s.kind in kinds]

    @property
    def total_macs(self) -> int:
        return sum(s.macs for s in self.specs)

    @property
    def matmul_specs(self) -> list[LayerSpec]:
        return [s for s in self.specs if s.kind.is_matmul]

    @property
    def mapping_specs(self) -> list[LayerSpec]:
        return [s for s in self.specs if s.kind.is_mapping]

    @property
    def movement_specs(self) -> list[LayerSpec]:
        return [s for s in self.specs if s.kind.is_movement]

    def macs_per_point(self, n_input_points: int) -> float:
        if n_input_points <= 0:
            raise ValueError("n_input_points must be positive")
        return self.total_macs / n_input_points

    def max_feature_bytes_per_point(self, bytes_per_element: int = 4) -> float:
        """Peak per-point feature footprint across layers (paper Fig. 5 right).

        For each matmul layer: bytes of one point's input plus output
        features, times the neighborhood multiplicity (gathered features are
        replicated per map — the paper's "features can be repeatedly accessed
        up to 27 times").
        """
        peak = 0.0
        for spec in self.specs:
            if not spec.kind.is_matmul:
                continue
            if spec.kind is LayerKind.SPARSE_CONV and spec.n_out > 0:
                multiplicity = spec.n_maps / spec.n_out
            elif spec.rows > 0 and spec.n_out > 0:
                multiplicity = spec.rows / spec.n_out
            else:
                multiplicity = 1.0
            per_point = (spec.c_in * multiplicity + spec.c_out) * bytes_per_element
            peak = max(peak, per_point)
        return peak

    def summary(self) -> dict:
        """Aggregate counts used by reports and tests."""
        return {
            "layers": len(self.specs),
            "total_macs": self.total_macs,
            "mapping_ops": len(self.mapping_specs),
            "matmul_ops": len(self.matmul_specs),
            "movement_ops": len(self.movement_specs),
            "total_maps": sum(s.n_maps for s in self.specs if s.kind.is_mapping),
        }
