"""Memory Management Unit: ties cache, dataflow and fusion together.

For sparse computation the MMU runs fetch-on-demand with the input buffers
configured as a cache, auto-selecting the block size per layer ("MMU is
configured with different block sizes when running different SparseConv
layers" — Section 4.2.3).  For dense computation it runs scratchpad mode
with temporal layer fusion (Section 4.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...mapping.maps import MapTable
from ...nn.trace import LayerKind, LayerSpec, Trace
from ..config import PointAccConfig
from .cache import CacheStats, group_miss_bound
from .dataflow import FlowCost, fetch_on_demand_cost, gather_matmul_scatter_cost
from .fusion import FusionGroup, FusionPlan, FusionPlanner

__all__ = ["MemCost", "MemoryManagementUnit", "CANDIDATE_BLOCK_POINTS"]

CANDIDATE_BLOCK_POINTS = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class MemCost:
    """DRAM traffic of one layer (or fused group) plus cache telemetry."""

    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    block_points: int | None = None
    cache_stats: CacheStats | None = None

    @property
    def total_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


class MemoryManagementUnit:
    """Per-config MMU cost model."""

    def __init__(self, config: PointAccConfig) -> None:
        self.config = config
        self.input_buffer_bytes = int(config.sram.input_kb * 1024)
        self.weight_buffer_bytes = int(config.sram.weight_kb * 1024)
        self.output_buffer_bytes = int(config.sram.output_kb * 1024)
        self.elem_bytes = config.bytes_per_element
        self.planner = FusionPlanner(
            feature_buffer_bytes=self.input_buffer_bytes,
            weight_buffer_bytes=self.weight_buffer_bytes,
            elem_bytes=self.elem_bytes,
        )

    # -- sparse computation -------------------------------------------------

    def sparse_conv_cost(
        self, spec: LayerSpec, maps: MapTable | None = None
    ) -> MemCost:
        """Fetch-on-demand cost with per-layer block-size auto-tuning.

        The tuner keeps the first strict minimum of total bytes, and skips
        a candidate block size, never replaying it, when a proof shows it
        cannot beat the best so far.  Two proofs apply:

        * **Even set counts.**  A candidate ``2b`` is skipped when the
          cache at block size ``b`` has an even set count ``N``: then coarse
          set ``s`` is exactly fine sets ``{2s, 2s+1}``, and while one
          coarse block stays resident each fine set sees one fine block, so
          a coarse miss covers at most two fine misses.  Input bytes
          therefore never fall (``misses(2b) * 2b >= misses(b) * b``), the
          fixed traffic is equal, and ``bytes(2b) >= bytes(b) >= best``
          cannot win; the bound chains across skipped sizes.  Odd ``N``
          breaks it — a 10 B cache, ``c_in`` 1, 2-byte elements and inputs
          ``0,1,6,1,6`` cost 10 B at block 1 (5 sets) but 8 B at block 2
          (2 sets) — so those go to the second proof.
        * **Distinct blocks per weight group.**  Within one weight group, a
          block's first access can hit only if that block was already in
          the cache when the group began, and at most ``N`` blocks are.  So
          ``misses >= sum_g max(0, D_g - N)``, with ``D_g`` the distinct
          blocks group ``g`` reads (:func:`~.cache.group_miss_bound`).  A
          candidate whose bound already costs ``>= best`` total bytes is
          skipped: the total never decreases as misses grow, float
          rounding included, so the replay could not be a strict minimum.
          The bound is taken only where ``D_g`` is cheap — tables whose
          ``in_idx`` strictly increases within every weight group, as every
          merge-sort kernel map over a sorted cloud does; any other table
          replays every candidate the first proof leaves.
        """
        if maps is None:
            maps = spec.params.get("maps")
        best: tuple[float, FlowCost, CacheStats | None, int] | None = None
        if maps is not None:
            point_bytes = max(spec.c_in, 1) * self.elem_bytes
            prev_points, prev_sets = 0, 1
            for block_points in CANDIDATE_BLOCK_POINTS:
                block_bytes = block_points * point_bytes
                if block_bytes > self.input_buffer_bytes:
                    break
                n_sets = self.input_buffer_bytes // block_bytes
                bounded = block_points == 2 * prev_points and prev_sets % 2 == 0
                prev_points, prev_sets = block_points, n_sets
                if bounded:
                    continue
                if best is not None:
                    # Candidates differ only in their input fills, so the
                    # bound's flow is the best's with the bound's fills.
                    floor = group_miss_bound(maps, block_points, n_sets)
                    if floor is not None and replace(
                        best[1], input_read=float(floor * block_bytes)
                    ).total_bytes >= best[0]:
                        continue
                cost, stats = fetch_on_demand_cost(
                    spec,
                    self.input_buffer_bytes,
                    block_points=block_points,
                    elem_bytes=self.elem_bytes,
                    maps=maps,
                )
                if best is None or cost.total_bytes < best[0]:
                    best = (cost.total_bytes, cost, stats, block_points)
        if best is None:
            cost, stats = fetch_on_demand_cost(
                spec,
                self.input_buffer_bytes,
                elem_bytes=self.elem_bytes,
                maps=None,
            )
            best = (cost.total_bytes, cost, stats, 16)
        _, cost, stats, block_points = best
        return MemCost(
            dram_read_bytes=cost.read_bytes,
            dram_write_bytes=cost.write_bytes,
            block_points=block_points,
            cache_stats=stats,
        )

    def gather_scatter_cost(self, spec: LayerSpec) -> MemCost:
        """The GPU-style flow, for ablation comparisons (Fig. 17/19)."""
        cost = gather_matmul_scatter_cost(spec, self.elem_bytes)
        return MemCost(
            dram_read_bytes=cost.read_bytes, dram_write_bytes=cost.write_bytes
        )

    # -- dense computation --------------------------------------------------

    def plan_fusion(self, trace: Trace) -> FusionPlan:
        return self.planner.plan(trace)

    def fused_group_cost(self, group: FusionGroup) -> MemCost:
        """Scratchpad-mode traffic of a fused dense group."""
        eb = self.elem_bytes
        read = group.rows * group.c_in * eb + group.weight_bytes(eb)
        # A trailing global reduction consumes the final features on-chip
        # (elide_output): only the pooled vector leaves the chip, charged by
        # the pool record itself.
        out_rows = 0 if group.elide_output else group.rows
        write = out_rows * group.c_out * eb
        return MemCost(dram_read_bytes=float(read), dram_write_bytes=float(write))

    def unfused_dense_cost(self, spec: LayerSpec) -> MemCost:
        eb = self.elem_bytes
        return MemCost(
            dram_read_bytes=float(
                spec.rows * spec.c_in * eb + spec.c_in * spec.c_out * eb
            ),
            dram_write_bytes=float(spec.rows * spec.c_out * eb),
        )

    # -- lightweight ops ----------------------------------------------------

    def elementwise_cost(self, spec: LayerSpec) -> MemCost:
        """Pool / interp / elementwise: streams operands through the
        vector path; inputs usually arrive fused from the producing matmul,
        so only spilled traffic counts (outputs of pooling that feed a
        mapping op, etc.).  Conservatively charge one read + one write of
        the touched rows."""
        eb = self.elem_bytes
        c = max(spec.c_in, spec.c_out, 1)
        if spec.kind is LayerKind.GLOBAL_POOL:
            return MemCost(dram_read_bytes=0.0, dram_write_bytes=float(c * eb))
        return MemCost(
            dram_read_bytes=0.0,
            dram_write_bytes=float(spec.n_out * max(spec.c_out, 1) * eb),
        )
