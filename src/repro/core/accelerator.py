"""The PointAcc top-level model: schedule a trace, produce a PerfReport.

Walks a workload trace (Section 5.1's methodology: a cycle-level simulator
driven by the real network execution) and dispatches each op:

* mapping ops -> Mapping Unit cost model,
* runs of fusible dense layers -> fused groups (MMU stack mode) on the
  Matrix Unit,
* sparse convolutions -> Matrix Unit + MMU fetch-on-demand cache,
* pooling / interpolation / elementwise -> the vector path,
* explicit GATHER/SCATTER specs -> skipped (PointAcc absorbs them into the
  MMU; they exist in traces for the baseline platforms).

Per layer, memory transfers double-buffer behind compute, so layer latency
is ``max(compute, dram)`` with the un-hidden remainder attributed to the
``movement`` category (Fig. 21a).
"""

from __future__ import annotations

from ..nn.trace import LayerKind, LayerSpec, Trace
from .config import PointAccConfig, POINTACC_FULL
from .energy import DEFAULT_ENERGY, EnergyConstants, EnergyLedger
from .mmu.fusion import FusionGroup
from .mmu.unit import MemCost, MemoryManagementUnit
from .mpu.unit import ELEMENT_BYTES, MAP_ENTRY_BYTES, MappingUnit, MPUStats
from .mxu.systolic import MatrixUnit, MXUStats
from .report import LayerRecord, PerfReport

__all__ = ["PointAccModel"]


class PointAccModel:
    """Cycle-level cost model of one PointAcc configuration.

    Every :class:`~repro.core.report.LayerRecord` is built directly from
    its spec, so each report is a fresh object, and the model keeps no
    state across runs.  Repeated work is saved where it is shared: the MMU
    memoizes cache replays and miss bounds on each map table
    (:func:`~repro.core.mmu.cache.simulate_conv_cache`,
    :func:`~repro.core.mmu.cache.group_miss_bound`).
    """

    def __init__(
        self,
        config: PointAccConfig = POINTACC_FULL,
        energy: EnergyConstants = DEFAULT_ENERGY,
    ) -> None:
        self.config = config
        self.energy = energy
        self.mpu = MappingUnit(config)
        self.mmu = MemoryManagementUnit(config)
        self.mxu = MatrixUnit(config.pe_rows, config.pe_cols,
                              config.bytes_per_element)

    # ------------------------------------------------------------------
    # Mapping-op costing from spec counts
    # ------------------------------------------------------------------

    def _mapping_stats(self, spec: LayerSpec) -> MPUStats:
        kind = spec.kind
        width = self.config.merger_width
        lanes = self.config.mpu_lanes
        stats = MPUStats()
        if spec.params.get("cached"):
            # Maps computed earlier in the run (same clouds, same offsets)
            # are re-streamed from DRAM through the map FIFO, not recomputed.
            stats.cycles = -(-spec.n_maps // width)
            stats.dram_read_bytes = float(spec.n_maps * MAP_ENTRY_BYTES)
            return stats
        if kind is LayerKind.MAP_KERNEL:
            from .mpu.intersection import detector_stages
            from .mpu.merge_stream import streaming_merge_cycles
            from .mpu.bitonic import merger_comparators

            merge_cycles = streaming_merge_cycles(spec.n_in, spec.n_out, width)
            stats.cycles = spec.kernel_volume * (
                merge_cycles + detector_stages(width)
            )
            stats.compare_ops = spec.kernel_volume * (
                merge_cycles * merger_comparators(width)
                + (spec.n_in + spec.n_out)
            )
            stream = float(
                spec.kernel_volume * (spec.n_in + spec.n_out) * ELEMENT_BYTES
            )
            stats.sram_bytes = stream
            stats.dram_read_bytes = stream
            stats.dram_write_bytes = float(spec.n_maps * MAP_ENTRY_BYTES)
        elif kind in (LayerKind.MAP_FPS, LayerKind.MAP_RANDOM):
            n, m = spec.n_in, spec.n_out
            if kind is LayerKind.MAP_RANDOM:
                stats.cycles = -(-m // lanes)
                stats.dram_write_bytes = float(m * 4)
            else:
                per_iter = -(-n // lanes)
                stats.cycles = m * per_iter
                stats.distance_ops = m * n
                stats.compare_ops = m * n
                element_bytes = n * ELEMENT_BYTES
                if element_bytes <= self.config.sram.sorter_kb * 1024:
                    stats.dram_read_bytes = float(element_bytes)
                    stats.sram_bytes = float(2 * m * element_bytes)
                else:
                    stats.dram_read_bytes = float(m * element_bytes)
                    stats.sram_bytes = float(m * element_bytes)
                stats.dram_write_bytes = float(m * 4)
        elif kind in (LayerKind.MAP_KNN, LayerKind.MAP_BALL):
            k = spec.kernel_volume
            dim = int(spec.params.get("feature_dim", 3))
            stats = self.mpu._topk_search_stats(spec.n_out, spec.n_in, k, dim)
        elif kind is LayerKind.MAP_QUANT:
            n = spec.n_in
            stats.cycles = -(-n // width)
            stats.compare_ops = max(n - 1, 0)
            stream = float(n * ELEMENT_BYTES)
            stats.sram_bytes = stream
            stats.dram_read_bytes = stream
            stats.dram_write_bytes = float(spec.n_out * ELEMENT_BYTES)
        else:
            raise ValueError(f"not a mapping op: {kind}")
        return stats

    def _mapping_record(self, spec: LayerSpec) -> LayerRecord:
        stats = self._mapping_stats(spec)
        cfg = self.config
        compute_s = cfg.cycles_to_seconds(stats.cycles)
        dram_bytes = stats.dram_read_bytes + stats.dram_write_bytes
        dram_s = cfg.dram.transfer_seconds(dram_bytes)
        seconds = max(compute_s, dram_s)
        ledger = EnergyLedger(
            compute_pj=(
                stats.compare_ops * self.energy.compare_pj
                + stats.distance_ops * 3 * self.energy.vector_op_pj
            ),
            sram_pj=self.energy.sram_access_pj(
                stats.sram_bytes, cfg.sram.sorter_kb
            ),
            dram_pj=cfg.dram.transfer_energy_pj(dram_bytes),
        )
        return LayerRecord(
            name=spec.name,
            kind=spec.kind.value,
            seconds=seconds,
            category_seconds={"mapping": seconds},
            cycles=stats.cycles,
            dram_read_bytes=stats.dram_read_bytes,
            dram_write_bytes=stats.dram_write_bytes,
            energy=ledger,
        )

    # ------------------------------------------------------------------
    # Matmul costing
    # ------------------------------------------------------------------

    def _matmul_record(
        self, name: str, kind: str, mxu: MXUStats, mem: MemCost
    ) -> LayerRecord:
        cfg = self.config
        compute_s = cfg.cycles_to_seconds(mxu.cycles)
        dram_s = cfg.dram.transfer_seconds(mem.total_bytes)
        seconds = max(compute_s, dram_s)
        stall = max(0.0, dram_s - compute_s)
        ledger = EnergyLedger(
            compute_pj=mxu.macs * self.energy.mac_pj,
            sram_pj=(
                self.energy.sram_access_pj(
                    mxu.input_sram_bytes, cfg.sram.input_kb
                )
                + self.energy.sram_access_pj(
                    mxu.weight_sram_bytes, cfg.sram.weight_kb
                )
                + self.energy.sram_access_pj(
                    mxu.output_sram_bytes, cfg.sram.output_kb
                )
            ),
            dram_pj=cfg.dram.transfer_energy_pj(mem.total_bytes),
        )
        detail = {}
        if mem.block_points is not None:
            detail["block_points"] = mem.block_points
        if mem.cache_stats is not None:
            detail["miss_rate"] = mem.cache_stats.miss_rate
        return LayerRecord(
            name=name,
            kind=kind,
            seconds=seconds,
            category_seconds={"matmul": compute_s, "movement": stall},
            cycles=mxu.cycles,
            macs=mxu.macs,
            dram_read_bytes=mem.dram_read_bytes,
            dram_write_bytes=mem.dram_write_bytes,
            energy=ledger,
            detail=detail,
        )

    def _sparse_conv_record(
        self, spec: LayerSpec, flow: str = "fetch_on_demand"
    ) -> LayerRecord:
        mxu = self.mxu.sparse_conv(spec)
        if flow == "fetch_on_demand":
            mem = self.mmu.sparse_conv_cost(spec)
        elif flow == "gather_scatter":
            mem = self.mmu.gather_scatter_cost(spec)
        else:
            raise ValueError(f"unknown flow {flow!r}")
        return self._matmul_record(spec.name, spec.kind.value, mxu, mem)

    def _fused_group_record(self, group: FusionGroup) -> LayerRecord:
        mxu_total = MXUStats()
        for spec in group.specs:
            mxu_total.add(self.mxu.dense_mm(spec.rows, spec.c_in, spec.c_out))
        mem = self.mmu.fused_group_cost(group)
        name = group.specs[0].name
        if group.n_layers > 1:
            name += f"+{group.n_layers - 1}fused"
        return self._matmul_record(name, "dense_fused", mxu_total, mem)

    def _dense_record(self, spec: LayerSpec) -> LayerRecord:
        mxu = self.mxu.dense_mm(spec.rows, spec.c_in, spec.c_out)
        mem = self.mmu.unfused_dense_cost(spec)
        return self._matmul_record(spec.name, spec.kind.value, mxu, mem)

    # ------------------------------------------------------------------
    # Vector path
    # ------------------------------------------------------------------

    def _vector_record(self, spec: LayerSpec) -> LayerRecord:
        cfg = self.config
        elems = spec.rows * max(spec.c_in, spec.c_out, 1)
        cycles = -(-elems // cfg.vector_lanes)
        mem = self.mmu.elementwise_cost(spec)
        compute_s = cfg.cycles_to_seconds(cycles)
        dram_s = cfg.dram.transfer_seconds(mem.total_bytes)
        seconds = max(compute_s, dram_s)
        ledger = EnergyLedger(
            compute_pj=elems * self.energy.vector_op_pj,
            sram_pj=self.energy.sram_access_pj(
                elems * cfg.bytes_per_element, cfg.sram.output_kb
            ),
            dram_pj=cfg.dram.transfer_energy_pj(mem.total_bytes),
        )
        return LayerRecord(
            name=spec.name,
            kind=spec.kind.value,
            seconds=seconds,
            category_seconds={"other": seconds},
            cycles=cycles,
            dram_read_bytes=mem.dram_read_bytes,
            dram_write_bytes=mem.dram_write_bytes,
            energy=ledger,
        )

    # ------------------------------------------------------------------
    # Trace walk
    # ------------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        fusion: bool = True,
        flow: str = "fetch_on_demand",
    ) -> PerfReport:
        """Execute a trace; returns the full per-layer report."""
        report = PerfReport(platform=self.config.name, network=trace.name)
        group_of: dict[int, FusionGroup] = {}
        first_of_group: dict[int, int] = {}
        if fusion:
            plan = self.mmu.plan_fusion(trace)
            for group in plan.groups:
                head = id(group.specs[0])
                for spec in group.specs:
                    group_of[id(spec)] = group
                    first_of_group[id(spec)] = head
        for spec in trace:
            kind = spec.kind
            if kind.is_mapping:
                report.add(self._mapping_record(spec))
            elif kind.is_movement:
                continue  # absorbed by the MMU on PointAcc
            elif kind is LayerKind.SPARSE_CONV:
                report.add(self._sparse_conv_record(spec, flow))
            elif kind is LayerKind.DENSE_MM:
                group = group_of.get(id(spec))
                if group is None:
                    report.add(self._dense_record(spec))
                elif first_of_group[id(spec)] == id(spec):
                    report.add(self._fused_group_record(group))
                # non-head members are covered by the group record
            elif kind in (
                LayerKind.POOL_MAX,
                LayerKind.GLOBAL_POOL,
                LayerKind.INTERP,
                LayerKind.ELEMWISE,
            ):
                report.add(self._vector_record(spec))
            else:
                raise ValueError(f"unhandled spec kind {kind}")
        # Static energy over the whole run.
        total_s = report.total_seconds
        if report.records:
            report.records[-1].energy.static_pj += (
                self.energy.leakage_w * total_s * 1e12
            )
        return report
