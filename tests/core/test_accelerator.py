"""Tests for the top-level PointAcc model and PerfReport."""

import pytest

from repro.core import (
    CATEGORIES,
    LayerRecord,
    PerfReport,
    PointAccModel,
    POINTACC_EDGE,
    POINTACC_FULL,
)
from repro.core.energy import EnergyLedger
from repro.nn.models import build_trace
from repro.nn.trace import LayerKind

SCALE = 0.08


@pytest.fixture(scope="module")
def pn_trace():
    return build_trace("PointNet++(c)", scale=SCALE, seed=2)


@pytest.fixture(scope="module")
def mink_trace():
    return build_trace("MinkNet(o)", scale=SCALE, seed=2)


@pytest.fixture(scope="module")
def model():
    return PointAccModel(POINTACC_FULL)


class TestPerfReport:
    def test_category_validation(self):
        rep = PerfReport("p", "n")
        with pytest.raises(ValueError):
            rep.add(LayerRecord(
                name="x", kind="k", seconds=1.0,
                category_seconds={"bogus": 1.0},
            ))

    def test_totals_and_fps(self):
        rep = PerfReport("p", "n")
        rep.add(LayerRecord(name="a", kind="k", seconds=0.25,
                            category_seconds={"matmul": 0.25}, macs=10))
        rep.add(LayerRecord(name="b", kind="k", seconds=0.25,
                            category_seconds={"mapping": 0.25}))
        assert rep.total_seconds == 0.5
        assert rep.fps() == 2.0
        assert rep.total_macs == 10
        frac = rep.latency_fractions()
        assert frac["matmul"] == frac["mapping"] == 0.5

    def test_energy_aggregation(self):
        rep = PerfReport("p", "n")
        rep.add(LayerRecord(name="a", kind="k", seconds=1.0,
                            category_seconds={"other": 1.0},
                            energy=EnergyLedger(compute_pj=100)))
        assert rep.energy.compute_pj == 100

    def test_summary_fields(self, model, pn_trace):
        s = model.run(pn_trace).summary()
        for key in ("latency_ms", "energy_mj", "dram_mb", "macs_g", "breakdown"):
            assert key in s


class TestPointAccModel:
    def test_runs_every_benchmark_kind(self, model, pn_trace, mink_trace):
        for trace in (pn_trace, mink_trace):
            rep = model.run(trace)
            assert rep.total_seconds > 0
            assert rep.energy_joules > 0

    def test_movement_specs_absorbed(self, model, pn_trace):
        rep = model.run(pn_trace)
        kinds = {r.kind for r in rep.records}
        assert "gather" not in kinds and "scatter" not in kinds

    def test_macs_conserved(self, model, mink_trace):
        rep = model.run(mink_trace)
        assert rep.total_macs == mink_trace.total_macs

    def test_fusion_reduces_dram_not_macs(self, model, pn_trace):
        fused = model.run(pn_trace, fusion=True)
        unfused = model.run(pn_trace, fusion=False)
        assert fused.dram_bytes < unfused.dram_bytes
        assert fused.total_macs == unfused.total_macs

    def test_fetch_on_demand_beats_gather_scatter(self, model, mink_trace):
        fod = model.run(mink_trace, flow="fetch_on_demand")
        gs = model.run(mink_trace, flow="gather_scatter")
        assert fod.dram_bytes < gs.dram_bytes
        assert fod.total_seconds <= gs.total_seconds

    def test_unknown_flow_rejected(self, model, mink_trace):
        with pytest.raises(ValueError):
            model.run(mink_trace, flow="teleport")

    def test_edge_slower_than_full(self, pn_trace):
        full = PointAccModel(POINTACC_FULL).run(pn_trace)
        edge = PointAccModel(POINTACC_EDGE).run(pn_trace)
        assert edge.total_seconds > full.total_seconds

    def test_matmul_dominates_minknet(self, model, mink_trace):
        """Fig. 21a: with mapping on-chip and movement overlapped, MatMul
        dominates PointAcc latency."""
        frac = model.run(mink_trace).latency_fractions()
        assert frac["matmul"] > 0.5
        assert frac["matmul"] > frac["mapping"]

    def test_cached_kernel_maps_cost_less(self, model, mink_trace):
        recs = {
            r.name: r for r in model.run(mink_trace).records
            if r.kind == "map_kernel"
        }
        cached = [r for r in recs.values() if "block0.conv2" in r.name]
        uncached = [r for r in recs.values() if "stem1" in r.name]
        assert cached and uncached
        assert cached[0].cycles < uncached[0].cycles

    def test_energy_pie_fields(self, model, mink_trace):
        pie = model.run(mink_trace).energy.breakdown()
        assert set(pie) == {"compute", "sram", "dram"}
        assert sum(pie.values()) == pytest.approx(1.0)

    def test_per_layer_detail_exposes_cache_tuning(self, model, mink_trace):
        rep = model.run(mink_trace)
        conv_records = [r for r in rep.records if r.kind == "sparse_conv"]
        assert conv_records
        assert all("block_points" in r.detail for r in conv_records)


class TestModelReuse:
    """A model serves many runs (engines keep one per backend) and shares
    the MMU's replay memo on each map table: reuse may never change a
    report, and reports are the caller's to keep."""

    def test_replay_equals_fresh_model(self, mink_trace):
        warm = PointAccModel(POINTACC_FULL)
        first = warm.run(mink_trace)
        second = warm.run(mink_trace)
        cold = PointAccModel(POINTACC_FULL).run(mink_trace)
        assert first == cold
        assert second == cold

    def test_flows_on_one_model_do_not_alias(self, mink_trace):
        model = PointAccModel(POINTACC_FULL)
        fetch = model.run(mink_trace, flow="fetch_on_demand")
        gather = model.run(mink_trace, flow="gather_scatter")
        assert fetch != gather
        assert gather == PointAccModel(POINTACC_FULL).run(
            mink_trace, flow="gather_scatter"
        )

    def test_mutating_a_report_does_not_change_a_later_run(self, mink_trace):
        model = PointAccModel(POINTACC_FULL)
        reference = PointAccModel(POINTACC_FULL).run(mink_trace)
        first = model.run(mink_trace)
        first.records[0].seconds = -1.0
        first.records[0].energy.compute_pj = -1.0
        first.records[-1].energy.static_pj = -1.0
        assert model.run(mink_trace) == reference
