"""Tests for Linear/SharedMLP layers and trace recording."""

import numpy as np
import pytest

from repro.nn import Linear, SharedMLP, Trace, new_param_rng
from repro.nn.ghost import GhostFeatures, is_ghost
from repro.nn.trace import LayerKind, LayerSpec


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(8, 16, new_param_rng(0))
        y = layer(rng.normal(size=(10, 8)))
        assert y.shape == (10, 16)

    def test_relu_applied(self, rng):
        layer = Linear(4, 4, new_param_rng(0), relu=True)
        y = layer(rng.normal(size=(50, 4)))
        assert np.all(y >= 0)

    def test_no_relu_allows_negatives(self, rng):
        layer = Linear(4, 4, new_param_rng(0), relu=False, bn=False)
        y = layer(rng.normal(size=(200, 4)))
        assert np.any(y < 0)

    def test_deterministic_weights(self, rng):
        a = Linear(4, 4, new_param_rng(3), relu=False, bn=False)
        b = Linear(4, 4, new_param_rng(3), relu=False, bn=False)
        x = rng.normal(size=(5, 4))
        assert np.allclose(a(x), b(x))

    def test_records_dense_spec(self, rng):
        layer = Linear(8, 16, new_param_rng(0), name="fc1")
        trace = Trace()
        layer(rng.normal(size=(12, 8)), trace)
        assert len(trace) == 1
        spec = trace.specs[0]
        assert spec.kind is LayerKind.DENSE_MM
        assert spec.rows == 12 and spec.c_in == 8 and spec.c_out == 16
        assert spec.fusible
        assert spec.macs == 12 * 8 * 16

    def test_wrong_width_raises(self, rng):
        layer = Linear(8, 16, new_param_rng(0))
        with pytest.raises(ValueError):
            layer(rng.normal(size=(4, 9)))

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            Linear(0, 4, new_param_rng(0))

    def test_weightless_layer_refuses_real_features(self, rng):
        layer = Linear(8, 16, new_param_rng(0, weightless=True), name="head")
        # Every parameter is a shape token (np.abs on bn_var included).
        params = (layer.weight, layer.bias, layer.bn_gamma, layer.bn_beta,
                  layer.bn_mean, layer.bn_var)
        assert all(is_ghost(p) for p in params)
        with pytest.raises(ValueError, match="head: a weightless layer"):
            layer(rng.normal(size=(4, 8)))
        ghost_trace, full_trace = Trace(), Trace()
        out = layer(GhostFeatures(4, 8), ghost_trace)
        Linear(8, 16, new_param_rng(0), name="head")(
            rng.normal(size=(4, 8)), full_trace
        )
        assert is_ghost(out) and out.shape == (4, 16)
        assert ghost_trace.specs == full_trace.specs


class TestSharedMLP:
    def test_channel_chain(self, rng):
        mlp = SharedMLP(3, [8, 16, 32], new_param_rng(0))
        assert mlp.c_in == 3 and mlp.c_out == 32
        y = mlp(rng.normal(size=(7, 3)))
        assert y.shape == (7, 32)

    def test_final_relu_false(self, rng):
        mlp = SharedMLP(4, [8, 8], new_param_rng(0), final_relu=False)
        y = mlp(rng.normal(size=(100, 4)))
        assert np.any(y < 0)

    def test_records_one_spec_per_layer(self, rng):
        mlp = SharedMLP(3, [8, 16], new_param_rng(0))
        trace = Trace()
        mlp(rng.normal(size=(5, 3)), trace)
        assert len(trace) == 2
        assert [s.c_out for s in trace.specs] == [8, 16]

    def test_empty_channels_rejected(self):
        with pytest.raises(ValueError):
            SharedMLP(3, [], new_param_rng(0))


class TestTrace:
    def _dense(self, rows=10, c_in=4, c_out=8, fusible=True):
        return LayerSpec(
            name="l", kind=LayerKind.DENSE_MM, n_in=rows, n_out=rows,
            c_in=c_in, c_out=c_out, rows=rows, fusible=fusible,
        )

    def test_total_macs(self):
        trace = Trace()
        trace.record(self._dense())
        trace.record(self._dense(rows=5))
        assert trace.total_macs == 10 * 32 + 5 * 32

    def test_kind_predicates(self):
        assert LayerKind.MAP_FPS.is_mapping
        assert not LayerKind.DENSE_MM.is_mapping
        assert LayerKind.GATHER.is_movement
        assert LayerKind.SPARSE_CONV.is_matmul

    def test_sparse_conv_macs_use_maps(self):
        spec = LayerSpec(
            name="c", kind=LayerKind.SPARSE_CONV, n_in=100, n_out=100,
            c_in=8, c_out=8, rows=900, n_maps=900, kernel_volume=27,
        )
        assert spec.macs == 900 * 64

    def test_moved_elements(self):
        g = LayerSpec(name="g", kind=LayerKind.GATHER, n_in=10, n_out=5,
                      c_in=16, n_maps=50)
        s = LayerSpec(name="s", kind=LayerKind.SCATTER, n_in=10, n_out=5,
                      c_out=32, n_maps=50)
        assert g.moved_elements() == 800
        assert s.moved_elements() == 1600
        assert self._dense().moved_elements() == 0

    def test_by_kind_and_categories(self):
        trace = Trace()
        trace.record(self._dense())
        trace.record(LayerSpec(name="f", kind=LayerKind.MAP_FPS,
                               n_in=100, n_out=10, rows=100))
        assert len(trace.mapping_specs) == 1
        assert len(trace.matmul_specs) == 1
        assert len(trace.by_kind(LayerKind.MAP_FPS, LayerKind.DENSE_MM)) == 2

    def test_macs_per_point(self):
        trace = Trace()
        trace.record(self._dense(rows=100))
        assert trace.macs_per_point(100) == 32.0
        with pytest.raises(ValueError):
            trace.macs_per_point(0)

    def test_summary_keys(self):
        trace = Trace()
        trace.record(self._dense())
        s = trace.summary()
        assert s["layers"] == 1 and s["matmul_ops"] == 1
