"""End-to-end tests of the benchmark model zoo (small scales)."""

import hashlib

import numpy as np
import pytest

from repro.nn.models import (
    BENCHMARKS,
    MINI_MINKUNET,
    build_trace,
    get_benchmark,
    mini_minkunet,
    run_benchmark,
)
from repro.nn.trace import LayerKind
from repro.pointcloud import generate_sample


SCALE = 0.08
POINT_NETWORKS = sorted(
    n for n, b in BENCHMARKS.items() if b.family == "pointnet++"
)


def _state(obj):
    """Every attribute reachable from ``obj``: arrays by value, modules
    (any object with a ``__dict__``) attribute by attribute."""
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return [_state(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _state(value) for key, value in obj.items()}
    if hasattr(obj, "__dict__"):
        return _state(vars(obj))
    return obj


def _output_arrays(out) -> list:
    """A network's raw output as arrays (F-PointNet++ returns detections)."""
    return [det["box"] for det in out] if isinstance(out, list) else [out]


class TestZoo:
    @pytest.mark.parametrize("notation", sorted(BENCHMARKS))
    def test_runs_and_traces(self, notation):
        trace, output = run_benchmark(notation, scale=SCALE, seed=3)
        assert len(trace) > 0
        assert trace.total_macs > 0
        assert trace.input_points > 0

    def test_pointnet_output_is_class_logits(self):
        _, out = run_benchmark("PointNet", scale=SCALE, seed=0)
        assert out.shape == (40,)
        assert np.all(np.isfinite(out))

    def test_pointnet2_cls_logits(self):
        _, out = run_benchmark("PointNet++(c)", scale=SCALE, seed=0)
        assert out.shape == (40,)

    def test_partseg_per_point_logits(self):
        trace, out = run_benchmark("PointNet++(ps)", scale=SCALE, seed=0)
        assert out.shape == (trace.input_points, 50)

    def test_dgcnn_per_point_logits(self):
        trace, out = run_benchmark("DGCNN", scale=SCALE, seed=0)
        assert out.shape == (trace.input_points, 50)

    def test_semseg_per_point_logits(self):
        trace, out = run_benchmark("PointNet++(s)", scale=SCALE, seed=0)
        assert out.shape == (trace.input_points, 13)

    def test_frustum_detections(self):
        _, detections = run_benchmark("F-PointNet++", scale=0.25, seed=0)
        assert len(detections) >= 1
        for det in detections:
            assert det["box"].shape == (59,)

    def test_minknet_per_voxel_logits(self):
        trace, out = run_benchmark("MinkNet(o)", scale=SCALE, seed=0)
        assert out.shape[1] == 19
        assert out.shape[0] == trace.input_points

    def test_mini_minkunet_smaller_than_full(self):
        mini = build_trace("Mini-MinkowskiUNet", scale=SCALE, seed=0)
        full = build_trace("MinkNet(i)", scale=SCALE, seed=0)
        assert mini.total_macs < full.total_macs / 4

    def test_deterministic_traces(self):
        a = run_benchmark("PointNet++(c)", scale=SCALE, seed=5)[0]
        b = run_benchmark("PointNet++(c)", scale=SCALE, seed=5)[0]
        assert a.total_macs == b.total_macs
        assert len(a) == len(b)

    @pytest.mark.parametrize("notation", POINT_NETWORKS)
    def test_forward_writes_no_model_state(self, notation):
        """Stream serving shares one resident model across clouds (and
        threads), so a forward on a cloud of another size than the
        nominal one must leave every module attribute as constructed."""
        bench = get_benchmark(notation)
        model = bench.model_factory(0)
        before = _state(model)
        model(generate_sample(bench.dataset, seed=1, scale=0.25))
        assert _state(model) == before


class TestFamilies:
    def test_pointnet_family_has_no_sparse_conv(self):
        for notation in ("PointNet", "PointNet++(c)", "DGCNN"):
            trace = build_trace(notation, scale=SCALE, seed=0)
            assert not trace.by_kind(LayerKind.SPARSE_CONV)

    def test_sparseconv_family_has_kernel_maps(self):
        trace = build_trace("MinkNet(i)", scale=SCALE, seed=0)
        kmaps = trace.by_kind(LayerKind.MAP_KERNEL)
        assert len(kmaps) > 0
        cached = [s for s in kmaps if s.params.get("cached")]
        # Same-stride layers reuse maps (MinkowskiEngine behaviour).
        assert len(cached) > 0

    def test_minknet_map_cache_correctness(self):
        """Cached and uncached kernel maps must describe identical layers."""
        trace = build_trace("MinkNet(i)", scale=SCALE, seed=0)
        seen = {}
        for spec in trace.by_kind(LayerKind.MAP_KERNEL):
            key = (spec.n_in, spec.n_out, spec.kernel_volume)
            if spec.params.get("cached"):
                assert key in seen, "cache hit without a prior computation"
                assert seen[key] == spec.n_maps
            else:
                seen[key] = spec.n_maps

    def test_mesorasi_compatibility_flags(self):
        assert get_benchmark("PointNet++(c)").mesorasi_compatible
        assert not get_benchmark("MinkNet(i)").mesorasi_compatible

    def test_registry_lookup(self):
        assert get_benchmark("Mini-MinkowskiUNet") is MINI_MINKUNET
        with pytest.raises(KeyError):
            get_benchmark("AlexNet")

    def test_published_accuracy_present(self):
        for bench in BENCHMARKS.values():
            assert bench.published, bench.notation

    def test_coords_only_mapping_declaration(self):
        declared = {n for n, b in BENCHMARKS.items() if b.coords_only_mapping}
        assert declared == {"MinkNet(i)", "MinkNet(o)", "PointNet++(c)",
                            "PointNet++(ps)", "PointNet++(s)"}
        assert MINI_MINKUNET.coords_only_mapping

    @pytest.mark.parametrize("notation", ["PointNet", "DGCNN", "F-PointNet++"])
    def test_undeclared_networks_ignore_geometry_only(self, notation):
        """No mapping (PointNet) or a mapping that reads features (DGCNN's
        dynamic graph, F-PointNet++'s masks): the flag changes nothing."""
        full_trace, full = run_benchmark(notation, scale=0.25, seed=0)
        trace, out = run_benchmark(notation, scale=0.25, seed=0,
                                   geometry_only=True)
        assert len(trace) == len(full_trace)
        arrays, reference = _output_arrays(out), _output_arrays(full)
        assert len(arrays) == len(reference) >= 1
        for a, b in zip(arrays, reference):
            assert isinstance(a, np.ndarray) and np.array_equal(a, b)


class TestMiniMinkUNet:
    def test_forward(self, indoor_cloud):
        model = mini_minkunet(n_classes=13, seed=0)
        tensor = model.prepare_input(indoor_cloud, 0.15)
        out = model(tensor)
        assert out.shape == (tensor.n, 13)

    def test_input_features_width(self, indoor_cloud):
        model = mini_minkunet(seed=0)
        tensor = model.prepare_input(indoor_cloud, 0.15)
        assert tensor.channels == model.c_in


class TestParameterDrawOrder:
    """Full models keep their parameter draws exactly: golden figures and
    the weight-dependent F-PointNet++ traces rest on them.  The digests
    cover every parameter array as drawn, in construction order, and were
    computed before the PointNet++ constructors took ``weightless``."""

    PINNED = {
        "MinkNet(o)": (156, "23794cc7aab57f5a501dc7e559a37e0b"),
        "F-PointNet++": (168, "e791a672146196aed66ec03f224d5b83"),
        "PointNet++(c)": (68, "6c8e63c5096d545222a2d7780a69c2fc"),
        "PointNet++(ps)": (152, "839e939fa1f1fc654499740e6804b8b4"),
        "PointNet++(s)": (134, "497c4604d78dba0553181c455fe817f0"),
    }

    @pytest.mark.parametrize("notation", sorted(PINNED))
    def test_seed0_draws_are_pinned(self, notation, monkeypatch):
        draws = []
        real = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self._rng = real(seed)

            def normal(self, *args, **kwargs):
                out = self._rng.normal(*args, **kwargs)
                draws.append(out)
                return out

        bench = get_benchmark(notation)
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", Recording)
            bench.model_factory(0)
            if bench.coords_only_mapping:  # a weightless build draws nothing
                n_full = len(draws)
                bench.model_factory(0, weightless=True)
                assert len(draws) == n_full
        h = hashlib.blake2b(digest_size=16)
        for arr in draws:
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert (len(draws), h.hexdigest()) == self.PINNED[notation]
