"""Frame sequences: determinism, overlap structure, registry plumbing."""

import dataclasses

import numpy as np
import pytest

from repro.mapping.maps import MapTable
from repro.nn.ghost import is_ghost
from repro.nn.models.registry import (
    BENCHMARKS,
    _resident_model,
    get_benchmark,
    run_benchmark,
    split_notation,
)
from repro.stream import FrameSequence, SequenceConfig, get_sequence

CFG = SequenceConfig(seed=5, n_frames=6, base_points=3000)
SPARSECONV = ("MinkNet(i)", "MinkNet(o)", "Mini-MinkowskiUNet")


def _assert_same_specs(full, geo, case) -> None:
    """Spec for spec, every field plus params (map tables by rows)."""
    assert len(full) == len(geo), case
    for a, b in zip(full, geo):
        where = (*case, a.name)
        assert a == b, where  # every field but params
        assert a.params.keys() == b.params.keys(), where
        for key, value in a.params.items():
            other = b.params[key]
            if isinstance(value, MapTable):
                assert value.kernel_volume == other.kernel_volume, where
                for name in ("in_idx", "out_idx", "weight_idx"):
                    assert np.array_equal(getattr(value, name),
                                          getattr(other, name)), where
            else:
                assert value == other, (*where, key)


@pytest.fixture
def seq():
    return FrameSequence(CFG)


class TestDeterminism:
    def test_frames_reproducible(self, seq):
        a = seq.frame(3, scale=0.5).points
        b = FrameSequence(CFG).frame(3, scale=0.5).points
        assert np.array_equal(a, b)

    def test_token_is_config_content(self, seq):
        assert seq.token == FrameSequence(CFG).token
        assert seq.token != FrameSequence(SequenceConfig(seed=6)).token

    def test_frame_index_validated(self, seq):
        with pytest.raises(ValueError):
            seq.frame(-1)


class TestOverlapStructure:
    def test_consecutive_frames_share_exact_points(self, seq):
        """The temporal-reuse premise: a large fraction of world points are
        bit-identical between consecutive frames, in stable relative order."""
        f0 = seq.frame(0, scale=0.5).points
        f1 = seq.frame(1, scale=0.5).points
        set0 = {p.tobytes() for p in f0}
        shared = [p.tobytes() for p in f1 if p.tobytes() in set0]
        assert len(shared) > 0.6 * min(len(f0), len(f1))
        # Stable order: shared points appear in the same relative order.
        pos0 = {p.tobytes(): i for i, p in enumerate(f0)}
        order = [pos0[b] for b in shared]
        assert order == sorted(order)

    def test_ego_motion_turns_over_the_fov(self, seq):
        f0 = seq.frame(0, scale=0.5).points
        # After driving a full FOV length, the frame is (mostly) new ground.
        far_index = int((2 * CFG.fov) / CFG.speed) + 2
        f_far = seq.frame(far_index, scale=0.5).points
        set0 = {p.tobytes() for p in f0}
        shared = sum(1 for p in f_far if p.tobytes() in set0)
        assert shared < 0.1 * len(f_far)

    def test_frames_track_the_ego_window(self, seq):
        # Static points respect the FOV box exactly; dynamic objects are
        # gated on their *center*, so their extent (a car length) and
        # jitter may poke past the edge.
        margin = 6.0
        for i in (0, 2, 5):
            pts = seq.frame(i, scale=0.5).points
            assert np.all(
                np.abs(pts[:, 0] - seq.ego_position(i)) <= CFG.fov + margin
            )


class TestRegistryPlumbing:
    def test_notation_registers_and_resolves(self, seq):
        notation = seq.notation("PointNet++(c)")
        base, source = split_notation(notation)
        assert base == "PointNet++(c)"
        scheme, _, token = source.partition(":")
        assert scheme == "stream"
        assert get_sequence(token) is seq
        assert get_benchmark(notation).notation == "PointNet++(c)"

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            get_sequence("feedfacefeedface")

    def test_run_benchmark_uses_the_frame(self, seq):
        notation = seq.notation("PointNet++(c)")
        trace, _ = run_benchmark(notation, scale=0.4, seed=2)
        assert trace.input_points == seq.frame(2, scale=0.4).n

    def test_model_seed_fixed_across_frames(self, seq):
        """Frame index picks the cloud, not the weights: equal layer shapes
        and channel plans across frames of one sequence."""
        notation = seq.notation("PointNet++(c)")
        t2, _ = run_benchmark(notation, scale=0.4, seed=2)
        t4, _ = run_benchmark(notation, scale=0.4, seed=4)
        assert [s.name for s in t2] == [s.name for s in t4]

    def test_geometry_only_sparseconv_trace_matches_functional(self, seq):
        """A geometry-only run (weightless model, ghost features) records
        the full-weight functional run's trace spec for spec — map rows and
        ``cached`` flags included — on stream-sourced and dataset clouds."""
        for bench in SPARSECONV:
            for notation, scale in ((seq.notation(bench), 0.3), (bench, 0.06)):
                for seed in (1, 2):
                    case = (notation, seed)
                    full, logits = run_benchmark(notation, scale=scale, seed=seed)
                    geo, out = run_benchmark(
                        notation, scale=scale, seed=seed, geometry_only=True
                    )
                    assert isinstance(logits, np.ndarray), case
                    assert is_ghost(out) and out.shape == logits.shape, case
                    assert geo.input_points == full.input_points, case
                    _assert_same_specs(full, geo, case)

    def test_full_run_never_gets_the_weightless_model(self, seq, monkeypatch):
        """Geometry-only first, then full, for one (benchmark, seed) in one
        process: each mode builds its own model through the registry
        factory, and the full run returns a fresh model's real logits."""
        bench = BENCHMARKS["MinkNet(o)"]
        builds = []

        def factory(seed, **kwargs):
            builds.append(kwargs)
            return bench.model_factory(seed, **kwargs)

        monkeypatch.setitem(BENCHMARKS, "MinkNet(o)",
                            dataclasses.replace(bench, model_factory=factory))
        notation = seq.notation("MinkNet(o)")
        _resident_model.cache_clear()
        _, ghost = run_benchmark(notation, scale=0.3, seed=1, geometry_only=True)
        _, logits = run_benchmark(notation, scale=0.3, seed=1)
        _resident_model.cache_clear()
        _, fresh = run_benchmark(notation, scale=0.3, seed=1)
        assert builds == [{"weightless": True}, {}, {}]
        assert is_ghost(ghost)
        assert isinstance(logits, np.ndarray)
        assert np.array_equal(logits, fresh)
