"""FleetSession mechanics: interleaving, QoS plumbing, stats, validation.

Bit-identity against cold oracles lives in
``tests/properties/test_prop_fleet.py``; these are the cheaper structural
checks, run at small scale.
"""

import pytest

from repro.cluster import EngineCluster
from repro.fleet import FleetSession, StreamSpec
from repro.stream import FrameSequence, SequenceConfig

SCALE = 0.12


def _spec(name, start_x=0.0, seed=5, n_frames=2,
          benchmark="MinkNet(o)", **kwargs):
    sequence = FrameSequence(SequenceConfig(
        seed=seed, n_frames=3, base_points=1800, fov=14.0, speed=2.0,
        n_dynamic=1, start_x=start_x,
    ))
    return StreamSpec(name=name, sequence=sequence, benchmark=benchmark,
                      scale=SCALE, n_frames=n_frames, **kwargs)


def _fleet(specs, **kwargs):
    kwargs.setdefault("n_shards", 1)
    return FleetSession(specs, **kwargs)


class TestMechanics:
    def test_per_stream_in_order_delivery(self):
        fleet = _fleet([_spec("a", 0.0), _spec("b", 1.0)])
        results = fleet.run()
        assert set(results) == {"a", "b"}
        for frames in results.values():
            assert [f.index for f in frames] == [0, 1]
            assert all(f.completed for f in frames)

    def test_unequal_stream_lengths(self):
        fleet = _fleet([_spec("short", 0.0, n_frames=1),
                        _spec("long", 1.0, n_frames=3)])
        rounds = list(fleet.play())
        assert len(rounds) == 3
        assert [name for name, _ in rounds[0]] == ["short", "long"]
        for r in rounds[1:]:
            assert [name for name, _ in r] == ["long"]
        stats = fleet.stats()
        assert stats.frames == 4 and stats.rounds == 3

    def test_requests_carry_tenant_and_qos_terms(self):
        spec = _spec("veh7", deadline_ms=250.0, priority=3)
        fleet = _fleet([spec])
        request = fleet.request(spec, 1)
        assert request.tenant == "veh7"
        assert request.deadline_ms == 250.0
        assert request.priority == 3
        assert request.seed == 1
        assert request.geometry_only  # MinkNet declares coords_only_mapping

    def test_cluster_qos_rejects_spent_deadlines(self):
        fleet = _fleet([_spec("late", deadline_ms=-1.0),
                        _spec("fine", 1.0)], n_shards=2)
        results = fleet.run()
        assert all(f.rejected for f in results["late"])
        assert all(f.completed for f in results["fine"])
        stats = fleet.stats()
        assert stats.rejected == 2
        assert stats.per_stream["late"]["rejected"] == 2
        assert stats.per_stream["fine"]["completed"] == 2

    @pytest.mark.parametrize("n_shards", [0, 1])
    def test_every_executor_scores_deadlines(self, n_shards):
        """An unmeetable deadline is missed on every frame, and a generous
        one met, whatever the executor: a bare engine has no QoS layer, so
        the session scores its frames against the round's wall time."""
        for deadline_ms, want in ((0.001, (0, 2)), (1e9, (2, 0))):
            fleet = _fleet([_spec("a", deadline_ms=deadline_ms)],
                           n_shards=n_shards)
            frames = fleet.run()["a"]
            stats = fleet.stats()
            assert (stats.deadline_met, stats.deadline_missed) == want
            tally = stats.per_stream["a"]
            assert (tally["deadline_met"], tally["deadline_missed"]) == want
            assert [f.result.deadline_met for f in frames] == [want[0] > 0] * 2

    def test_engine_executor(self):
        fleet = _fleet([_spec("a", 0.0, benchmark="PointNet++(c)"),
                        _spec("b", 1.0, benchmark="PointNet++(c)")],
                       n_shards=0)
        results = fleet.run()
        assert all(f.completed for frames in results.values() for f in frames)
        assert fleet.executor.stats().requests == 4

    def test_injected_cluster(self):
        cluster = EngineCluster(n_shards=1)
        fleet = FleetSession([_spec("a")], cluster=cluster)
        assert fleet.executor is cluster
        assert all(f.completed for f in fleet.run()["a"])


class TestValidation:
    def test_duplicate_or_empty_names(self):
        with pytest.raises(ValueError):
            FleetSession([_spec("a"), _spec("a", 1.0)])
        with pytest.raises(ValueError):
            FleetSession([_spec("")])

    def test_needs_a_stream(self):
        with pytest.raises(ValueError):
            FleetSession([])

    def test_one_executor_at_most(self):
        cluster = EngineCluster(n_shards=1)
        with pytest.raises(ValueError):
            FleetSession([_spec("a")], cluster=cluster, engine=cluster)

    def test_negative_shards(self):
        with pytest.raises(ValueError):
            FleetSession([_spec("a")], n_shards=-1)

    def test_forced_geometry_only_checked_per_stream(self):
        """One undeclared network in the fleet makes a forced True raise,
        naming that network; "auto" resolves each stream on its own."""
        specs = [_spec("a"), _spec("b", 1.0, benchmark="DGCNN")]
        with pytest.raises(ValueError, match="DGCNN"):
            FleetSession(specs, geometry_only=True)
        fleet = FleetSession(specs, n_shards=0)
        assert fleet.request(specs[0], 0).geometry_only
        assert not fleet.request(specs[1], 0).geometry_only
        modes = {name: s["geometry_only"]
                 for name, s in fleet.summary()["streams"].items()}
        assert modes == {"a": True, "b": False}
