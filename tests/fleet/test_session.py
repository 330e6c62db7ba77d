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


def _tiled(name, start_x=0.0, **kwargs):
    """A stream whose kNN / ball-query calls run through the tile front."""
    return _spec(name, start_x, benchmark="PointNet++(c)", **kwargs)


def _fleet(specs, **kwargs):
    kwargs.setdefault("n_shards", 1)
    kwargs.setdefault("min_points", 64)
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
        assert request.geometry_only  # MinkNet -> sparseconv family

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

    def test_cross_stream_hits_on_shared_world(self):
        fleet = _fleet([_tiled("a", 0.0), _tiled("b", 0.5)])
        fleet.run()
        ws = fleet.world_store.stats()
        assert ws.cross_hits > 0
        assert ws.shared_keys > 0
        summary = fleet.summary()
        assert summary["world_tiles"]["cross_hits"] == ws.cross_hits
        # The cluster surfaces the same front snapshot.
        assert fleet.executor.stats().front["cross_hits"] == ws.cross_hits

    def test_disjoint_worlds_share_nothing(self):
        fleet = _fleet([_tiled("a", seed=5), _tiled("b", seed=6)])
        fleet.run()
        assert fleet.world_store.stats().cross_hits == 0

    def test_share_world_tiles_off(self):
        fleet = _fleet([_tiled("a", 0.0), _tiled("b", 1.0)],
                       share_world_tiles=False)
        assert fleet.world_store is None
        results = fleet.run()
        assert all(f.completed for frames in results.values() for f in frames)
        assert "world_tiles" not in fleet.summary()
        assert fleet.summary()["tiles"]["tile_hits"] > 0

    def test_engine_executor(self):
        fleet = _fleet([_tiled("a", 0.0), _tiled("b", 1.0)], n_shards=0)
        results = fleet.run()
        assert all(f.completed for frames in results.values() for f in frames)
        assert fleet.world_store.stats().cross_hits > 0

    def test_injected_cluster(self):
        cluster = EngineCluster(n_shards=1)
        fleet = FleetSession([_spec("a")], cluster=cluster)
        assert fleet.executor is cluster
        assert fleet.world_store is None
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
