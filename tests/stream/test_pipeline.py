"""StreamSession mechanics: ordering, stats, QoS, executor wiring."""

import numpy as np
import pytest

from repro.cluster import EngineCluster
from repro.engine import SimulationEngine
from repro.stream import FrameSequence, SequenceConfig, StreamSession, StreamStats

CFG = SequenceConfig(seed=9, n_frames=4, base_points=900, fov=12.0)


@pytest.fixture
def seq():
    return FrameSequence(CFG)


class TestSessionBasics:
    def test_frames_served_in_order(self, seq):
        session = StreamSession(seq, "PointNet++(c)", scale=0.2)
        results = session.run(3)
        assert [f.index for f in results] == [0, 1, 2]
        assert all(f.completed for f in results)
        # a second run() continues where the first stopped
        assert [f.index for f in session.run(1)] == [3]

    def test_requests_carry_stream_identity(self, seq):
        session = StreamSession(seq, "PointNet++(c)", scale=0.2,
                                deadline_ms=1e6)
        req = session.request(2)
        assert req.benchmark == session.notation
        assert req.seed == 2 and req.tenant == "stream"
        assert req.deadline_ms == 1e6

    def test_geometry_only_auto(self, seq):
        """``"auto"`` follows the registry's coords_only_mapping declaration."""
        assert StreamSession(seq, "MinkNet(o)").geometry_only
        assert StreamSession(seq, "PointNet++(c)").geometry_only
        assert not StreamSession(seq, "DGCNN").geometry_only
        assert not StreamSession(seq, "F-PointNet++").geometry_only
        assert not StreamSession(seq, "PointNet++(c)",
                                 geometry_only=False).geometry_only

    @pytest.mark.parametrize("network", ["PointNet", "DGCNN", "F-PointNet++"])
    def test_forced_geometry_only_on_undeclared_network_raises(self, seq,
                                                               network):
        """Its trace reads feature values, so a forced True could only be
        stamped on requests that compute full features anyway."""
        with pytest.raises(ValueError, match=network.replace("+", r"\+")):
            StreamSession(seq, network, geometry_only=True)
        assert StreamSession(seq, "PointNet++(s)",
                             geometry_only=True).geometry_only

    def test_executor_exclusivity_and_validation(self, seq):
        with pytest.raises(ValueError):
            StreamSession(seq, engine=SimulationEngine(),
                          cluster=EngineCluster(n_shards=1))
        with pytest.raises(ValueError):
            StreamSession(seq, period_ms=0)

    def test_injected_engine_is_used(self, seq):
        engine = SimulationEngine(backends=("pointacc",))
        session = StreamSession(seq, "PointNet++(c)", scale=0.2, engine=engine)
        session.run(2)
        assert engine.stats().requests == 2
        assert session.executor is engine


class TestStats:
    def test_stats_account_for_every_frame(self, seq):
        session = StreamSession(seq, "PointNet++(c)", scale=0.2)
        session.run(4)
        stats = session.stats()
        assert stats.frames == stats.completed == 4
        assert stats.dropped == stats.rejected == 0
        assert len(stats.latencies_ms) == 4
        assert stats.wall_seconds > 0
        assert stats.throughput_fps > 0

    def test_percentiles_nearest_rank(self):
        stats = StreamStats(latencies_ms=[10.0, 20.0, 30.0, 40.0])
        assert stats.latency_ms(50) == 20.0
        assert stats.latency_ms(99) == 40.0
        assert stats.latency_ms(100) == 40.0
        assert StreamStats().latency_ms(50) == 0.0

    def test_summary_carries_executor(self, seq):
        session = StreamSession(seq, "MinkNet(o)", scale=0.2)
        session.run(2)
        summary = session.summary()
        assert summary["frames"] == 2
        assert summary["geometry_only"] is True
        assert summary["sequence"] == seq.token
        assert "executor" in summary and "tiles" not in summary
        assert summary["latency_p99_ms"] >= summary["latency_p50_ms"] > 0


class TestQoS:
    def test_drop_late_sheds_expired_frames(self, seq):
        """deadline 0 with a long period: frame 0 dispatches (clock 0), and
        once the first simulation exceeds every later arrival+0 budget the
        rest are shed without simulating."""
        session = StreamSession(seq, "PointNet++(c)", scale=0.2,
                                deadline_ms=0.0, period_ms=0.001,
                                drop_late=True)
        results = session.run(4)
        assert not results[0].dropped  # nothing elapsed before frame 0
        assert all(f.dropped for f in results[1:])
        stats = session.stats()
        assert stats.dropped == 3 and stats.completed == 1

    def test_no_drops_without_flag(self, seq):
        session = StreamSession(seq, "PointNet++(c)", scale=0.2,
                                deadline_ms=0.0, period_ms=0.001)
        assert all(not f.dropped for f in session.run(3))

    def test_cluster_scores_deadlines(self, seq):
        cluster = EngineCluster(n_shards=1, backends=("pointacc",))
        session = StreamSession(seq, "PointNet++(c)", scale=0.2,
                                cluster=cluster, deadline_ms=1e9)
        results = session.run(2)
        assert all(f.result.deadline_met is True for f in results)
        assert session.stats().deadline_met == 2

    def test_cluster_rejection_counts_as_rejected(self, seq):
        """A deadline the admission controller can prove hopeless is
        rejected by the cluster, not silently dropped."""
        cluster = EngineCluster(n_shards=1, backends=("pointacc",))
        session = StreamSession(seq, "PointNet++(c)", scale=0.2,
                                cluster=cluster)
        session.run(1)  # prime the QoS cost estimate for this workload
        session.deadline_ms = 1e-9
        results = session.run(2)
        rejected = [f for f in results if f.rejected]
        if rejected:  # admission needs a cost estimate to reject
            stats = session.stats()
            assert stats.rejected == len(rejected)
            assert all(not f.completed for f in rejected)


class TestWholeCloudSearch:
    def test_knn_and_ball_query_run_on_whole_frames(self,
                                                    record_mapping_calls):
        """A default PointNet++(s) stream builds each frame's trace once:
        its first ball query ranks the whole frame (~2k points here) in
        one call, and kNN runs in the same build."""
        seq = FrameSequence(SequenceConfig(seed=9, n_frames=2,
                                           base_points=9000, fov=24.0))
        session = StreamSession(seq, "PointNet++(s)", scale=0.2)
        for index in range(2):
            with record_mapping_calls() as calls:
                (frame,) = session.run(1)
            assert not frame.result.trace_reused
            names = [name for name, _, _ in calls]
            assert "knn_indices" in names
            _, args, _ = calls[names.index("ball_query_indices")]
            _, references_shape, _ = args[1]
            assert references_shape == (seq.frame(index, scale=0.2).n, 3)
        assert "tiles" not in session.summary()
