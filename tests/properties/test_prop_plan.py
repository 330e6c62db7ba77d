"""Batched-serving equivalence properties.

Two contracts of serving on whole clouds.  Op level: for the neighbour
searches (kNN, ball query), run over drifting frames under both row-block
budgets of the distance matrix (the default, and one row per block),
first call and repeated calls, every answer equals the ``*_bruteforce``
reference, bit for bit.  Network level: a stream's frames submitted to a
cluster as one batch, and a fleet whose every round is one batch on the
shared executor, produce per-frame reports exactly equal to the cold
reference computation (:func:`repro.engine.run_cold`), for a SparseConv
network (kernel maps, voxelize) and a PointNet++ network (FPS, ball
query).  (The module name is historical: the tile planner it once
tested is gone, and the test ids are kept.)
"""

import numpy as np
import pytest

from repro.cluster import EngineCluster
from repro.engine import SimRequest, run_cold
from repro.fleet import FleetSession, StreamSpec
from repro.mapping.ball_query import ball_query_bruteforce, ball_query_indices
from repro.mapping.knn import knn_bruteforce, knn_indices
from repro.pointcloud import coords
from repro.stream import FrameSequence, SequenceConfig, StreamSession

N_FRAMES = 3
CFG = SequenceConfig(seed=23, n_frames=N_FRAMES, base_points=2200,
                     fov=16.0, speed=2.0, n_dynamic=2)


# ----------------------------------------------------------------------
# Op level: searched == reference, over perturbed frames
# ----------------------------------------------------------------------


def _drifting_clouds(rng, n=900, span=32.0, frames=3):
    """Frames where one region churns and the rest stays byte-stable."""
    base = rng.uniform(0, span, (n, 3))
    out = [base]
    for i in range(1, frames):
        nxt = out[-1].copy()
        corner = np.all(nxt < 8.0 + 2 * i, axis=1)
        nxt[corner] += 0.25
        out.append(nxt)
    return out


@pytest.mark.parametrize("radius,repeats", [(3.0, 1), (6.0, 2), (10.0, 0)])
def test_knn_and_ball_modes_agree_across_frames(rng, monkeypatch, radius,
                                                repeats):
    """Each frame is searched once and ``repeats`` more times, in both
    modes: the default row-block budget and one row per block.  At radius
    6 and 10 most ball-query rows hold more than k pairs."""
    budgets = (coords._BLOCK_BYTES, 8)
    for cloud in _drifting_clouds(rng):
        expect_idx, expect_dist = knn_bruteforce(cloud, cloud, 6)
        expect_ball = ball_query_bruteforce(cloud, cloud, radius, 5)
        for block_bytes in budgets:
            monkeypatch.setattr(coords, "_BLOCK_BYTES", block_bytes)
            for _ in range(1 + repeats):
                got_idx, got_dist = knn_indices(cloud, cloud, 6)
                got_ball = ball_query_indices(cloud, cloud, radius, 5)
                assert np.array_equal(expect_idx, got_idx)
                assert np.array_equal(expect_dist, got_dist)
                assert np.array_equal(expect_ball, got_ball)


# ----------------------------------------------------------------------
# Network level: cluster batches and fleet rounds
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sequence():
    return FrameSequence(CFG)


@pytest.fixture(scope="module")
def oracles(sequence):
    out = {}
    for benchmark in ("MinkNet(o)", "PointNet++(c)"):
        notation = sequence.notation(benchmark)
        out[benchmark] = [
            run_cold(SimRequest(benchmark=notation, scale=0.25, seed=i))
            for i in range(N_FRAMES)
        ]
    return out


@pytest.mark.parametrize("bench_name", ["MinkNet(o)", "PointNet++(c)"])
def test_cluster_stream_batched_bit_identical(sequence, oracles, bench_name,
                                              tmp_path):
    """All of a stream's frames in one cluster batch (a shared trace store
    with a disk tier): results in submission order, each equal to its
    frame's cold oracle."""
    cluster = EngineCluster(
        n_shards=2,
        backends=("pointacc",),
        cache_dir=tmp_path / "spill",
    )
    session = StreamSession(sequence, bench_name, scale=0.25,
                            cluster=cluster)
    results = cluster.run_batch([session.request(i) for i in range(N_FRAMES)])
    assert [r.index for r in results] == list(range(N_FRAMES))
    for cold, result in zip(oracles[bench_name], results):
        assert not result.errors
        assert result.reports["pointacc"] == cold.reports["pointacc"]
    assert cluster.stats().requests == N_FRAMES


@pytest.mark.parametrize("bench_name", ["MinkNet(o)", "PointNet++(c)"])
def test_fleet_batched_bit_identical(bench_name):
    """Two same-world staggered streams through one fleet, each round one
    batch on the shared executor: every frame equals its own cold
    oracle."""
    sequences = [
        FrameSequence(SequenceConfig(
            seed=23, n_frames=N_FRAMES, base_points=2200, fov=16.0,
            speed=2.0, n_dynamic=2, start_x=i * 1.0, sensor_seed=i,
        ))
        for i in range(2)
    ]
    specs = [
        StreamSpec(name=f"veh{i}", sequence=seq, benchmark=bench_name,
                   scale=0.25, n_frames=N_FRAMES)
        for i, seq in enumerate(sequences)
    ]
    fleet = FleetSession(specs, n_shards=1)
    results = fleet.run()
    for i, seq in enumerate(sequences):
        notation = seq.notation(bench_name)
        for frame_i in range(N_FRAMES):
            cold = run_cold(SimRequest(benchmark=notation, scale=0.25,
                                       seed=frame_i))
            frame = results[f"veh{i}"][frame_i]
            assert frame.result.reports["pointacc"] == cold.reports["pointacc"]
    assert fleet.executor.stats().requests == 2 * N_FRAMES
