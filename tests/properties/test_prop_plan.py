"""Plan/execute equivalence properties.

The acceptance contract of the batched tile front: for the op families it
decomposes (kNN, ball query), across executors ({engine, cluster, fleet})
and tile sizes, the plan path — vectorized digests, ``get_many``
batching, whole-call reuse — produces results bit-identical to the cold
reference computation AND to the per-tile oracle it replaced
(:class:`PerTileOracle`), cold and warm, frame over frame.  SparseConv
streams run with the front installed too: it declines their kernel maps
and voxelize (``decomposed_calls == 0``) and every frame still equals
the cold oracle.
"""

import numpy as np
import pytest

from repro.cluster import EngineCluster
from repro.engine import MapCache, SimRequest, run_cold
from repro.fleet import FleetSession, StreamSpec
from repro.mapping.ball_query import ball_query_indices
from repro.mapping.hooks import TieredLookup, use_map_cache
from repro.mapping.knn import knn_indices
from repro.stream import (
    FrameSequence,
    SequenceConfig,
    StreamSession,
    TileMapCache,
)
from repro.stream.incremental import PerTileOracle

N_FRAMES = 3
CFG = SequenceConfig(seed=23, n_frames=N_FRAMES, base_points=2200,
                     fov=16.0, speed=2.0, n_dynamic=2)


# ----------------------------------------------------------------------
# Op level: batched == per-tile == reference, over perturbed frames
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


def _chains(**kwargs):
    kwargs.setdefault("min_points", 1)
    out = []
    for cls in (TileMapCache, PerTileOracle):
        front = cls(**kwargs)
        out.append((front,
                    TieredLookup([MapCache(max_entries=1 << 15)], front=front)))
    return out


@pytest.mark.parametrize("tile_size,halo", [(3.0, 1), (6.0, 2), (10.0, 0)])
def test_knn_and_ball_modes_agree_across_frames(rng, tile_size, halo):
    frames = _drifting_clouds(rng)
    (batched, chain_b), (legacy, chain_l) = _chains(
        tile_size=tile_size, halo=halo
    )
    for cloud in frames:
        expect_idx, expect_dist = knn_indices(cloud, cloud, 6)
        expect_ball = ball_query_indices(cloud, cloud, 2.0, 5)
        with use_map_cache(chain_b):
            got_idx, got_dist = knn_indices(cloud, cloud, 6)
            got_ball = ball_query_indices(cloud, cloud, 2.0, 5)
        with use_map_cache(chain_l):
            leg_idx, leg_dist = knn_indices(cloud, cloud, 6)
            leg_ball = ball_query_indices(cloud, cloud, 2.0, 5)
        assert np.array_equal(expect_idx, got_idx)
        assert np.array_equal(expect_idx, leg_idx)
        assert np.array_equal(expect_ball, got_ball)
        assert np.array_equal(expect_ball, leg_ball)
        assert np.allclose(expect_dist, got_dist, rtol=1e-12, atol=1e-9)
        assert np.allclose(expect_dist, leg_dist, rtol=1e-12, atol=1e-9)
    assert batched.stats().tile_hits > 0
    assert legacy.stats().tile_hits > 0


# ----------------------------------------------------------------------
# Network level: engine / cluster / fleet executors
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


def _assert_matches(session, oracle):
    results = session.run(N_FRAMES)
    for cold, frame in zip(oracle, results):
        assert frame.completed
        assert frame.result.reports["pointacc"] == cold.reports["pointacc"]


def _assert_front_engaged(front, bench_name):
    """kNN/ball-query networks decompose; SparseConv ones never do."""
    calls = front.stats().decomposed_calls
    if bench_name == "MinkNet(o)":
        assert calls == 0
    else:
        assert calls > 0


@pytest.mark.parametrize("tiles", [
    {"tile_size": 3.0, "halo": 1},
    {"tile_size": 8.0, "halo": 1},
])
@pytest.mark.parametrize("bench_name", ["MinkNet(o)", "PointNet++(c)"])
def test_engine_stream_batched_bit_identical(sequence, oracles, bench_name,
                                             tiles):
    session = StreamSession(
        sequence, bench_name, scale=0.25, min_points=64, **tiles,
    )
    _assert_matches(session, oracles[bench_name])
    _assert_front_engaged(session.tile_cache, bench_name)


@pytest.mark.parametrize("bench_name", ["MinkNet(o)", "PointNet++(c)"])
def test_cluster_stream_batched_bit_identical(sequence, oracles, bench_name,
                                              tmp_path):
    cluster = EngineCluster(
        n_shards=2,
        backends=("pointacc",),
        tile_cache=TileMapCache(tile_size=4.0, halo=1, min_points=64),
        cache_dir=tmp_path / "spill",
    )
    session = StreamSession(sequence, bench_name, scale=0.25,
                            cluster=cluster)
    _assert_matches(session, oracles[bench_name])
    _assert_front_engaged(cluster.tile_cache, bench_name)
    if bench_name != "MinkNet(o)":
        assert cluster.tile_cache.stats().tile_hits > 0


@pytest.mark.parametrize("bench_name", ["MinkNet(o)", "PointNet++(c)"])
def test_fleet_batched_bit_identical(bench_name):
    """Two same-world staggered streams through one shared batched front
    (the WorldTileStore-wrapped chain): every frame equals its own cold
    oracle; kNN/ball-query tiles earn cross-stream hits, while a
    SparseConv fleet never reaches the front."""
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
    fleet = FleetSession(specs, n_shards=1, min_points=64)
    results = fleet.run()
    for i, seq in enumerate(sequences):
        notation = seq.notation(bench_name)
        for frame_i in range(N_FRAMES):
            cold = run_cold(SimRequest(benchmark=notation, scale=0.25,
                                       seed=frame_i))
            frame = results[f"veh{i}"][frame_i]
            assert frame.result.reports["pointacc"] == cold.reports["pointacc"]
    store = fleet.world_store
    assert store is not None
    _assert_front_engaged(store.inner, bench_name)
    if bench_name != "MinkNet(o)":
        # The second vehicle rides tiles the first one paid for.
        assert store.stats().cross_hits > 0
