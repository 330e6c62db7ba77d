"""Worker-mode equivalence properties: processes may never change a result.

The acceptance contract for worker mode: ``EngineCluster(workers=N)`` —
real OS processes hosting the shard engines, requests/results crossing
pickled, the disk tier of :class:`~repro.engine.TraceStore` standing in
for a shared store — produces per-request ``PerfReport``\\ s exactly
equal, dataclass equality on every float, to both the in-process
``workers=0`` cluster and the cold sequential oracle
(:func:`repro.engine.run_cold`).  The matrix covers both routing modes
and every store configuration (``l1``: a private store per shard,
``l1+l2``: one store per worker, ``l1+l2+disk``: per-worker stores over
one shared directory), plus stream and fleet serving (merged per-worker
stats) and the intra-engine trace/cost overlap pipeline.  Parallelism,
pickling, and disk sharing are wall-clock phenomena only.
"""

import pytest

from repro.cluster import EngineCluster
from repro.engine import SimRequest, SimulationEngine, run_cold
from repro.fleet import FleetSession, StreamSpec
from repro.stream import FrameSequence, SequenceConfig, StreamSession

ROUTINGS = ("affinity", "least-loaded")
TIERS = ("l1", "l1+l2", "l1+l2+disk")


def _mixed_batch() -> list[SimRequest]:
    """Mixed batch with a repeat and a SparseConv model, so kernel-map
    traces cross the pipes and the disk."""
    return [
        SimRequest("PointNet++(c)", scale=0.1, seed=0),
        SimRequest("DGCNN", scale=0.1, seed=0, priority=2),
        SimRequest("PointNet++(c)", scale=0.1, seed=1),
        SimRequest("MinkNet(i)", scale=0.08, seed=0),
        SimRequest("PointNet++(c)", scale=0.1, seed=0, tag="repeat"),
    ]


@pytest.fixture(scope="module")
def oracle():
    """Cold sequential runs — computed once, compared against every config."""
    return [run_cold(r, backends=("pointacc",)) for r in _mixed_batch()]


def _cluster(routing, tiers, tmp_path, workers, subdir):
    kwargs = {}
    if tiers == "l1":
        kwargs["l2"] = None
    elif tiers == "l1+l2+disk":
        kwargs["cache_dir"] = tmp_path / subdir
    return EngineCluster(
        n_shards=4, backends=("pointacc",), routing=routing,
        workers=workers, **kwargs,
    )


@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("tiers", TIERS)
def test_workers_bit_identical_to_in_process_and_cold(
    routing, tiers, oracle, tmp_path
):
    batch = _mixed_batch()
    inproc = _cluster(routing, tiers, tmp_path, workers=0, subdir="inproc")
    baseline = inproc.run_batch(batch)
    with _cluster(routing, tiers, tmp_path, workers=2, subdir="workers") as cluster:
        results = cluster.run_batch(batch)
        assert cluster.workers == 2
        stats = cluster.stats()
    assert len(results) == len(oracle)
    for cold, warm, hot in zip(oracle, baseline, results):
        assert hot.request == cold.request
        # Dataclass equality covers every field of every LayerRecord —
        # seconds, cycles, DRAM bytes, the full energy ledger, detail dicts.
        assert hot.reports["pointacc"] == cold.reports["pointacc"]
        assert hot.reports["pointacc"] == warm.reports["pointacc"]
        assert hot.shard == warm.shard  # routing is process-agnostic
    # Merged stats cover every shard and the whole batch.
    assert stats.workers == 2
    assert len(stats.shards) == 4
    assert sum(s["requests"] for s in stats.shards) == len(batch)
    if tiers != "l1":
        assert stats.l2.get("lookups", 0) > 0


@pytest.mark.parametrize("routing", ROUTINGS)
def test_worker_disk_tier_shared_across_processes(routing, oracle, tmp_path):
    """The cross-process store: a worker cluster pointed at another
    cluster's cache_dir warm-starts from disk — its first request is a
    trace reuse, it builds nothing — and still matches the oracle."""
    cache_dir = tmp_path / "spill"
    seeder = _cluster(routing, "l1+l2+disk", tmp_path, workers=0, subdir="spill")
    seeder.run_batch(_mixed_batch())
    assert any(cache_dir.glob("*.trace"))
    with EngineCluster(
        n_shards=4, backends=("pointacc",), routing=routing,
        workers=2, cache_dir=cache_dir,
    ) as warm:
        results = warm.run_batch(_mixed_batch())
        stats = warm.stats()
    assert results[0].trace_reused
    assert stats.l2.get("disk_hits", 0) >= 1  # genuinely served from disk
    assert sum(s["trace_builds"] for s in stats.shards) == 0
    for cold, hot in zip(oracle, results):
        assert hot.reports["pointacc"] == cold.reports["pointacc"]


def test_workers_clamped_and_validated(tmp_path):
    with EngineCluster(n_shards=2, workers=8) as cluster:
        assert cluster.workers == 2  # clamped to shard granularity
    with pytest.raises(ValueError):
        EngineCluster(n_shards=2, workers=-1)
    from repro.engine import TraceStore
    with pytest.raises(ValueError):
        EngineCluster(n_shards=2, workers=2, l2=TraceStore())


def test_fleet_workers_bit_identical_to_in_process():
    """Fleet serving with worker processes: per-stream frame reports match
    the in-process fleet exactly, and the merged per-worker stats account
    for every frame."""
    base = dict(n_frames=2, base_points=1500, fov=14.0, speed=2.0,
                n_dynamic=2)
    def specs():
        return [
            StreamSpec(
                name=f"veh{i}",
                sequence=FrameSequence(
                    SequenceConfig(seed=31, start_x=0.4 * i, sensor_seed=i,
                                   **base)
                ),
                benchmark="PointNet++(c)", scale=0.2, n_frames=2,
            )
            for i in range(2)
        ]
    baseline_session = FleetSession(specs(), n_shards=2)
    baseline = baseline_session.run()
    with FleetSession(specs(), n_shards=2, workers=2) as fleet:
        results = fleet.run()
        summary = fleet.summary()
    for name, frames in baseline.items():
        worker_frames = results[name]
        assert len(worker_frames) == len(frames)
        for ref, frame in zip(frames, worker_frames):
            assert frame.completed and not frame.dropped
            assert (
                frame.result.reports["pointacc"]
                == ref.result.reports["pointacc"]
            ), f"{name} frame {frame.index} diverged from workers=0"
    assert summary["executor"]["workers"] == 2
    # The per-shard engine stats come back over the pipes.
    shards = summary["executor"]["shards"]
    assert sum(shard["requests"] for shard in shards) == 4


@pytest.mark.parametrize("bench_name",
                         ["MinkNet(o)", "PointNet++(c)", "PointNet++(s)"])
def test_stream_workers_bit_identical_to_cold(bench_name):
    """A stream served by a worker-process cluster: every frame's report
    equals its cold per-frame run."""
    sequence = FrameSequence(SequenceConfig(
        seed=11, n_frames=2, base_points=1500, fov=14.0, speed=2.0,
        n_dynamic=2,
    ))
    # Workers resolve stream-sourced notations from the registry they
    # inherit, so the sequence registers before the pool starts.
    notation = sequence.notation(bench_name)
    cluster = EngineCluster(n_shards=2, backends=("pointacc",), workers=2)
    with StreamSession(sequence, bench_name, scale=0.2,
                       cluster=cluster) as session:
        frames = session.run(2)
    for frame in frames:
        cold = run_cold(SimRequest(benchmark=notation, scale=0.2,
                                   seed=frame.index))
        assert frame.completed
        assert frame.result.reports["pointacc"] == cold.reports["pointacc"]


def test_engine_overlap_bit_identical():
    """The intra-shard pipeline: overlap=True (trace k+1 builds while
    cost model k evaluates) must not perturb a single float."""
    batch = _mixed_batch()
    plain = SimulationEngine(backends=("pointacc",)).run_batch(batch)
    overlapped = SimulationEngine(
        backends=("pointacc",), overlap=True
    ).run_batch(batch)
    for ref, hot in zip(plain, overlapped):
        assert hot.reports["pointacc"] == ref.reports["pointacc"]
