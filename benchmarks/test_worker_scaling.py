"""Worker scaling: fleet throughput vs shard-worker process count.

The acceptance claim of the worker-mode PR: serving 4 streams through one
:class:`~repro.fleet.FleetSession` with ``workers=4`` — each shard's
engine in a real OS process — must beat the identical in-process
(``workers=0``) fleet by >= 1.5x on a 4+-core box, with every stream's
reports bit-identical.  This is the first wall-clock win in the repo that
comes from *parallelism* rather than caching.

The workload is built so caching cannot stand in for parallelism —
otherwise a cache-hit-rich configuration would hide a broken worker path:

* four **disjoint** worlds (different seeds), so cross-stream map
  sharing has nothing to share;
* ``speed = 2 * fov``: consecutive frames of one stream never overlap,
  so temporal map reuse has nothing to grab either;
* ``l2=None``: no shared store to blur the process boundary.

Every frame is then full compute, and the only difference between the
arms is how many cores that compute occupies.  Runs below 4 CPUs skip:
on a starved box the arms measure scheduler contention, not the claim
(the dev loop is 1-core; CI runners have 4).

Each arm is measured over ``REPEATS`` fresh sessions and compared
min-to-min — wall-clock noise only ever adds time, so the best of each
side is the comparable number.
"""

import os
import time

import pytest

from repro.experiments.common import ExperimentResult
from repro.fleet import FleetSession, StreamSpec
from repro.stream import FrameSequence, SequenceConfig

N_STREAMS = 4
N_FRAMES = 3
SCALE = 0.5
FOV = 24.0
REPEATS = 2
SPEEDUP_FLOOR = 1.5
WORKER_ARMS = (2, 4)


def _specs():
    # Disjoint worlds, reuse-free trajectories: see the module docstring.
    return [
        StreamSpec(
            name=f"veh{i}",
            sequence=FrameSequence(SequenceConfig(
                seed=50 + i, n_frames=N_FRAMES, base_points=9000, fov=FOV,
                speed=2 * FOV,
            )),
            benchmark="MinkNet(o)",
            scale=SCALE,
            n_frames=N_FRAMES,
        )
        for i in range(N_STREAMS)
    ]


def _run_fleet(workers: int):
    specs = _specs()
    for spec in specs:
        spec.sequence.frame(0, scale=SCALE)  # pre-build the synthetic
        # worlds: generator cost is test fixture, not serving time (and in
        # worker mode the pre-built frames fork into every worker warm).
    with FleetSession(
        specs, n_shards=N_STREAMS, routing="least-loaded", l2=None,
        workers=workers,
    ) as fleet:
        t0 = time.perf_counter()
        results = fleet.run()
        return results, time.perf_counter() - t0


def test_fleet_throughput_scales_with_workers(scale):
    del scale  # the benchmark pins its own scale (see module docstring)
    if (os.cpu_count() or 1) < 4:
        pytest.skip("worker scaling needs a 4+-core box; this one has "
                    f"{os.cpu_count()}")

    times = {workers: [] for workers in (0, *WORKER_ARMS)}
    results = {}
    for _ in range(REPEATS):
        for workers in times:
            results[workers], elapsed = _run_fleet(workers)
            times[workers].append(elapsed)

    # Processes may never change a result: every worker arm must match
    # the in-process fleet frame for frame, float for float.
    for workers in WORKER_ARMS:
        for name, frames in results[0].items():
            for ref, frame in zip(frames, results[workers][name]):
                assert (
                    frame.result.reports["pointacc"]
                    == ref.result.reports["pointacc"]
                ), f"workers={workers} changed stream {name} frame {frame.index}"

    base_s = min(times[0])
    total = N_STREAMS * N_FRAMES
    speedups = {w: base_s / min(times[w]) for w in WORKER_ARMS}
    rows = [
        ["in-process (workers=0)", f"{base_s * 1e3:.0f}",
         f"{total / base_s:.2f}", "-"],
    ] + [
        [f"{w} worker processes", f"{min(times[w]) * 1e3:.0f}",
         f"{total / min(times[w]):.2f}", f"{speedups[w]:.2f}x"]
        for w in WORKER_ARMS
    ]
    print("\n" + ExperimentResult(
        experiment_id="bench-workers",
        title=(f"{N_STREAMS} disjoint streams x {N_FRAMES} reuse-free "
               f"frames @ scale {SCALE} on {os.cpu_count()} cores: "
               f"{speedups[4]:.2f}x at 4 workers"),
        headers=["mode", "wall ms", "frames/s", "speedup"],
        rows=rows,
        data={"worker_scaling": speedups[4],
              "speedups": {str(w): s for w, s in speedups.items()},
              "base_seconds": base_s},
    ).table())

    assert speedups[4] >= SPEEDUP_FLOOR, (
        f"4-worker fleet only {speedups[4]:.2f}x over in-process "
        f"(floor {SPEEDUP_FLOOR}x; base {base_s:.3f}s vs "
        f"{min(times[4]):.3f}s)"
    )
