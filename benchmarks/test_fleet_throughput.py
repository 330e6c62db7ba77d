"""Fleet throughput: one shared fleet vs separate per-stream sessions.

Serving **4 overlapping streams** through one
:class:`~repro.fleet.FleetSession` (one shared executor and its trace
store) is timed against the same 4 streams served as separate sessions
(each stream its own :class:`~repro.stream.StreamSession`: private
engine, private trace store).  Every stream's reports must stay
bit-identical between the two.

The timed workload is a *lockstep convoy* of MinkNet(o) vehicles (same
trajectory, per-vehicle sensor noise) sweeping fast enough that
consecutive frames of one vehicle never overlap (``speed = 2 * fov``):
temporal reuse has nothing to grab, so any difference between the arms is
cross-stream.  The ratio is printed, not floored (see CHANGES.md for the
measured runs behind earlier floors).

Every timed arm is measured over ``REPEATS`` fresh runs, interleaved, and
compared min-to-min — wall-clock noise only ever adds time, so the best
of each side is the comparable number (the table prints the mins).
"""

import time

from repro.experiments.common import ExperimentResult
from repro.fleet import FleetSession, StreamSpec
from repro.stream import FrameSequence, SequenceConfig, StreamSession

N_STREAMS = 4
N_FRAMES = 3
REPEATS = 3
FOV = 48.0


def _specs(scale):
    # One road, one convoy: identical world and trajectory, per-vehicle
    # sensor seeds.  jitter=0 keeps dynamic objects byte-shared across
    # sensors (the moving returns' *positions* are not sensor noise);
    # clutter stays per-sensor — each vehicle's genuinely private content.
    return [
        StreamSpec(
            name=f"veh{i}",
            sequence=FrameSequence(SequenceConfig(
                seed=7, n_frames=N_FRAMES, base_points=20000, fov=FOV,
                speed=2 * FOV, jitter=0.0, clutter_points=4, sensor_seed=i,
            )),
            benchmark="MinkNet(o)",
            scale=scale,
            n_frames=N_FRAMES,
        )
        for i in range(N_STREAMS)
    ]


def _run_solo(specs, scale):
    t0 = time.perf_counter()
    results = {
        spec.name: StreamSession(
            spec.sequence, spec.benchmark, scale=scale, tenant=spec.name,
        ).run(N_FRAMES)
        for spec in specs
    }
    return results, time.perf_counter() - t0


def _run_fleet(specs):
    fleet = FleetSession(specs, n_shards=1, l2=None)
    t0 = time.perf_counter()
    results = fleet.run()
    return results, time.perf_counter() - t0


def test_fleet_sharing_vs_per_stream_caching(scale):
    """Bit-identity of the shared fleet against separate sessions, and
    their wall-clock ratio (printed)."""
    # Dense frames, where map compute outweighs fixed per-frame costs;
    # the benchmark pins its own scale rather than following the harness
    # knob.
    del scale
    eff = 1.0
    specs = _specs(eff)
    for spec in specs:
        spec.sequence.frame(0, scale=eff)  # pre-build the shared world —
        # the synthetic generator is test fixture, not the serving system.

    solo_times, fleet_times = [], []
    solo_results = fleet_results = None
    for _ in range(REPEATS):
        solo_results, solo_s = _run_solo(specs, eff)
        solo_times.append(solo_s)
        fleet_results, fleet_s = _run_fleet(specs)
        fleet_times.append(fleet_s)

    # Bit-identity: the fleet may never change a stream's results.
    for name, frames in solo_results.items():
        for solo_frame, fleet_frame in zip(frames, fleet_results[name]):
            assert (
                solo_frame.result.reports["pointacc"]
                == fleet_frame.result.reports["pointacc"]
            ), f"fleet changed stream {name} frame {fleet_frame.index}"

    solo_s, fleet_s = min(solo_times), min(fleet_times)
    speedup = solo_s / fleet_s
    total = N_STREAMS * N_FRAMES
    rows = [
        ["separate sessions", f"{solo_s * 1e3:.0f}",
         f"{total / solo_s:.2f}"],
        ["shared fleet", f"{fleet_s * 1e3:.0f}", f"{total / fleet_s:.2f}"],
    ]
    print("\n" + ExperimentResult(
        experiment_id="bench-fleet",
        title=(f"{N_STREAMS} MinkNet(o) convoy streams x {N_FRAMES} frames "
               f"@ scale {eff}: {speedup:.2f}x"),
        headers=["mode", "wall ms", "frames/s"],
        rows=rows,
        data={"speedup": speedup},
    ).table())

