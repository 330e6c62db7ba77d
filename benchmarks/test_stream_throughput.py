"""Streaming throughput microbench: warm streaming vs cold per-frame.

The acceptance claim of the streaming subsystem: on an overlapping
synthetic LiDAR sequence, a single-pass :class:`~repro.stream.StreamSession`
— geometry-only trace construction on a resident weightless model, every
mapping op computed once on the whole frame — must clear >= 3x the
throughput of the cold per-frame baseline (:func:`repro.engine.run_cold`
per frame: fresh functional simulation, no caches — exactly what serving
this stream looked like before the subsystem existed), while every
frame's report stays bit-identical to that baseline.

Unlike the engine/cluster benches there is no warm-up pass, and no
frame reuses another's mapping results: the session's edge is
geometry-only execution, frame after frame.  The table is printed, not
archived (wall-clock timings are machine-dependent and never touch the
golden store).
"""

import time

from repro.engine import SimRequest, run_cold
from repro.experiments.common import ExperimentResult
from repro.stream import FrameSequence, SequenceConfig, StreamSession

N_FRAMES = 8
SPEEDUP_FLOOR = 3.0


def test_warm_streaming_vs_cold_per_frame(scale):
    # Below ~0.4 the frames shrink out of the regime the claim is about
    # (a few thousand voxels, where per-frame fixed costs dominate and no
    # realistic stream lives); above 1.0 the suite gets slow without
    # learning more.
    eff = min(max(scale, 0.4), 1.0)
    sequence = FrameSequence(SequenceConfig(
        seed=1, n_frames=N_FRAMES, base_points=20000, fov=32.0, speed=1.5,
    ))
    session = StreamSession(sequence, "MinkNet(o)", scale=eff)

    t0 = time.perf_counter()
    warm = session.run(N_FRAMES)
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold = [
        run_cold(SimRequest(benchmark=session.notation, scale=eff, seed=i))
        for i in range(N_FRAMES)
    ]
    cold_s = time.perf_counter() - t0

    for c, w in zip(cold, warm):
        assert c.reports["pointacc"] == w.result.reports["pointacc"], (
            f"streaming changed the report of frame {w.index}"
        )

    speedup = cold_s / warm_s
    rows = [
        ["cold per-frame", f"{cold_s * 1e3:.0f}", f"{N_FRAMES / cold_s:.2f}"],
        ["warm streaming", f"{warm_s * 1e3:.0f}", f"{N_FRAMES / warm_s:.2f}"],
    ]
    print("\n" + ExperimentResult(
        experiment_id="bench-stream",
        title=(f"Single-pass streaming on {N_FRAMES} overlapping frames "
               f"@ scale {eff}: {speedup:.1f}x"),
        headers=["mode", "wall ms", "frames/s"],
        rows=rows,
        data={"speedup": speedup},
    ).table())

    assert session.geometry_only
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm streaming speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor (cold {cold_s:.3f}s vs warm {warm_s:.3f}s)"
    )

