"""Streaming: temporal frame sequences served frame by frame.

The batch and cluster examples reuse mapping work across *bit-identical*
clouds.  Real perception traffic is different: consecutive LiDAR frames
overlap heavily but never repeat exactly — the sensor moved, objects
moved, clutter changed.  This example runs repro.stream on that regime
and walks its three ideas:

1. *World-frame sequences*: a deterministic synthetic drive — static
   street geometry, oncoming traffic with per-frame jitter, a field of
   view that points enter and leave as the ego moves.
2. *Whole-cloud neighbour search*: each kNN / ball-query call ranks the
   whole frame in one pass and keeps the k nearest per row without
   sorting the row, as the MPU's TopK truncates every merged subarray
   to k (paper Section 4.1.4).  Every frame is its own workload, so
   every frame builds its trace once.
3. *Geometry-only execution*: for the SparseConv models and
   PointNet++(c), (ps) and (s) the trace is a pure function of
   coordinates, so the stream skips the dense feature math entirely (and
   the property suite proves the reports cannot tell) — the default
   PointNet++(c) stream runs this way, as does ``--benchmark "MinkNet(o)"``.

Run:  python examples/stream_serving.py [--frames N] [--scale S]
"""

import argparse

from repro.engine import SimRequest, run_cold
from repro.stream import FrameSequence, SequenceConfig, StreamSession


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=6)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--benchmark", default="PointNet++(c)")
    args = parser.parse_args()

    sequence = FrameSequence(SequenceConfig(
        seed=4, n_frames=args.frames, base_points=16000, fov=28.0, speed=2.0,
    ))
    session = StreamSession(sequence, args.benchmark, scale=args.scale)

    print(f"=== streaming {args.frames} frames of a synthetic drive "
          f"through {args.benchmark} ===")
    print(f"{'frame':>5s} {'points':>7s} {'modeled ms':>11s} "
          f"{'wall ms':>8s}")
    for frame in session.play(args.frames):
        report = frame.result.report("pointacc")
        print(f"{frame.index:5d} {frame.result.input_points:7d} "
              f"{report.total_seconds * 1e3:11.3f} {frame.latency_ms:8.1f}")

    summary = session.summary()
    executor = summary["executor"]
    print(f"\n{summary['completed']} frames at "
          f"{summary['throughput_fps']:.1f} frames/s "
          f"(p50 {summary['latency_p50_ms']:.0f} ms, "
          f"p99 {summary['latency_p99_ms']:.0f} ms, "
          f"geometry-only: {'yes' if summary['geometry_only'] else 'no'})")
    print(f"traces: {executor['trace_builds']} built, "
          f"{executor['trace_reuses']} reused")

    # Serving is only interesting because it is *exact*: replaying one
    # frame cold — fresh functional simulation, no memos — produces the
    # same report, bit for bit.
    check = args.frames - 1
    cold = run_cold(SimRequest(benchmark=session.notation, scale=args.scale,
                               seed=check))
    # The session's store keeps the last frame's trace with its report
    # (one entry: earlier frames never come back): replaying that request
    # through the executor builds nothing.
    streamed = session.executor.run_batch([session.request(check)])[0]
    identical = cold.reports["pointacc"] == streamed.reports["pointacc"]
    print(f"cold replay of frame {check}: reports bit-identical -> "
          f"{identical}")


if __name__ == "__main__":
    main()
