"""Fleet serving: concurrent tenant streams sharing one world's tiles.

The streaming example serves one vehicle; real deployments serve fleets,
and vehicles traversing the same map region keep recomputing each other's
geometry.  This example runs repro.fleet on a small convoy and walks its
two ideas:

1. *Multi-stream tenancy*: several `FrameSequence` streams interleave
   through one shared `EngineCluster` in rounds — in order per stream,
   QoS-ordered across streams, with per-tenant fair-share accounting.
2. *Cross-stream tile sharing*: the `WorldTileStore` front keys tile
   sub-results by world-region content digest, never by stream identity,
   so one vehicle's kNN / ball-query tiles serve the whole convoy — and
   every hit is attributed self vs cross-stream.

As everywhere in this repo, sharing is wall-clock only: each stream's
reports stay bit-identical to running it cold and alone.

Run:  python examples/fleet_serving.py [--streams N] [--frames N] [--scale S]
"""

import argparse

from repro.engine import SimRequest, run_cold
from repro.fleet import FleetSession, StreamSpec
from repro.stream import FrameSequence, SequenceConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--streams", type=int, default=3)
    parser.add_argument("--frames", type=int, default=3)
    parser.add_argument("--scale", type=float, default=0.2)
    args = parser.parse_args()

    # One road, one convoy: a shared world with staggered start positions
    # and per-vehicle sensor noise.
    specs = [
        StreamSpec(
            name=f"veh{i}",
            sequence=FrameSequence(SequenceConfig(
                seed=9, n_frames=args.frames, base_points=9000, fov=20.0,
                speed=2.0, start_x=0.5 * i, sensor_seed=i,
            )),
            benchmark="PointNet++(c)",
            scale=args.scale,
            n_frames=args.frames,
        )
        for i in range(args.streams)
    ]
    fleet = FleetSession(specs, n_shards=2)

    print(f"=== serving a {args.streams}-vehicle convoy, "
          f"{args.frames} frames each ===")
    print(f"{'round':>5s} " + " ".join(f"{s.name:>10s}" for s in specs))
    for r, round_results in enumerate(fleet.play()):
        cells = " ".join(f"{frame.latency_ms:8.0f}ms" for _, frame in round_results)
        print(f"{r:5d} {cells}")

    summary = fleet.summary()
    world = summary["world_tiles"]
    print(f"\n{summary['completed']} frames from {args.streams} streams at "
          f"{summary['throughput_fps']:.1f} frames/s")
    print(f"world tiles: {world['self_hits']} self hits, "
          f"{world['cross_hits']} cross-stream hits "
          f"({world['shared_keys']} world-tile keys shared across vehicles)")
    for name, counts in sorted(world["by_stream"].items()):
        print(f"  {name}: {counts['hits']} tile hits, "
              f"{counts['misses']} computed")

    # The sharing claim is only interesting because it is *exact*: any
    # frame replayed cold — fresh functional simulation, no caches, no
    # fleet — produces the same report, bit for bit.
    spec = specs[-1]
    check = args.frames - 1
    cold = run_cold(SimRequest(
        benchmark=spec.sequence.notation(spec.benchmark),
        scale=args.scale, seed=check,
    ))
    served = fleet.results()[spec.name][check]
    identical = cold.reports["pointacc"] == served.result.reports["pointacc"]
    print(f"cold replay of {spec.name} frame {check}: "
          f"reports bit-identical -> {identical}")


if __name__ == "__main__":
    main()
