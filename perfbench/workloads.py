"""The benchmark's workloads: closed-loop drives through the serving API.

A *drive* is one fresh serving session (sequence world, resident model,
executor, caches) that serves ``frames`` frames per vehicle in order; every
vehicle is one closed-loop client that sends frame *i+1* only when frame
*i* has returned.  A workload's *panel* is ``drives`` drives, one per world
of a fixed list, each with a trajectory offset and sensor noise derived
from the run's seed.  A run serves the panel over and over, each drive a
fresh session again, so that one run averages over many frames and cold
starts on the same inputs.

Only workload inputs reach the program: the sequence configuration, the
network, the scale and the vehicle count.  No tile, shard or cache setting
is passed, so the sessions run with whatever defaults the serving stack
has at the commit under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: Fleet vehicles start this far apart along the road (metres).
VEHICLE_SPACING_M = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    network: str
    scale: float
    vehicles: int  #: closed-loop clients, one per vehicle
    frames: int  #: frames per vehicle per drive, the cold one included
    drives: int  #: drives per pass, one per world; runs serve whole passes
    min_passes: int  #: passes every run serves, however long they take
    why: str  #: why the workload exists, its regime and its clients

    @property
    def tail_percentile(self) -> int:
        """The highest whole percentile that keeps at least ten warm frames
        beyond it in every run; fixed per workload so runs compare."""
        n = self.min_passes * self.drives * (self.frames - 1) * self.vehicles
        return (100 * (n - 10)) // n


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="minknet-drive",
            network="MinkNet(o)",
            scale=0.4,
            vehicles=1,
            frames=6,
            drives=1,
            min_passes=8,
            why="1 closed-loop client; MinkNet(o) at scale 0.4, ~7-9k "
                "voxels/frame, ~93% shared with the previous frame: kernel "
                "mapping and the MMU sweep do the work, kNN/ball/FPS none",
        ),
        Workload(
            name="pointnet2-drive",
            network="PointNet++(s)",
            scale=0.2,
            vehicles=1,
            frames=6,
            drives=1,
            min_passes=6,
            why="1 closed-loop client; PointNet++(s) at scale 0.2 with "
                "features, ~4k points/frame: kNN, ball query, FPS and dense "
                "MLPs do the work, kernel mapping and the MMU sweep none",
        ),
        Workload(
            name="fleet-convoy",
            network="MinkNet(o)",
            scale=0.4,
            vehicles=3,
            frames=6,
            drives=1,
            min_passes=3,
            why="3 closed-loop clients; 3 MinkNet(o) vehicles 1 m apart on "
                "one world, scale 0.4, FleetSession defaults: most tile hits "
                "are cross-vehicle, via cluster routing and the L2",
        ),
    )
}


#: Sequence seeds of the worlds a run drives through: a pass serves one
#: drive per world, on the first ``drives`` of these.  The worlds are fixed
#: so that runs on different benchmark seeds differ in their drives, not in
#: how much road a world happens to hold: voxel counts vary by about a
#: tenth from one random world to the next, which would otherwise dominate
#: the run-to-run spread.
WORLDS = (11, 12, 13, 14, 15)


def drive_inputs(w: Workload, seed: int, drive: int) -> tuple:
    """``(world, start offset in metres, sensor seed)`` of one drive: the
    world comes from :data:`WORLDS`, the trajectory offset and the sensor
    noise from the benchmark seed."""
    digest = hashlib.blake2b(f"{w.name}:{seed}:{drive}".encode(),
                             digest_size=8).digest()
    offset = int.from_bytes(digest[:4], "little") / 2**32
    sensor = int.from_bytes(digest[4:], "little") & 0x7FFFFFFF
    return WORLDS[drive % w.drives], offset, sensor


def open_drive(w: Workload, inputs: tuple, frames: int):
    """Build a fresh session for one drive of ``drive_inputs`` that serves
    the first ``frames`` frames of every vehicle.

    Returns ``(session, sequences, steps)``: ``steps`` yields, per
    closed-loop step, the list of ``(vehicle, FrameResult)`` it delivered.
    """
    from repro.stream import FrameSequence, SequenceConfig

    world, offset, sensor = inputs
    sequences = [
        FrameSequence(SequenceConfig(
            seed=world,
            # Size the world strip to the frames served: frames past the
            # nominal length drive off the strip and silently shrink.
            n_frames=w.frames,
            start_x=offset + VEHICLE_SPACING_M * v,
            sensor_seed=sensor + v,
        ))
        for v in range(w.vehicles)
    ]
    if w.vehicles == 1:
        from repro.stream import StreamSession

        session = StreamSession(sequences[0], w.network, scale=w.scale)
        steps = ([("veh0", frame)] for frame in session.play(frames))
    else:
        from repro.fleet import FleetSession, StreamSpec

        session = FleetSession([
            StreamSpec(name=f"veh{v}", sequence=seq, benchmark=w.network,
                       scale=w.scale, n_frames=frames)
            for v, seq in enumerate(sequences)
        ])
        steps = session.play()
    return session, sequences, steps


# ----------------------------------------------------------------------
# Input properties (computed from the inputs, never from the program)
# ----------------------------------------------------------------------


def _units(points: np.ndarray, voxel: float | None) -> np.ndarray:
    """The frame's distinct input units: occupied voxels when the network
    voxelizes, exact points otherwise, each as one comparable scalar."""
    if voxel is None:
        rows = np.ascontiguousarray(points, dtype=np.float64)
        return np.unique(rows.view(np.dtype((np.void, rows.itemsize * 3))))
    grid = np.floor(points / voxel).astype(np.int64) + (1 << 20)
    return np.unique((grid[:, 0] << 42) | (grid[:, 1] << 21) | grid[:, 2])


def input_properties(w: Workload, sequences, served: int) -> dict:
    """Per-frame unit counts plus temporal and cross-vehicle overlap for
    the first ``served`` frames of every vehicle of one drive."""
    from repro.nn.models.registry import get_benchmark

    bench = get_benchmark(w.network)
    voxel = bench.voxel_size if bench.family == "sparseconv" else None
    units = [[_units(seq.frame(i, scale=w.scale).points, voxel)
              for i in range(served)] for seq in sequences]
    sizes = [len(u) for frames in units for u in frames]
    temporal = [np.isin(frames[i], frames[i - 1]).mean()
                for frames in units for i in range(1, served)]
    cross = []
    if len(units) > 1:
        for i in range(served):
            for v, frames in enumerate(units):
                others = np.concatenate(
                    [units[u][i] for u in range(len(units)) if u != v])
                cross.append(np.isin(frames[i], others).mean())
    return {"unit": "points" if voxel is None else "voxels", "sizes": sizes,
            "temporal": temporal, "cross": cross}
