"""Deterministic synthetic LiDAR frame sequences in world coordinates.

A :class:`FrameSequence` models the continuous point-cloud analytics regime
(Mesorasi Section 2; PointAcc's AR/VR and autonomous-driving workloads): a
sensor traveling through a street-like static world, with moving objects
and per-frame sensor clutter.  Frames are expressed in *world* coordinates
— scan registration is assumed done upstream, as in any mapping/SLAM
pipeline — so a static world point has bit-identical coordinates in
every frame that sees it, and consecutive frames share most of their
points exactly.

Churn comes from three honest sources:

* **ego-motion** — the field of view is an axis-aligned box gliding along
  the trajectory, so static points enter at the leading edge and leave at
  the trailing edge each frame;
* **dynamic objects** — rigid clusters (oncoming traffic) whose points
  move every frame and carry fresh per-frame jitter (sensor noise on
  moving returns);
* **clutter** — a small count of fresh random points per frame.

Everything is a pure function of ``(config, scale, frame_index)``; frames
keep stable point order for unchanged world points (static world order,
filtered).

Sequences register as a ``stream`` cloud-source scheme
(:func:`repro.nn.models.registry.register_cloud_scheme`): the notation
``"MinkNet(o)@stream:<token>"`` runs that network on this sequence with
the request ``seed`` selecting the frame — so frame streams flow through
the engine, cluster, QoS and cache machinery like any other workload, and
:func:`repro.engine.run_cold` on the same notation is the oracle the
property suite compares against.  The token is a content digest of the
config, so equal configs collide only with themselves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..nn.models.registry import register_cloud_scheme
from ..pointcloud.cloud import PointCloud
from ..pointcloud.synthetic import sample_box_surface

__all__ = ["SequenceConfig", "FrameSequence", "get_sequence"]


@dataclass(frozen=True)
class SequenceConfig:
    """Everything that determines a sequence, bit for bit.

    ``start_x`` offsets the ego trajectory along the strip without
    touching the world construction: two configs that differ only in
    ``start_x`` share the *same* static world and dynamic shapes, bit for
    bit — they are two vehicles driving the same road.  That is the fleet
    regime (:mod:`repro.fleet`): their frames overlap wherever their FOVs
    do.  Keep
    ``start_x`` within a couple of frame-steps of zero — the built strip
    is sized for the zero-offset trajectory, and a far-offset vehicle
    drives off the end of the world (deterministically, but emptily).

    ``sensor_seed`` distinguishes *sensors* rather than trajectories: it
    salts only the per-frame sensor-noise draws (dynamic-return jitter
    and clutter), so two configs differing only in ``sensor_seed`` are
    the same vehicle pose with different sensor noise — the lockstep
    convoy / multi-sensor-rig limiting case of fleet overlap, where
    everything except the noise returns is byte-shared.  Zero (the
    default) leaves every existing sequence bit-identical.
    """

    seed: int = 0
    n_frames: int = 8          #: nominal length (sizes the static world strip)
    base_points: int = 20000   #: ~static points visible per frame at scale 1.0
    fov: float = 24.0          #: half-side of the FOV box, meters
    speed: float = 2.0         #: ego translation per frame along +x, meters
    n_buildings: int = 14      #: static boxes lining the strip
    n_dynamic: int = 4         #: moving objects (oncoming traffic)
    dynamic_points: int = 160  #: points per dynamic object at scale 1.0
    jitter: float = 0.02       #: per-frame noise on dynamic returns, meters
    clutter_points: int = 48   #: fresh random points per frame at scale 1.0
    start_x: float = 0.0       #: ego x at frame 0 (fleet trajectory offset)
    sensor_seed: int = 0       #: salts sensor noise only (jitter + clutter)


class FrameSequence:
    """Frames of one configured sequence, generated on demand."""

    def __init__(self, config: SequenceConfig = SequenceConfig()) -> None:
        self.config = config
        self._worlds: dict[float, tuple[np.ndarray, list]] = {}

    # ------------------------------------------------------------------
    # Identity / registration
    # ------------------------------------------------------------------

    @property
    def token(self) -> str:
        """Content digest of the config — the sequence's wire identity."""
        h = hashlib.blake2b(repr(self.config).encode(), digest_size=8)
        return h.hexdigest()

    def register(self) -> str:
        """Make the sequence resolvable as ``stream:<token>``."""
        _REGISTRY[self.token] = self
        return self.token

    def notation(self, benchmark: str) -> str:
        """The sourced benchmark notation running ``benchmark`` on this
        sequence (registers the sequence as a side effect)."""
        return f"{benchmark}@stream:{self.register()}"

    # ------------------------------------------------------------------
    # World construction (cached per scale)
    # ------------------------------------------------------------------

    def _rng(self, *salt) -> np.random.Generator:
        return np.random.default_rng([self.config.seed & 0x7FFFFFFF, *salt])

    def _sensor_rng(self, *salt) -> np.random.Generator:
        """Per-sensor noise stream: like :meth:`_rng`, additionally salted
        by ``sensor_seed`` — but only when one is set, so the default
        config's draws (and therefore every pre-``sensor_seed`` frame)
        stay bit-identical."""
        if self.config.sensor_seed:
            salt = (*salt, self.config.sensor_seed & 0x7FFFFFFF)
        return self._rng(*salt)

    def _strip(self) -> tuple[float, float]:
        cfg = self.config
        return -cfg.fov - cfg.speed, cfg.fov + cfg.speed * (cfg.n_frames + 1)

    def _world(self, scale: float) -> tuple[np.ndarray, list]:
        """Static world points (fixed order) + dynamic object base shapes."""
        world = self._worlds.get(scale)
        if world is not None:
            return world
        cfg = self.config
        rng = self._rng(1)
        x0, x1 = self._strip()
        length = x1 - x0
        n_static = max(64, int(cfg.base_points * scale * length / (2 * cfg.fov)))
        n_ground = n_static // 2
        # Ground: uniform in the strip with centimeter roughness (fixed —
        # it is part of the static world, not per-frame noise).
        ground = np.column_stack([
            rng.uniform(x0, x1, n_ground),
            rng.uniform(-cfg.fov, cfg.fov, n_ground),
            rng.normal(scale=0.02, size=n_ground),
        ])
        parts = [ground]
        n_building_pts = n_static - n_ground
        counts = np.full(cfg.n_buildings, n_building_pts // cfg.n_buildings)
        counts[: n_building_pts % cfg.n_buildings] += 1
        for b, count in enumerate(counts):
            if count == 0:
                continue
            side = 1.0 if b % 2 == 0 else -1.0
            size = np.array([
                rng.uniform(6.0, 14.0),
                rng.uniform(4.0, 8.0),
                rng.uniform(4.0, 10.0),
            ])
            center = np.array([
                rng.uniform(x0, x1),
                side * rng.uniform(cfg.fov * 0.45, cfg.fov * 0.85),
                size[2] / 2,
            ])
            parts.append(sample_box_surface(int(count), size, center, rng))
        static = np.concatenate(parts, axis=0)
        # Dynamic base shapes: car-sized boxes centered at origin; their
        # per-frame pose is applied in frame().
        shapes = []
        for d in range(cfg.n_dynamic):
            srng = self._rng(2, d)
            size = np.array([
                srng.uniform(3.6, 4.8),
                srng.uniform(1.6, 2.0),
                srng.uniform(1.4, 1.8),
            ])
            n_pts = max(8, int(cfg.dynamic_points * scale))
            shapes.append(
                sample_box_surface(n_pts, size, np.array([0.0, 0.0, size[2] / 2]),
                                   srng)
            )
        world = (static, shapes)
        self._worlds[scale] = world
        return world

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------

    def ego_position(self, index: int) -> float:
        """Ego x at frame ``index`` (motion is along +x)."""
        return self.config.start_x + self.config.speed * index

    def frame(self, index: int, scale: float = 1.0) -> PointCloud:
        """Frame ``index``: static points in FOV, posed dynamics, clutter.

        Point order is canonical — static world order first (so unchanged
        regions keep identical bytes between frames), then dynamic objects
        in object order, then clutter.
        """
        if index < 0:
            raise ValueError(f"frame index must be >= 0, got {index}")
        cfg = self.config
        static, shapes = self._world(scale)
        ego_x = self.ego_position(index)
        in_fov = np.abs(static[:, 0] - ego_x) <= cfg.fov
        parts = [static[in_fov]]
        x0, x1 = self._strip()
        for d, shape in enumerate(shapes):
            drng = self._rng(3, d)
            # Oncoming lane: start ahead, drive toward -x, loop the strip.
            lane_y = (-1.0 if d % 2 else 1.0) * drng.uniform(2.0, 5.0)
            start_x = drng.uniform(x0, x1)
            span = x1 - x0
            obj_x = x0 + (start_x - x0 - 2.5 * cfg.speed * index) % span
            if abs(obj_x - ego_x) > cfg.fov or abs(lane_y) > cfg.fov:
                continue
            frng = self._sensor_rng(4, d, index)
            posed = shape + np.array([obj_x, lane_y, 0.0])
            posed = posed + frng.normal(scale=cfg.jitter, size=posed.shape)
            parts.append(posed)
        # Clutter is sensor-proximal (dust/exhaust/ground splash around the
        # ego vehicle), not uniform over the FOV: real clutter returns
        # cluster near the sensor, and the churn stays spatially bounded.
        n_clutter = max(1, int(cfg.clutter_points * scale))
        crng = self._sensor_rng(5, index)
        clutter = np.column_stack([
            crng.uniform(ego_x - 2.0, ego_x + 6.0, n_clutter),
            crng.uniform(-3.0, 3.0, n_clutter),
            crng.uniform(0.0, 2.0, n_clutter),
        ])
        parts.append(clutter)
        return PointCloud(np.concatenate(parts, axis=0))


#: token -> sequence; process-local, keyed by content digest.
_REGISTRY: dict[str, FrameSequence] = {}


def get_sequence(token: str) -> FrameSequence:
    """Look up a registered sequence by token."""
    if token not in _REGISTRY:
        raise KeyError(
            f"unknown sequence token {token!r}; register the sequence first "
            f"(FrameSequence.register / .notation)"
        )
    return _REGISTRY[token]


def _resolve_stream(token: str, scale: float, seed: int):
    """Cloud-scheme resolver: request seed = frame index; the network's
    weights come from the sequence seed, fixed across the stream."""
    seq = get_sequence(token)
    return seq.frame(seed, scale=scale), seq.config.seed


register_cloud_scheme("stream", _resolve_stream)
