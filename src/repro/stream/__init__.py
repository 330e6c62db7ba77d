"""Temporal point-cloud streaming with tile-granular incremental map reuse.

PointAcc's headline workloads — segmentation and detection for AR/VR and
autonomous driving — are frame *streams* where consecutive LiDAR sweeps
overlap heavily (the regime Mesorasi's continuous point-cloud analytics
targets, and that FractalCloud exploits by spatial partitioning).  The
engine and cluster layers (PRs 1-2) only reuse mapping work for
bit-identical whole clouds; this subsystem adds the sub-cloud tier:

* :mod:`repro.stream.sequence` — deterministic synthetic LiDAR frame
  sequences in world coordinates (rigid ego-motion, dynamic objects with
  per-frame jitter, points entering/leaving the field of view), registered
  as cloud sources so frames flow through the ordinary workload-key
  machinery;
* :mod:`repro.stream.tiles` — spatial tile partitioning with BLAKE2b
  content digests per tile (the same digest discipline as
  :class:`~repro.engine.MapCache`);
* :mod:`repro.stream.incremental` — :class:`TileMapCache`, a content-aware
  front for :class:`~repro.mapping.hooks.TieredLookup` that serves
  unchanged kNN / ball-query tiles from cache and recomputes only dirty
  tiles plus a boundary halo, bit-identically (kernel maps and voxelize
  take the whole-op digest path: they recompute faster than they
  decompose);
* :mod:`repro.stream.plan` — the batched tile-front planner: vectorized
  plan/probe/execute over whole partitions, one ``get_many`` chain round
  trip per mapping call;
* :mod:`repro.stream.pipeline` — :class:`StreamSession`, driving frame
  sequences through a :class:`~repro.engine.SimulationEngine` or
  :class:`~repro.cluster.EngineCluster` in order with per-frame latency
  percentiles, deadline-driven frame drops and tile hit rates in
  :class:`StreamStats`.

See ``README.md`` ("Streaming") for the architecture sketch.
"""

from .incremental import TileFrontStats, TileMapCache
from .pipeline import FrameResult, StreamSession, StreamStats, streaming_map_cache
from .sequence import FrameSequence, SequenceConfig, get_sequence
from .tiles import TilePartition, halo_box, partition, tile_coords

__all__ = [
    "FrameResult",
    "FrameSequence",
    "SequenceConfig",
    "StreamSession",
    "StreamStats",
    "TileFrontStats",
    "TileMapCache",
    "TilePartition",
    "get_sequence",
    "halo_box",
    "partition",
    "streaming_map_cache",
    "tile_coords",
]
