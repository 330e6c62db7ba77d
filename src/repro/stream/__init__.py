"""Temporal point-cloud streaming: frame sequences served in order.

PointAcc's headline workloads — segmentation and detection for AR/VR and
autonomous driving — are frame *streams* where consecutive LiDAR sweeps
overlap heavily (the regime Mesorasi's continuous point-cloud analytics
targets).  This subsystem serves such streams through the engine and
cluster layers:

* :mod:`repro.stream.sequence` — deterministic synthetic LiDAR frame
  sequences in world coordinates (rigid ego-motion, dynamic objects with
  per-frame jitter, points entering/leaving the field of view), registered
  as cloud sources so frames flow through the ordinary workload-key
  machinery;
* :mod:`repro.stream.pipeline` — :class:`StreamSession`, driving frame
  sequences through a :class:`~repro.engine.SimulationEngine` or
  :class:`~repro.cluster.EngineCluster` in order with geometry-only
  execution, per-frame latency percentiles and deadline-driven frame
  drops in :class:`StreamStats`.

kNN and ball query run on each whole frame through the selection kernels
of :mod:`repro.mapping`, as the MPU ranks a whole cloud (paper §4.1.4);
the engine's trace store, keyed by workload, is the only memo.

See ``README.md`` ("Streaming") for the architecture sketch.
"""

from .pipeline import FrameResult, StreamSession, StreamStats
from .sequence import FrameSequence, SequenceConfig, get_sequence

__all__ = [
    "FrameResult",
    "FrameSequence",
    "SequenceConfig",
    "StreamSession",
    "StreamStats",
    "get_sequence",
]
