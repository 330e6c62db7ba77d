"""Fleet serving: multi-stream tenancy with cross-stream tile sharing.

The serving regime the ROADMAP's north star actually describes — many
LiDAR sources, one backend fleet — has structure the single-stream layers
cannot exploit alone: vehicles traverse the *same world*.  PointAcc's
mapping-unit savings, Mesorasi's delayed aggregation and FractalCloud's
spatial partitioning all argue the same thing — restructure point-cloud
work around shared spatial structure instead of per-request recomputation.
``repro.fleet`` is that idea at the serving layer:

* :class:`FleetSession` (:mod:`repro.fleet.session`) — N tenant streams
  (:class:`StreamSpec`) interleaved over one shared
  :class:`~repro.cluster.EngineCluster`: in-order delivery per stream,
  EDF/fair-share across streams via the existing QoS layer, aggregate
  :class:`FleetStats`;
* :class:`WorldTileStore` (:mod:`repro.fleet.world_store`) — the
  cross-stream sharing front: tile sub-results stay keyed by world-region
  content digest (never stream identity), and every hit is attributed
  self vs cross-stream vs external, so the fleet's sharing is observable
  and testable.

See ``README.md`` ("Fleet serving") for the cache-hierarchy diagram.
"""

from .session import FleetSession, FleetStats, StreamSpec
from .world_store import WorldTileStats, WorldTileStore

__all__ = [
    "FleetSession",
    "FleetStats",
    "StreamSpec",
    "WorldTileStats",
    "WorldTileStore",
]
