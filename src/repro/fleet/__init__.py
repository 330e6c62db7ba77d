"""Fleet serving: several tenant streams over one shared executor.

The serving regime the ROADMAP's north star describes — many LiDAR
sources, one backend fleet — serves several vehicles at once.
:class:`FleetSession` (:mod:`repro.fleet.session`) interleaves N tenant
streams (:class:`StreamSpec`) over one shared
:class:`~repro.cluster.EngineCluster`: in-order delivery per stream,
EDF/fair-share across streams via the existing QoS layer, aggregate
:class:`FleetStats`.  Streams share the executor's whole-op digest tiers
(each shard's L1 and the cluster's L2); nothing else is shared.

See ``README.md`` ("Fleet serving") for the cache-hierarchy diagram.
"""

from .session import FleetSession, FleetStats, StreamSpec

__all__ = [
    "FleetSession",
    "FleetStats",
    "StreamSpec",
]
