"""Fleet serving: several tenant streams over one shared executor.

The serving regime the ROADMAP's north star describes — many LiDAR
sources, one backend fleet — serves several vehicles at once.
:class:`FleetSession` (:mod:`repro.fleet.session`) interleaves N tenant
streams (:class:`StreamSpec`) over one shared
:class:`~repro.cluster.EngineCluster`: in-order delivery per stream,
EDF/fair-share across streams via the existing QoS layer, aggregate
:class:`FleetStats`.  Streams share the executor's trace store; every
frame of every vehicle is its own workload.

See ``README.md`` ("Fleet serving") for the serving diagram.
"""

from .session import FleetSession, FleetStats, StreamSpec

__all__ = [
    "FleetSession",
    "FleetStats",
    "StreamSpec",
]
