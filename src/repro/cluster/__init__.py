"""Sharded multi-engine serving with a shared trace store and deadline QoS.

The production-scale layer above :mod:`repro.engine`: an
:class:`EngineCluster` routes request streams across N engine shards
(:class:`ShardRouter` — workload-affinity hashing or least-loaded), serves
every shard from one shared, disk-persistable
:class:`~repro.engine.TraceStore`, and layers deadline-aware admission plus
per-tenant fair share (:class:`QoSScheduler`) on top — all surfaced through
an aggregated :class:`ClusterStats`.  With ``workers=N`` the shards run in
real OS processes (:class:`WorkerPool`) sharing the store's disk tier as a
cross-process L2.  See ``README.md`` ("Cluster architecture") for the
store diagram and deadline semantics.
"""

from .cluster import ClusterStats, EngineCluster
from .qos import QoSScheduler, TenantAccount
from .router import ROUTING_MODES, ShardRouter
from .workers import WorkerPool
from .workload import WorkloadError, known_benchmarks, load_requests, synthetic_stream

__all__ = [
    "ClusterStats",
    "EngineCluster",
    "QoSScheduler",
    "WorkerPool",
    "ROUTING_MODES",
    "ShardRouter",
    "TenantAccount",
    "WorkloadError",
    "known_benchmarks",
    "load_requests",
    "synthetic_stream",
]
