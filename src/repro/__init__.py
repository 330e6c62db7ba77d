"""repro — a full-system reproduction of PointAcc (MICRO 2021).

PointAcc is a domain-specific accelerator for point-cloud deep learning
(Lin, Zhang, Tang, Wang, Han — MIT).  This package implements, in pure
Python/numpy:

* the point-cloud and mapping-operation substrates the paper builds on
  (``repro.pointcloud``, ``repro.mapping``),
* functional numpy inference for the 8 benchmark networks (``repro.nn``),
* a functional + cycle-level model of the PointAcc architecture — Mapping
  Unit, Memory Management Unit, Matrix Unit (``repro.core``),
* analytical models of every baseline platform in the evaluation
  (``repro.baselines``),
* experiment runners regenerating every table and figure
  (``repro.experiments``),
* a batched simulation engine serving request streams through shared
  backends with a workload-keyed trace store (``repro.engine``),
* a sharded serving cluster over those engines — workload-affinity
  routing, one shared trace store whose disk tier persists across CLI
  invocations, and deadline/tenant QoS (``repro.cluster``),
* a temporal streaming subsystem serving LiDAR frame sequences in order
  with whole-cloud neighbour search and geometry-only trace construction
  (``repro.stream``),
* fleet serving: several concurrent tenant streams over one shared
  cluster with per-stream QoS and tallies (``repro.fleet``).

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

__version__ = "0.1.0"

__all__ = [
    "pointcloud",
    "mapping",
    "nn",
    "core",
    "baselines",
    "analysis",
    "experiments",
    "engine",
    "cluster",
    "stream",
    "fleet",
]
