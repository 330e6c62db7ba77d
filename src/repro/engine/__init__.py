"""Batched simulation engine with a workload-keyed trace store.

Serves streams of point-cloud simulation requests through shared hardware
models, memoizing whole traces by workload key (:class:`TraceStore`) and,
with each trace, every backend's report of it.  See ``README.md``
("Simulation engine") for the architecture sketch and key semantics.
"""

from .backends import ACCELERATORS, backend_names, resolve_backend
from .engine import EngineStats, SimRequest, SimResult, SimulationEngine, run_cold
from .scheduler import POLICIES, estimate_points, schedule
from .trace_store import TraceStore

__all__ = [
    "ACCELERATORS",
    "EngineStats",
    "POLICIES",
    "SimRequest",
    "SimResult",
    "SimulationEngine",
    "TraceStore",
    "backend_names",
    "estimate_points",
    "resolve_backend",
    "run_cold",
    "schedule",
]
