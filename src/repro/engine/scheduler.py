"""Batch scheduling policies for the simulation engine.

A policy maps a list of :class:`~repro.engine.engine.SimRequest`s to an
execution order (a permutation of their indices).  Scheduling changes
*wall-clock* behaviour only — which requests run adjacently, and therefore
how well the trace store (traces and their reports) is exploited — never
the simulated results, which the property suite enforces.

Policies:

* ``fifo``       — submission order, the baseline.
* ``priority``   — higher ``priority`` first; stable within a level, so
                   equal-priority requests keep their arrival order.
* ``bucketed``   — size-bucketed batching: requests are grouped into
                   power-of-two buckets of their estimated point count,
                   small buckets first, and identical workloads are placed
                   adjacently inside each bucket.  This maximizes cache
                   locality for mixed traffic (all the repeats of a cloud
                   run back to back).
"""

from __future__ import annotations

import math

from ..nn.models.registry import get_benchmark
from ..pointcloud.datasets import get_dataset

__all__ = ["POLICIES", "estimate_points", "schedule"]

POLICIES = ("fifo", "priority", "bucketed")


def estimate_points(benchmark: str, scale: float) -> int:
    """Nominal input point count of a request, for size bucketing.

    Mirrors the registry's input pipeline: a benchmark either overrides the
    per-sample size (``bench.n_points``) or inherits the dataset's nominal
    size; both are rescaled by ``scale`` and floored at 16 points.
    """
    bench = get_benchmark(benchmark)
    nominal = bench.n_points
    if nominal is None:
        nominal = get_dataset(bench.dataset).n_points
    return max(16, int(nominal * scale))


def _fifo(requests) -> list[int]:
    return list(range(len(requests)))


def _priority(requests) -> list[int]:
    return sorted(range(len(requests)), key=lambda i: (-requests[i].priority, i))


def _bucketed(requests) -> list[int]:
    # Sort key: (size bucket, normalized workload key, submission index).
    # The workload key (not the raw request fields) keeps equal workloads
    # adjacent even when callers mix representations (scale=1 vs 1.0); the
    # trailing submission index is the explicit tie-break, so requests that
    # compare equal on everything else always keep arrival order — sorted()
    # never has to compare beyond the tuple, and the order is deterministic
    # for any input.
    def key(i):
        req = requests[i]
        bucket = int(math.log2(estimate_points(req.benchmark, req.scale)))
        return (bucket, req.workload_key, i)

    return sorted(range(len(requests)), key=key)


_POLICY_FNS = {"fifo": _fifo, "priority": _priority, "bucketed": _bucketed}


def schedule(requests, policy: str = "fifo") -> list[int]:
    """Execution order (indices into ``requests``) under ``policy``."""
    if policy not in _POLICY_FNS:
        raise ValueError(f"unknown policy {policy!r}; known: {sorted(POLICIES)}")
    order = _POLICY_FNS[policy](list(requests))
    assert sorted(order) == list(range(len(order)))
    return order
