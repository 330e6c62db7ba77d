"""Shard routing: which engine instance serves a request.

FractalCloud's partition-then-process argument applies to serving too:
PointAcc-style mapping work is dominated by per-cloud geometry, so the win
of a multi-engine fleet comes from *where* requests land, not from raw
fan-out.  Two modes:

* ``affinity`` — a stable BLAKE2b hash of the workload key picks the shard,
  so the same ``(benchmark, scale, seed)`` always lands on the same engine.
  That maximizes report-memo hits (each shard's engine sees all the
  repeats of its workloads) at the cost of possible imbalance under
  skewed traffic.
* ``least-loaded`` — each request goes to the shard with the least
  accumulated *estimated* work (the scheduler's nominal point count), ties
  to the lowest shard index.  Balanced by construction, but repeats may
  scatter — the cluster's shared trace store is what keeps trace reuse
  alive in this mode.

Routing is deterministic in both modes: the affinity hash is content-based
(not Python's randomized ``hash``), and least-loaded tie-breaks are fixed,
so a replayed stream routes identically across runs.
"""

from __future__ import annotations

import hashlib

from ..engine.scheduler import estimate_points

__all__ = ["ROUTING_MODES", "ShardRouter"]

ROUTING_MODES = ("affinity", "least-loaded")


def _affinity_hash(workload_key: tuple) -> int:
    digest = hashlib.blake2b(repr(workload_key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Deterministic request-to-shard placement for :class:`EngineCluster`."""

    def __init__(self, n_shards: int, mode: str = "affinity") -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if mode not in ROUTING_MODES:
            raise ValueError(
                f"unknown routing mode {mode!r}; known: {list(ROUTING_MODES)}"
            )
        self.n_shards = n_shards
        self.mode = mode
        self.counts = [0] * n_shards  # requests routed to each shard
        self._load = [0.0] * n_shards  # accumulated estimated points

    def route(self, request) -> int:
        """Pick (and record) the shard for ``request``."""
        if self.mode == "affinity":
            shard = _affinity_hash(request.workload_key) % self.n_shards
        else:  # least-loaded: min accumulated estimate, lowest index on ties
            shard = min(range(self.n_shards), key=lambda s: (self._load[s], s))
        self.counts[shard] += 1
        self._load[shard] += estimate_points(request.benchmark, request.scale)
        return shard

    def snapshot(self) -> dict:
        return {
            "mode": self.mode,
            "n_shards": self.n_shards,
            "counts": list(self.counts),
            "estimated_load": list(self._load),
        }
