"""Recompute-lineage ledger: *why* every cache decision happened.

The span layer (:mod:`repro.obs.trace`) says where time went; this module
says why the work existed at all.  A :class:`RecomputeLedger` is a bounded
structured event log fed by the serving stack's cache layers:

``tile`` events
    One per classified tile population per decomposed mapping call.  The
    batched tile planner (:mod:`repro.stream.plan`) classifies every
    planned tile into exactly one cause — ``l1_hit`` / ``l2_hit`` /
    ``disk_hit`` (emitted by :meth:`repro.mapping.hooks.TieredLookup.
    get_many`, which knows the tier depth that served each probe),
    ``recompute(cold)`` / ``recompute(digest_changed)`` /
    ``recompute(halo_moved)`` / ``recompute(evicted)`` (the planner's
    miss diagnosis against its previous-frame tile memory), or
    ``fallback(empty_halo)`` (tiles the planner never probes).  Counts
    are per-cause so a frame with 400 tiles is a handful of events, not
    400.

``call`` events
    One per whole mapping call the front handled: either
    ``cause="probe_hit"`` (the whole-call content probe hit, nothing was
    decomposed — ``tiles=0``) or ``cause="planned"`` with the planned
    tile count.  Per ``(frame, op)`` the tile-event counts sum exactly to
    the planned tile counts — the completeness invariant
    ``tests/properties/test_prop_ledger.py`` enforces.

``eviction`` events
    ``(key, tier, bytes)`` whenever a cache layer drops an entry: the
    in-memory LRU (:meth:`repro.engine.map_cache.MapCache._evict`,
    ``tier="memory"``) and the shared store's disk budget
    (:meth:`repro.cluster.store.SharedMapStore._enforce_disk_budget`,
    ``tier="disk"``).

Installation follows the module-level context pattern of
:mod:`repro.obs.trace` / :mod:`repro.mapping.hooks`: ``use_ledger``
installs a process-wide active ledger, every emission site reads one
module global and returns immediately when it is ``None`` — so the
disabled cost per site is a global read plus a ``None`` check, inside
the same <2% bound the span layer holds.  The ledger is observability
only: nothing on the compute path may branch on it, so ledger-on and
ledger-off runs are bit-identical (property-enforced).

Events carry the *frame tag* of the request whose build emitted them
(``f3`` for stream sessions, ``veh0/f3`` for fleet streams) — stamped by
the engine via :func:`ledger_frame` — which is what joins them back to
the ``frame``/``round`` spans in a ``--trace`` file.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "RecomputeLedger",
    "TILE_CAUSES",
    "current_ledger",
    "ledger_frame",
    "use_ledger",
]

#: Every cause a planned tile can be classified as (exactly one per tile).
TILE_CAUSES = (
    "probe_hit",
    "l1_hit",
    "l2_hit",
    "disk_hit",
    "recompute(cold)",
    "recompute(digest_changed)",
    "recompute(halo_moved)",
    "recompute(evicted)",
    "fallback(empty_halo)",
)

_TILE_SUFFIX = "/tile"


class RecomputeLedger:
    """Bounded structured event log of cache decisions.

    ``max_events`` bounds the retained event ring (oldest dropped first,
    counted in ``dropped``); the per-cause aggregates keep totals
    regardless, so a long drive's summary stays exact even after the
    ring wraps.
    """

    def __init__(self, max_events: int = 65536) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = int(max_events)
        self._events: deque = deque()
        self.dropped = 0
        self.causes: Counter = Counter()      # tile cause -> tiles
        self.evictions: Dict[str, Dict[str, int]] = {}  # tier -> {count, bytes}
        self.calls = 0
        self.probe_hits = 0
        self.planned_tiles = 0
        self._frame: Any = None  # stamped by ledger_frame()

    # -- emission sites -------------------------------------------------

    def _emit(self, kind: str, **fields: Any) -> None:
        if len(self._events) >= self.max_events:
            self._events.popleft()
            self.dropped += 1
        event = {"kind": kind, "frame": self._frame}
        event.update(fields)
        self._events.append(event)

    def tile(self, op: str, cause: str, n: int = 1) -> None:
        """Classify ``n`` tiles of one mapping call as ``cause``."""
        if n <= 0:
            return
        if op.endswith(_TILE_SUFFIX):
            op = op[: -len(_TILE_SUFFIX)]
        self.causes[cause] += n
        self._emit("tile", op=op, cause=cause, n=int(n))

    def call(self, op: str, tiles: int, cause: str = "planned") -> None:
        """Record one whole mapping call the front handled."""
        self.calls += 1
        if cause == "probe_hit":
            self.probe_hits += 1
            self.causes["probe_hit"] += 1
        else:
            self.planned_tiles += int(tiles)
        self._emit("call", op=op, cause=cause, tiles=int(tiles))

    def eviction(self, tier: str, key: str, nbytes: int) -> None:
        """Record one cache entry leaving ``tier``."""
        slot = self.evictions.setdefault(tier, {"count": 0, "bytes": 0})
        slot["count"] += 1
        slot["bytes"] += int(nbytes)
        self._emit("eviction", tier=tier, key=key, bytes=int(nbytes))

    # -- export ---------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """Retained events, oldest first."""
        return list(self._events)

    def summary(self) -> dict:
        """Aggregate view (exact totals, independent of the ring bound)."""
        recomputed = sum(
            n for cause, n in self.causes.items()
            if cause.startswith("recompute")
        )
        return {
            "events": len(self._events),
            "dropped": self.dropped,
            "calls": self.calls,
            "probe_hits": self.probe_hits,
            "planned_tiles": self.planned_tiles,
            "recomputed_tiles": recomputed,
            "causes": dict(self.causes),
            "evictions": {tier: dict(c) for tier, c in self.evictions.items()},
        }

    def dump_jsonl(self, path: str) -> int:
        """Write retained events, one JSON object per line; returns count."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for event in self._events:
                fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
                n += 1
        return n


_ACTIVE: Optional[RecomputeLedger] = None


def current_ledger() -> Optional[RecomputeLedger]:
    return _ACTIVE


@contextmanager
def use_ledger(ledger: RecomputeLedger) -> Iterator[RecomputeLedger]:
    """Install ``ledger`` as the process-wide active ledger (nests)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ledger
    try:
        yield ledger
    finally:
        _ACTIVE = previous


@contextmanager
def ledger_frame(tag: Any) -> Iterator[None]:
    """Stamp events emitted inside the block with ``tag`` (a frame id).

    Installed by the engine around each request's functional build —
    the same place :func:`repro.mapping.hooks.request_context` lives —
    so every cache decision joins back to the request's frame span.
    A no-op (one global read) when no ledger is active.
    """
    ledger = _ACTIVE
    if ledger is None:
        yield
        return
    previous = ledger._frame
    ledger._frame = tag
    try:
        yield
    finally:
        ledger._frame = previous
