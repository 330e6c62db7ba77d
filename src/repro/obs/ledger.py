"""Cache-lineage ledger: which stored traces left, where, and when.

The span layer (:mod:`repro.obs.trace`) says where time went; this module
records the memo decisions behind it.  A :class:`RecomputeLedger` is a
bounded structured event log fed by the engine's trace store
(:class:`repro.engine.trace_store.TraceStore`):

``eviction`` events
    ``(key, tier, bytes)`` whenever the store drops a trace: its
    in-memory LRU (``tier="memory"``) or its disk budget
    (``tier="disk"``).  ``key`` is the hex of the store's versioned
    workload digest and ``bytes`` the trace's map-table payload (memory)
    or file size (disk).  A later miss on an evicted key is a rebuild
    the store's capacity caused.

Installation follows the module-level context pattern of
:mod:`repro.obs.trace`: ``use_ledger``
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
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "RecomputeLedger",
    "current_ledger",
    "ledger_frame",
    "use_ledger",
]


class RecomputeLedger:
    """Bounded structured event log of trace-store decisions.

    ``max_events`` bounds the retained event ring (oldest dropped first,
    counted in ``dropped``); the per-tier aggregates keep totals
    regardless, so a long drive's summary stays exact even after the
    ring wraps.
    """

    def __init__(self, max_events: int = 65536) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = int(max_events)
        self._events: deque = deque()
        self.dropped = 0
        self.evictions: Dict[str, Dict[str, int]] = {}  # tier -> {count, bytes}
        self._frame: Any = None  # stamped by ledger_frame()

    # -- emission sites -------------------------------------------------

    def _emit(self, kind: str, **fields: Any) -> None:
        if len(self._events) >= self.max_events:
            self._events.popleft()
            self.dropped += 1
        event = {"kind": kind, "frame": self._frame}
        event.update(fields)
        self._events.append(event)

    def eviction(self, tier: str, key: str, nbytes: int) -> None:
        """Record one stored trace leaving ``tier``."""
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
        return {
            "events": len(self._events),
            "dropped": self.dropped,
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

    Installed by the engine around each request's store lookup and
    build, so every eviction joins back to the request's frame span.
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
