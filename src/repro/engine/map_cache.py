"""Content-addressed memoization of mapping results.

PointAcc's MMU keeps neighbor maps and kernel maps resident so repeated
geometry never pays the mapping pipeline twice (paper Section 4.2); Mesorasi
amortizes the same work by restructuring the network.  :class:`MapCache` is
the host-simulation analogue: a bounded LRU keyed on the *content* of the
coordinate arrays plus the op parameters, shared across layers, models and
requests by the simulation engine.

Keys are BLAKE2b digests over the raw bytes of every input array (dtype and
shape included) plus a canonical rendering of the scalar parameters, so two
requests that present the same geometry — same cloud object or a fresh copy
with equal values — hit the same entry, while any numeric difference misses.

Cached values are never handed out by reference: hits return a deep copy of
the stored arrays (`owned arrays`), so a caller mutating its result can
never corrupt later hits.  This mirrors the contract the reference mapping
ops themselves guarantee (see ``tests/mapping/test_boundaries.py``).
Hit/miss bookkeeping is observable through :meth:`MapCache.stats`; a hit
must never change a simulation *result*, only its wall-clock cost.

The cache exposes two surfaces:

* :meth:`MapCache.memoize` — the one-shot lookup-or-compute path the
  mapping hooks call;
* :meth:`MapCache.get` / :meth:`MapCache.put` keyed by the BLAKE2b digest —
  the tier primitives :class:`repro.mapping.hooks.TieredLookup` and the
  cluster's shared L2 store compose over.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..mapping.hooks import count_by_op
from ..mapping.maps import MapTable, copy_value
from ..obs.ledger import current_ledger as _current_ledger

__all__ = ["MapCache", "MapCacheStats"]

#: Bound on the remembered-evicted-digest set (see MapCache._evicted).
_EVICTED_MEMORY = 1 << 16


def _value_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, MapTable):
        return value.in_idx.nbytes + value.out_idx.nbytes + value.weight_idx.nbytes
    if isinstance(value, tuple):
        return sum(_value_bytes(v) for v in value)
    return 0


@dataclass
class MapCacheStats:
    """Observable cache behaviour; aggregated and per-op.

    ``eviction_misses`` counts the subset of ``misses`` whose key was
    previously resident but got evicted — a capacity problem, not cold
    traffic.  Before this split an undersized cache and a cold cache were
    indistinguishable in ``EngineStats``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    eviction_misses: int = 0
    stored_bytes: int = 0
    by_op: dict = field(default_factory=dict)  # op -> {"hits": int, "misses": int}
    extra: dict = field(default_factory=dict)  # subclass counters (e.g. disk tier)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def _count(self, op: str, hit: bool) -> None:
        count_by_op(self.by_op, op, hit)
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def snapshot(self) -> dict:
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "eviction_misses": self.eviction_misses,
            "stored_mb": self.stored_bytes / 1e6,
            "by_op": {op: dict(c) for op, c in self.by_op.items()},
        }
        out.update(self.extra)
        return out


class MapCache:
    """Bounded content-addressed LRU for mapping results.

    ``max_entries`` bounds the entry count; ``max_bytes`` bounds the resident
    array payload (least-recently-used entries are dropped first on either
    limit).  Install with :func:`repro.mapping.use_map_cache` to make every
    FPS / kNN / ball-query / kernel-map call inside the block consult it.
    """

    def __init__(self, max_entries: int = 4096, max_bytes: int = 256 * 1024 * 1024):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._stats = MapCacheStats()
        self._entries: OrderedDict[bytes, object] = OrderedDict()
        # Digests seen leaving the cache, so a later miss on one of them can
        # be attributed to capacity (bounded: oldest forgotten first).
        self._evicted: OrderedDict[bytes, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> MapCacheStats:
        """Live counters (same protocol as ``SimulationEngine.stats()``)."""
        return self._stats

    @staticmethod
    def key(op: str, arrays, params: dict) -> bytes:
        """Content digest of one mapping call."""
        h = hashlib.blake2b(digest_size=16)
        h.update(op.encode())
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            h.update(str(arr.dtype).encode())
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        for name in sorted(params):
            h.update(name.encode())
            h.update(repr(params[name]).encode())
        return h.digest()

    # ------------------------------------------------------------------
    # Tier primitives: digest-keyed lookup/insert, used by TieredLookup
    # ------------------------------------------------------------------

    def get(self, key: bytes, op: str = "?", copy: bool = True):
        """Owned copy of the entry under ``key``, or ``None`` (counted).

        ``copy=False`` returns the stored object itself — for callers in
        the immutable-value regime (the tile fronts: sub-entries are
        composed from, never written to), where deep-copying thousands of
        small arrays per frame is pure overhead.  Such a caller must never
        mutate what it gets back.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._stats._count(op, hit=True)
            return copy_value(entry) if copy else entry
        self._stats._count(op, hit=False)
        if key in self._evicted:
            self._stats.eviction_misses += 1
        return None

    def put(self, key: bytes, value, op: str = "?", copy: bool = True) -> None:
        """Store a private copy of ``value`` under ``key`` (not counted).

        ``copy=False`` stores ``value`` by reference (same immutable-value
        contract as :meth:`get`).
        """
        stored = copy_value(value) if copy else value
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._stats.stored_bytes -= _value_bytes(previous)
        self._entries[key] = stored
        self._stats.stored_bytes += _value_bytes(stored)
        self._evicted.pop(key, None)
        self._evict()

    def get_many(self, keys, op: str = "?", copy: bool = True) -> list:
        """Batched :meth:`get`: one call, N probes, per-key counting.

        Routed through :meth:`get` so subclasses with side channels (the
        shared store's disk spill) stay correct; the win over N caller
        loops is that the tier boundary — and, through
        :meth:`repro.mapping.hooks.TieredLookup.get_many`, the whole
        chain traversal — is crossed once per batch.
        """
        return [self.get(key, op, copy=copy) for key in keys]

    def put_many(self, keys, values, op: str = "?", copy: bool = True) -> None:
        """Batched :meth:`put` (same per-key semantics)."""
        for key, value in zip(keys, values):
            self.put(key, value, op, copy=copy)

    def memoize(self, op: str, arrays, params: dict, compute):
        """Return the cached result of ``compute()`` for this content key.

        On a hit the stored value is returned as a fresh deep copy; on a miss
        ``compute()`` runs and a private copy of its result is stored, so
        neither the caller's result nor the cache entry can alias the other.
        """
        key = self.key(op, arrays, params)
        entry = self.get(key, op)
        if entry is not None:
            return entry
        value = compute()
        self.put(key, value, op)
        return value

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries or (
            self._stats.stored_bytes > self.max_bytes and len(self._entries) > 1
        ):
            key, dropped = self._entries.popitem(last=False)
            nbytes = _value_bytes(dropped)
            self._stats.stored_bytes -= nbytes
            self._stats.evictions += 1
            ledger = _current_ledger()
            if ledger is not None:
                ledger.eviction("memory", key.hex(), nbytes)
            self._evicted[key] = None
            while len(self._evicted) > _EVICTED_MEMORY:
                self._evicted.popitem(last=False)

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry; optionally zero the counters too."""
        self._entries.clear()
        self._evicted.clear()
        if reset_stats:
            self._stats = MapCacheStats()
        else:
            self._stats.stored_bytes = 0
