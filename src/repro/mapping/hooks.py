"""Map-result memoization hooks for the reference mapping operations.

The functional mapping ops (FPS, kNN, ball query, kernel mapping) are pure
functions of their coordinate inputs, yet the networks recompute them for
every layer and every request even when the geometry is identical — exactly
the redundancy PointAcc's MMU exploits by keeping map tables resident.  The
simulation engine (:mod:`repro.engine`) exploits the same redundancy on the
host side: while a cache is *active*, every mapping op first consults it
before computing.

The hook is deliberately dumb: a module-level slot plus a context manager.
Anything implementing ``memoize(op, arrays, params, compute)`` can be
installed (see :class:`repro.engine.MapCache`).  When no cache is active —
the default, and the state every test suite starts from — the mapping ops
run exactly as before; results are bit-identical either way, which the
property suite (`tests/properties/test_prop_engine.py`) enforces.

Tiered lookup
-------------
:class:`TieredLookup` chains several caches behind the same ``memoize``
facade: probe the first tier (a shard's private L1), then each lower tier
(the cluster-shared L2 store, which itself may spill to disk), and on a hit
promote the value into every tier above it.  A full miss computes once and
populates every tier — with one private copy that all tiers share, so a
value costs its bytes once per chain.  Passing a list/tuple to
:func:`use_map_cache` installs the chain — the tiered path the cluster's
shards run on.  Tiers are duck-typed: anything with ``key`` / ``get`` /
``put`` / ``stats()`` (the :class:`~repro.engine.map_cache.MapCache`
surface) works, so this module needs no imports from the engine.  The
owned copies come from :func:`repro.mapping.maps.copy_value`, the one
definition every tier shares.
"""

from __future__ import annotations

from contextlib import contextmanager

from .maps import copy_value

__all__ = [
    "TieredLookup",
    "TieredStats",
    "active_cache",
    "count_by_op",
    "use_map_cache",
]

_ACTIVE = None


def count_by_op(by_op: dict, op: str, hit: bool) -> None:
    """Increment the shared per-op counter shape ``{op: {hits, misses}}``.

    One definition for every stats object that attributes cache behaviour
    to mapping ops (``MapCacheStats``, :class:`TieredStats`), so the by-op
    schema cannot drift apart.
    """
    slot = by_op.setdefault(op, {"hits": 0, "misses": 0})
    slot["hits" if hit else "misses"] += 1


class TieredStats:
    """Lookup-level counters for a :class:`TieredLookup`.

    ``hits``/``misses`` describe the chain as a whole (a hit in *any* tier
    is one chain hit); ``by_op`` splits the same counters per mapping op
    (fps / knn / ball_query / kernel_map/...), so a serving stats dump can
    attribute reuse to the op that earned it.  ``snapshot()`` additionally
    carries each tier's own counters so L1 vs L2 vs disk behaviour stays
    distinguishable.
    """

    def __init__(self, tiers) -> None:
        self._tiers = tiers
        self.hits = 0
        self.misses = 0
        self.by_op: dict = {}  # op -> {"hits": int, "misses": int}

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
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "by_op": {op: dict(c) for op, c in self.by_op.items()},
            "tiers": [tier.stats().snapshot() for tier in self._tiers],
        }


class TieredLookup:
    """Chain of content-addressed cache tiers behind one ``memoize``.

    The first tier is the fastest/most private (a shard's L1), later tiers
    are progressively more shared (the cluster L2, its disk spill).  Hits
    are promoted upward so hot entries migrate toward the front.  Copy
    ownership is preserved: :meth:`memoize` stores one private copy that
    every tier shares and hands callers copies of it, so a caller can
    never alias a stored entry.
    """

    def __init__(self, tiers) -> None:
        tiers = [t for t in tiers if t is not None]
        if not tiers:
            raise ValueError("TieredLookup needs at least one tier")
        self.tiers = tiers
        self._stats = TieredStats(tiers)

    def stats(self) -> TieredStats:
        return self._stats

    def memoize(self, op: str, arrays, params: dict, compute):
        """Whole-op lookup-or-compute through the chain.

        Every tier holds the *same* private copy of a value: a miss copies
        the computed result once and writes that one object through, a
        hit promotes the stored object by reference.  The caller always
        gets its own copy, so it can never alias a stored entry — and a
        value costs its bytes once, not once per tier.
        """
        key = self.tiers[0].key(op, arrays, params)
        for depth, tier in enumerate(self.tiers):
            stored = tier.get(key, op, copy=False)
            if stored is not None:
                self._stats._count(op, hit=True)
                for upper in self.tiers[:depth]:
                    upper.put(key, stored, op, copy=False)
                return copy_value(stored)
        self._stats._count(op, hit=False)
        value = compute()
        stored = copy_value(value)
        for tier in self.tiers:
            tier.put(key, stored, op, copy=False)
        return value


def active_cache():
    """The currently installed map cache, or ``None``."""
    return _ACTIVE


@contextmanager
def use_map_cache(cache):
    """Install ``cache`` as the active map cache for the enclosed block.

    ``cache`` may be a single cache, or a list/tuple of tiers which is
    wrapped in a :class:`TieredLookup` (first element = L1).  Nests
    correctly (the previous cache is restored on exit) and is
    exception-safe.  Passing ``None`` disables memoization inside the
    block, which the engine uses to build deliberately cold baselines.
    """
    global _ACTIVE
    if isinstance(cache, (list, tuple)):
        cache = TieredLookup(cache)
    previous = _ACTIVE
    _ACTIVE = cache
    try:
        yield cache
    finally:
        _ACTIVE = previous
