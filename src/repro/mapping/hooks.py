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
definition every tier shares.  ``get_many`` / ``put_many`` batch the
same semantics — one chain traversal for N keys, which is what the
streaming tile planner issues per decomposed mapping call; tiers may
implement their own batch methods or be driven per-key transparently.

Content-aware front
-------------------
Digest tiers only ever see whole-input content keys, so two clouds that
overlap but are not bit-identical can never share an entry.  A *front* is
an optional content-aware stage consulted before the digest path: anything
with ``handles(op, arrays, params)`` and
``memoize(op, arrays, params, compute, chain)`` (plus ``stats()``) may be
installed as ``TieredLookup(tiers, front=...)``.  A front that handles an
op may decompose it — e.g. the streaming tile cache
(:class:`repro.stream.incremental.TileMapCache`) splits a cloud into
spatial tiles and serves unchanged tiles from the chain's digest tiers via
:meth:`TieredLookup.get` / :meth:`TieredLookup.put` — as long as it
preserves the contract that a cache can only ever change wall-clock, never
a result.  Ops a front does not handle fall through to the digest path
unchanged.  Fronts compose by wrapping: a front may delegate to an inner
front while interposing on the chain handle it passes down (the fleet's
:class:`~repro.fleet.WorldTileStore` wraps the streaming tile front this
way to attribute each tile sub-lookup to the tenant stream that issued it
— see :func:`request_context`).
"""

from __future__ import annotations

from contextlib import contextmanager

from ..obs.ledger import current_ledger as _current_ledger
from ..obs.trace import span as _span
from .maps import copy_value

__all__ = [
    "TieredLookup",
    "TieredStats",
    "active_cache",
    "batch_get",
    "batch_put",
    "count_by_op",
    "current_tenant",
    "request_context",
    "use_map_cache",
]

_ACTIVE = None
_TENANT = ""


def count_by_op(by_op: dict, op: str, hit: bool, n: int = 1) -> None:
    """Increment the shared per-op counter shape ``{op: {hits, misses}}``.

    One definition for every stats object that attributes cache behaviour
    to mapping ops (``MapCacheStats``, :class:`TieredStats`, the stream
    front's ``TileFrontStats``), so the by-op schema cannot drift apart.
    ``n`` batches the increment — the tile planner counts one probe batch
    per update.
    """
    slot = by_op.setdefault(op, {"hits": 0, "misses": 0})
    slot["hits" if hit else "misses"] += n


class TieredStats:
    """Lookup-level counters for a :class:`TieredLookup`.

    ``hits``/``misses`` describe the chain as a whole (a hit in *any* tier
    is one chain hit); ``by_op`` splits the same counters per mapping op
    (fps / knn / ball_query / kernel_map/...), so a serving stats dump can
    attribute reuse to the op that earned it.  ``snapshot()`` additionally
    carries each tier's own counters so L1 vs L2 vs disk behaviour stays
    distinguishable, plus the front's counters when one is installed.
    """

    def __init__(self, tiers, front=None) -> None:
        self._tiers = tiers
        self._front = front
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
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "by_op": {op: dict(c) for op, c in self.by_op.items()},
            "tiers": [tier.stats().snapshot() for tier in self._tiers],
        }
        if self._front is not None:
            out["front"] = self._front.stats().snapshot()
        return out


class TieredLookup:
    """Chain of content-addressed cache tiers behind one ``memoize``.

    The first tier is the fastest/most private (a shard's L1), later tiers
    are progressively more shared (the cluster L2, its disk spill).  Hits
    are promoted upward so hot entries migrate toward the front.  Copy
    ownership is preserved: :meth:`memoize` stores one private copy that
    every tier shares and hands callers copies of it, so a caller can
    never alias a stored entry.
    """

    def __init__(self, tiers, front=None) -> None:
        tiers = [t for t in tiers if t is not None]
        if not tiers:
            raise ValueError("TieredLookup needs at least one tier")
        self.tiers = tiers
        self.front = front
        self._stats = TieredStats(tiers, front)

    def stats(self) -> TieredStats:
        return self._stats

    def get(self, key: bytes, op: str = "?", copy: bool = True):
        """Chain-level digest probe: first tier that hits wins, with the
        value promoted into every tier above it.  ``None`` on a full miss.
        Used by content-aware fronts to address sub-results into the same
        L1/L2/disk tiers whole-op entries live in — fronts pass
        ``copy=False`` (they compose from sub-entries, never mutate them;
        see :meth:`repro.engine.MapCache.get`)."""
        for depth, tier in enumerate(self.tiers):
            value = tier.get(key, op, copy=copy)
            if value is not None:
                for upper in self.tiers[:depth]:
                    upper.put(key, value, op, copy=copy)
                return value
        return None

    def put(self, key: bytes, value, op: str = "?", copy: bool = True) -> None:
        """Chain-level insert: write-through to every tier."""
        for tier in self.tiers:
            tier.put(key, value, op, copy=copy)

    def get_many(self, keys, op: str = "?", copy: bool = True) -> list:
        """Batched :meth:`get`: one chain traversal for N keys.

        Semantically identical to N chained ``get`` calls — same per-tier
        probing order, same upward promotion of hits, same per-op stats
        (each tier counts every probe it sees) — but each tier is visited
        once per *batch* instead of once per key, which is what makes
        tile-decomposed lookups cheap (the tile planner,
        :mod:`repro.stream.plan`, issues one ``get_many`` per mapping
        call instead of one chain walk per tile).  Tiers without a
        ``get_many`` of their own are driven per-key transparently.
        """
        values: list = [None] * len(keys)
        missing = list(range(len(keys)))
        # The ledger classifies *tile* probes only (the planner's
        # "<op>/tile" batches): this tier loop is the one place that knows
        # which tier served each hit, so hit causes are emitted here while
        # miss causes stay with the planner's digest diagnosis.
        ledger = _current_ledger()
        track = ledger is not None and op.endswith("/tile")
        for depth, tier in enumerate(self.tiers):
            if not missing:
                break
            # tier_io spans cover the *batched* chain walk only — one span
            # per tier per batch, never one per key, so disabled-tracer
            # overhead stays off the per-tile hot path.
            with _span("tier_io", tier=type(tier).__name__, op=op,
                       way="get") as sp:
                disk0 = (getattr(tier.stats(), "extra", {}).get("disk_hits", 0)
                         if track else 0)
                got = batch_get(tier, [keys[i] for i in missing], op, copy=copy)
                still, hit_keys, hit_values = [], [], []
                for i, value in zip(missing, got):
                    if value is None:
                        still.append(i)
                    else:
                        values[i] = value
                        hit_keys.append(keys[i])
                        hit_values.append(value)
                if depth and hit_keys:
                    for upper in self.tiers[:depth]:
                        batch_put(upper, hit_keys, hit_values, op, copy=copy)
                sp.count("probes", float(len(got)))
                sp.count("hits", float(len(hit_keys)))
                if track and hit_keys:
                    # Disk-served hits are visible as the tier's disk_hits
                    # counter advancing across this batch; the remainder
                    # were served from that tier's memory.
                    disk = (getattr(tier.stats(), "extra", {})
                            .get("disk_hits", 0) - disk0)
                    disk = max(0, min(disk, len(hit_keys)))
                    memory = len(hit_keys) - disk
                    ledger.tile(op, "disk_hit", disk)
                    ledger.tile(op, "l1_hit" if depth == 0 else "l2_hit",
                                memory)
            missing = still
        return values

    def put_many(self, keys, values, op: str = "?", copy: bool = True) -> None:
        """Batched :meth:`put`: write each pair through every tier."""
        for tier in self.tiers:
            with _span("tier_io", tier=type(tier).__name__, op=op,
                       way="put") as sp:
                batch_put(tier, keys, values, op, copy=copy)
                sp.count("puts", float(len(keys)))

    def memoize(self, op: str, arrays, params: dict, compute):
        """Whole-op lookup-or-compute through the chain.

        Every tier holds the *same* private copy of a value: a miss copies
        the computed result once and writes that one object through, a
        hit promotes the stored object by reference.  The caller always
        gets its own copy, so it can never alias a stored entry — and a
        value costs its bytes once, not once per tier.
        """
        if self.front is not None and self.front.handles(op, arrays, params):
            return self.front.memoize(op, arrays, params, compute, self)
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


def batch_get(source, keys, op: str = "?", copy: bool = True) -> list:
    """Probe N keys against anything with the ``get`` surface.

    The one batch-or-per-key adapter: uses the target's ``get_many`` when
    it has one, else drives ``get`` per key.  Chains, tiers, the tile
    planner and the fleet's attributing wrapper all route through this
    pair so batch semantics cannot drift between them.
    """
    getter = getattr(source, "get_many", None)
    if getter is not None:
        return getter(keys, op, copy=copy)
    return [source.get(key, op, copy=copy) for key in keys]


def batch_put(target, keys, values, op: str = "?", copy: bool = True) -> None:
    """Insert N pairs into anything with the ``put`` surface (see
    :func:`batch_get`)."""
    putter = getattr(target, "put_many", None)
    if putter is not None:
        putter(keys, values, op, copy=copy)
    else:
        for key, value in zip(keys, values):
            target.put(key, value, op, copy=copy)


def active_cache():
    """The currently installed map cache, or ``None``."""
    return _ACTIVE


def current_tenant() -> str:
    """The tenant of the request whose trace is currently being built.

    ``""`` outside any :func:`request_context` (or for untenanted
    requests).  Fronts that attribute cache behaviour to serving streams
    (the fleet's :class:`~repro.fleet.WorldTileStore`) read this; nothing
    on the compute path may branch on it — tenancy is observability, and a
    result must never depend on who asked.
    """
    return _TENANT


@contextmanager
def request_context(tenant: str = ""):
    """Mark the enclosed trace build as belonging to ``tenant``.

    Installed by the engine around each request's functional run so cache
    layers can attribute lookups to the stream/tenant that triggered them.
    Nests and restores like :func:`use_map_cache`.
    """
    global _TENANT
    previous = _TENANT
    _TENANT = tenant or ""
    try:
        yield
    finally:
        _TENANT = previous


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
