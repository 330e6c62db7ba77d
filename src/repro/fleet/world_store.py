"""Cross-stream tile sharing: world-region content keys, per-stream books.

The streaming tile front (:class:`~repro.stream.incremental.TileMapCache`)
already addresses every tile sub-result by a *content* digest of the world
region it covers — nothing about the key says which stream computed it.
That is exactly what makes fleet serving work: two vehicles driving the
same map region produce byte-identical static tiles, so the second
vehicle's kNN / ball-query sub-lookups hit entries the first vehicle paid
for.  Kernel maps and voxelize never reach a front (they take the chain's
whole-op digest path), so for a SparseConv fleet this store passes
nothing through and books nothing.  What the plain front *cannot* tell you is
that it happened — a hit is a hit.

:class:`WorldTileStore` is the attribution layer: a wrapping front
(``front=WorldTileStore(TileMapCache(...))``) that delegates every
decomposition decision to the inner tile front but interposes on the
chain handle it hands down.  Each sub-key's first writer is recorded as
its *owner stream* (the tenant from
:func:`repro.mapping.hooks.current_tenant`, stamped by the engine from
``SimRequest.tenant``); each later hit is classified:

``self``
    the owning stream hit its own tile — ordinary temporal reuse;
``cross``
    a *different* stream hit it — the fleet win this subsystem exists to
    produce (and the number ``benchmarks/test_fleet_throughput.py``
    asserts is nonzero);
``external``
    the key was never written through this store — a disk-spill
    warm-start from an earlier process, or an owner record evicted from
    the bounded ownership book.

Attribution is observability only: values flow through unchanged, so the
wrapped front keeps the bit-identity contract of the bare one
(``tests/properties/test_prop_fleet.py``).  Per op, the three hit classes
plus misses sum exactly to the inner front's hit/miss counters — the
chained-front accounting ``tests/fleet/test_world_store.py`` pins down.
"""

from __future__ import annotations

from collections import OrderedDict

from ..mapping.hooks import batch_get, batch_put, count_by_op, current_tenant

__all__ = ["WorldTileStats", "WorldTileStore"]

_TILE_SUFFIX = "/tile"


def _base_op(op: str) -> str:
    """Chain sub-lookups are labelled ``<op>/tile``; attribute to ``<op>``
    so the books line up with the inner front's per-op counters.  The
    batched planner's whole-call probes arrive as ``<op>/whole`` and keep
    that label on both sides of the accounting — the inner front counts
    them under the same op string, so the partition invariant holds."""
    if op.endswith(_TILE_SUFFIX):
        return op[: -len(_TILE_SUFFIX)]
    return op


class WorldTileStats:
    """Per-stream attribution of tile sub-lookup traffic.

    ``by_op`` maps each mapping op to
    ``{"self_hits", "cross_hits", "external_hits", "misses"}``; the
    aggregate counters sum the same events.  ``shared_keys`` counts
    distinct world-tile keys that earned at least one cross-stream hit —
    the size of the map region the fleet is actually sharing.
    """

    def __init__(self) -> None:
        self.self_hits = 0
        self.cross_hits = 0
        self.external_hits = 0
        self.misses = 0
        self.shared_keys = 0
        self.by_op: dict = {}  # op -> {self_hits, cross_hits, external_hits, misses}
        self.by_stream: dict = {}  # tenant -> {"hits": int, "misses": int}

    @property
    def hits(self) -> int:
        return self.self_hits + self.cross_hits + self.external_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def cross_hit_rate(self) -> float:
        return self.cross_hits / self.lookups if self.lookups else 0.0

    def _slot(self, op: str) -> dict:
        return self.by_op.setdefault(
            op,
            {"self_hits": 0, "cross_hits": 0, "external_hits": 0, "misses": 0},
        )

    def _count(self, op: str, kind: str) -> None:
        self._slot(op)[kind] += 1
        setattr(self, kind, getattr(self, kind) + 1)
        count_by_op(self.by_stream, current_tenant() or "?",
                    hit=kind != "misses")

    def snapshot(self) -> dict:
        return {
            "self_hits": self.self_hits,
            "cross_hits": self.cross_hits,
            "external_hits": self.external_hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "cross_hit_rate": self.cross_hit_rate,
            "shared_keys": self.shared_keys,
            "by_op": {op: dict(c) for op, c in self.by_op.items()},
            "by_stream": {t: dict(c) for t, c in self.by_stream.items()},
        }


class WorldTileStore:
    """Wrapping cache front that attributes tile hits across streams.

    Parameters
    ----------
    inner:
        The decomposing front to wrap — anything with the front protocol
        (``handles`` / ``memoize(op, arrays, params, compute, chain)`` /
        ``stats()``), in practice a
        :class:`~repro.stream.incremental.TileMapCache`.
    max_owned_keys:
        Bound on the ownership book.  Ownership records are tiny
        (digest -> tenant string), but fleets run indefinitely; the oldest
        records are forgotten first, after which hits on those keys count
        as ``external`` rather than mis-attributing an owner.
    """

    def __init__(self, inner, max_owned_keys: int = 1 << 20) -> None:
        if inner is None:
            raise ValueError("WorldTileStore needs an inner front to wrap")
        if max_owned_keys < 1:
            raise ValueError(
                f"max_owned_keys must be >= 1, got {max_owned_keys}"
            )
        self.inner = inner
        self.max_owned_keys = int(max_owned_keys)
        # key -> [owner tenant, has_earned_a_cross_hit]
        self._owners: OrderedDict[bytes, list] = OrderedDict()
        self._stats = WorldTileStats()

    def stats(self) -> WorldTileStats:
        return self._stats

    # ------------------------------------------------------------------
    # Front protocol (delegation + chain interposition)
    # ------------------------------------------------------------------

    def handles(self, op: str, arrays, params: dict) -> bool:
        return self.inner.handles(op, arrays, params)

    def memoize(self, op: str, arrays, params: dict, compute, chain):
        return self.inner.memoize(
            op, arrays, params, compute, _AttributingChain(self, chain)
        )

    # ------------------------------------------------------------------
    # Ownership book
    # ------------------------------------------------------------------

    def _record_owner(self, key: bytes) -> None:
        if key not in self._owners:
            self._owners[key] = [current_tenant(), False]
            while len(self._owners) > self.max_owned_keys:
                self._owners.popitem(last=False)

    def _classify(self, key: bytes, op: str) -> None:
        record = self._owners.get(key)
        if record is None:
            self._stats._count(op, "external_hits")
            return
        if record[0] == current_tenant():
            self._stats._count(op, "self_hits")
            return
        self._stats._count(op, "cross_hits")
        if not record[1]:
            record[1] = True
            self._stats.shared_keys += 1


class _AttributingChain:
    """The chain handle the wrapped front sees: same ``get``/``put``
    surface as :class:`~repro.mapping.hooks.TieredLookup`, with every
    outcome booked against the current tenant before the value (or miss)
    flows through untouched."""

    def __init__(self, store: WorldTileStore, chain) -> None:
        self._store = store
        self._chain = chain

    def get(self, key: bytes, op: str = "?", copy: bool = True):
        value = self._chain.get(key, op, copy=copy)
        base = _base_op(op)
        if value is None:
            self._store._stats._count(base, "misses")
        else:
            self._store._classify(key, base)
        return value

    def put(self, key: bytes, value, op: str = "?", copy: bool = True) -> None:
        self._chain.put(key, value, op, copy=copy)
        self._store._record_owner(key)

    def get_many(self, keys, op: str = "?", copy: bool = True) -> list:
        """Batched probe: delegate in one call, book every outcome.

        The wrapped front's plan path issues one ``get_many`` per mapping
        call; attribution must not reintroduce a per-key chain walk, so
        the batch flows through and only the (cheap) classification loops.
        """
        values = batch_get(self._chain, keys, op, copy=copy)
        base = _base_op(op)
        stats = self._store._stats
        for key, value in zip(keys, values):
            if value is None:
                stats._count(base, "misses")
            else:
                self._store._classify(key, base)
        return values

    def put_many(self, keys, values, op: str = "?", copy: bool = True) -> None:
        batch_put(self._chain, keys, values, op, copy=copy)
        for key in keys:
            self._store._record_owner(key)
