"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Every layer's ``*Stats`` class keeps its own domain-specific tallies (they
are part of the bit-identity surface and stay put), but they all *register
into* one :class:`MetricsRegistry` as snapshot sources, so a single
``snapshot()`` call yields one schema for the whole stack::

    {"counters": {...}, "gauges": {...}, "histograms": {...},
     "sources": {"cluster": {...}, "stream": {...}, ...}}

:meth:`MetricsRegistry.merge` subsumes the worker-pool
``merge_snapshots`` (which now delegates here): numeric leaves sum,
dicts recurse, non-numeric leaves keep the first value, ``*rate`` leaves
are recomputed from the merged counters they derive from, and
equal-length numeric lists (histogram bucket counts) sum element-wise.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

__all__ = ["Histogram", "MetricsRegistry", "current_registry",
           "merge_snapshots", "use_registry"]


def merge_snapshots(snapshots) -> dict:
    """Merge per-worker/per-layer stats snapshots into one view.

    Numeric leaves sum, nested dicts merge recursively, and non-numeric
    leaves (``persistent`` flags, mode strings) keep the first value.
    Ratio keys cannot be summed; every ``hit_rate`` leaf is recomputed
    from the merged ``hits``/``lookups`` counters, and any other ``*rate``
    leaf is dropped.
    Equal-length lists of numbers (histogram bucket counts) sum
    element-wise; mismatched lists keep the first value.
    """
    snapshots = [s for s in snapshots if s]
    if not snapshots:
        return {}

    def numeric_list(value) -> bool:
        return (isinstance(value, list) and
                all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value))

    def merge_into(out: dict, src: dict) -> None:
        for key, value in src.items():
            if isinstance(value, dict):
                merge_into(out.setdefault(key, {}), value)
            elif numeric_list(value):
                have = out.get(key)
                if have is None:
                    out[key] = list(value)
                elif numeric_list(have) and len(have) == len(value):
                    out[key] = [a + b for a, b in zip(have, value)]
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                out.setdefault(key, value)
            elif key.endswith("rate"):
                out[key] = None  # recomputed below
            else:
                out[key] = out.get(key, 0) + value

    def fix_rates(node: dict) -> None:
        for key, value in list(node.items()):
            if isinstance(value, dict):
                fix_rates(node[key])
        lookups = node.get("lookups", 0)
        if "hit_rate" in node:
            node["hit_rate"] = node.get("hits", 0) / lookups if lookups else 0.0
        for key, value in list(node.items()):
            if value is None and key.endswith("rate"):
                del node[key]  # no counters to recompute it from

    merged: dict = {}
    for snapshot in snapshots:
        merge_into(merged, snapshot)
    fix_rates(merged)
    return merged


# Default latency-ish bucket upper bounds, in milliseconds.
DEFAULT_BUCKETS_MS = (0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000)


class Histogram:
    """Fixed-bucket histogram: O(log buckets) observe, mergeable snapshot."""

    __slots__ = ("buckets", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS_MS):
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +1 = overflow bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }


class MetricsRegistry:
    """One registry per process; layers register snapshot sources into it."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], dict]] = {}

    # -- primitive instruments ------------------------------------------
    def counter(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS_MS) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(buckets)
        return hist

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- snapshot sources ------------------------------------------------
    def register(self, name: str, supplier: Callable[[], dict]) -> None:
        """Register a layer's snapshot supplier (e.g. ``stats().snapshot``).

        Suppliers are pulled lazily at :meth:`snapshot` time so the
        registry always reflects current tallies without the stats
        classes pushing on every increment.
        """
        self._sources[name] = supplier

    def ingest(self, name: str, payload: dict) -> None:
        """Merge a static nested snapshot under ``sources[name]``."""
        existing = self._sources.get(name)
        if existing is not None and getattr(existing, "_static", None) is not None:
            payload = merge_snapshots([existing._static, payload])
        supplier = lambda: payload  # noqa: E731
        supplier._static = payload  # type: ignore[attr-defined]
        self._sources[name] = supplier

    # -- export ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        sources = {}
        for name, supplier in self._sources.items():
            try:
                sources[name] = supplier()
            except Exception:
                sources[name] = {}
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: hist.snapshot() for name, hist in self._histograms.items()
            },
            "sources": sources,
        }

    @staticmethod
    def merge(snapshots: List[dict]) -> dict:
        """Merge snapshots from several registries/workers (see module doc)."""
        return merge_snapshots(snapshots)


_ACTIVE: Optional[MetricsRegistry] = None


def current_registry() -> Optional[MetricsRegistry]:
    return _ACTIVE


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the process-wide active registry (nests).

    Lets session/cluster handlers :meth:`MetricsRegistry.ingest` their
    ``summary()`` payloads into whatever registry ``--metrics`` opened,
    without threading the registry through every constructor.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous
