"""Phase-attributed tracing: nested spans with monotonic timings.

The tracer follows a module-level context pattern: ``use_tracer(tracer)``
installs a process-wide active tracer, and every instrumentation site
calls the module function ``span("name", **attrs)``.  When no tracer is installed ``span`` returns
a shared no-op context manager, so the disabled cost is one global read
and one function call per site — no allocation, no clock read.

Spans are plain picklable objects so worker processes can ship their
span trees back with ``SimResult`` and the dispatching side can
re-parent them under its own dispatch span (attributing the residual —
serialize / pipe / deserialize — to an explicit ``ipc`` child).

Span stacks are thread-local: the engine's overlap mode builds traces
in a side thread, and those spans must not interleave with the main
thread's stack.  A side-thread root span is simply a new root; callers
that want it attached under a specific parent use ``adopt``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "span",
    "use_tracer",
]


class Span:
    """One timed phase.  Plain attributes, picklable, cheap."""

    __slots__ = ("name", "start", "duration", "attrs", "counters", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.start = 0.0          # perf_counter seconds (process-local epoch)
        self.duration = 0.0       # seconds
        self.attrs: Dict[str, Any] = attrs or {}
        self.counters: Dict[str, float] = {}
        self.children: List[Span] = []

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def child_seconds(self) -> float:
        return sum(c.duration for c in self.children)

    def self_seconds(self) -> float:
        return max(0.0, self.duration - self.child_seconds())

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "dur_ms": self.duration * 1e3,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.counters:
            out["counters"] = self.counters
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
                f"children={len(self.children)})")


class _NullSpan:
    """Shared no-op returned by ``span()`` when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def count(self, key: str, value: float = 1.0) -> None:
        return None

    # Mirror the Span surface that instrumentation sites touch so call
    # sites never need an enabled-check of their own.
    attrs: Dict[str, Any] = {}
    counters: Dict[str, float] = {}
    children: List["Span"] = []
    duration = 0.0


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees; thread-local stacks, shared root list."""

    def __init__(self, recorder: Optional["object"] = None):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: List[Span] = []
        self.recorder = recorder  # optional FlightRecorder

    # -- stack plumbing -------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        node = Span(name, attrs or None)
        stack = self._stack()
        if stack:
            stack[-1].children.append(node)
        else:
            with self._lock:
                self.roots.append(node)
        stack.append(node)
        node.start = time.perf_counter()
        try:
            yield node
        finally:
            node.duration = time.perf_counter() - node.start
            stack.pop()

    @contextmanager
    def detached(self, name: str, **attrs: Any) -> Iterator[Span]:
        """A span pushed on this thread's stack but attached to *nothing*.

        For work that runs on a side thread (the engine's overlap-mode
        trace builder) whose span must land under a parent on another
        thread: the caller gets the finished span back and attaches it
        where it belongs (``parent.children.append(span)``).
        """
        node = Span(name, attrs or None)
        stack = self._stack()
        stack.append(node)
        node.start = time.perf_counter()
        try:
            yield node
        finally:
            node.duration = time.perf_counter() - node.start
            stack.pop()

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def attach(self, node: Span) -> None:
        """Attach an externally-built span at the current position."""
        stack = self._stack()
        if stack:
            stack[-1].children.append(node)
        else:
            with self._lock:
                self.roots.append(node)

    def adopt(self, parent: Span, spans: List[Span]) -> None:
        """Attach foreign (e.g. unpickled worker) spans under ``parent``."""
        parent.children.extend(spans)

    # -- export ---------------------------------------------------------
    def drain(self) -> List[Span]:
        with self._lock:
            roots, self.roots = self.roots, []
        return roots

    def dump_jsonl(self, path: str, extra_roots: Optional[List[Span]] = None) -> int:
        """Write one JSON object per root span tree; returns span count."""
        roots = list(self.roots)
        if extra_roots:
            roots = roots + list(extra_roots)
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for root in roots:
                fh.write(json.dumps(root.to_dict(), sort_keys=True) + "\n")
                n += sum(1 for _ in root.walk())
        return n


_ACTIVE: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    return _ACTIVE


def _set_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or clear) the process-wide tracer without a with-block.

    Worker processes use this: fork-start children inherit the parent's
    ``_ACTIVE`` and must clear it before installing their own.
    """
    global _ACTIVE
    _ACTIVE = tracer


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = prev


def span(name: str, **attrs: Any):
    """Open a span on the active tracer, or a shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)
