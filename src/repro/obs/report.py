"""Trace-file analysis behind ``repro trace-report``.

Reads the JSONL written by ``Tracer.dump_jsonl`` (one root span tree per
line) or by ``FlightRecorder.dump_jsonl`` (records wrapping a ``span``),
and renders a per-phase time breakdown plus the top-N slowest frames.

Self time is what attribution needs: a ``frame`` span *contains* its
request / trace_build / backend spans, so summing raw durations per name
would double-count every nesting level.  Each span is charged
``duration - sum(children)``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["evictions_by_tier", "load_ledger_events", "load_trace",
           "phase_breakdown", "render_report", "slow_frames"]


def load_trace(path: str,
               errors: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """Load root span dicts from a trace or flight-recorder JSONL file.

    Malformed lines (truncated writes, non-JSON garbage, non-object
    values) are skipped, not raised: a partially-written trace from a
    crashed run should still yield a report.  Pass ``errors=[]`` to
    receive one ``"line N: reason"`` string per skipped line.
    """
    roots: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                if errors is not None:
                    errors.append(f"line {lineno}: {exc}")
                continue
            if not isinstance(obj, dict):
                if errors is not None:
                    errors.append(f"line {lineno}: not a span object")
                continue
            if "span" in obj and isinstance(obj["span"], dict):
                span = obj["span"]  # flight-recorder record
                span.setdefault("attrs", {}).setdefault(
                    "recorded", obj.get("kind", "slow"))
                roots.append(span)
            else:
                roots.append(obj)
    return roots


def walk(node: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    yield node
    for child in node.get("children", ()):
        yield from walk(child)


def _self_ms(node: Dict[str, Any]) -> float:
    children = node.get("children", ())
    return max(0.0, node.get("dur_ms", 0.0) -
               sum(c.get("dur_ms", 0.0) for c in children))


def phase_breakdown(roots: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Aggregate per span name: calls, total wall, and self (exclusive) time."""
    phases: Dict[str, Dict[str, float]] = {}
    for root in roots:
        for node in walk(root):
            entry = phases.setdefault(
                node.get("name", "?"),
                {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += node.get("dur_ms", 0.0)
            entry["self_ms"] += _self_ms(node)
    return phases


def slow_frames(roots: List[Dict[str, Any]], top: int = 5) -> List[Dict[str, Any]]:
    """The slowest frame-level spans (frame/round roots, else any root)."""
    frames = [n for root in roots for n in walk(root)
              if n.get("name") in ("frame", "round")]
    if not frames:
        frames = list(roots)
    frames.sort(key=lambda n: n.get("dur_ms", 0.0), reverse=True)
    return frames[:top]


def load_ledger_events(path: str,
                       errors: Optional[List[str]] = None
                       ) -> List[Dict[str, Any]]:
    """Load ledger event dicts from a ``--ledger`` JSONL file (lenient)."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                if errors is not None:
                    errors.append(f"line {lineno}: {exc}")
                continue
            if isinstance(obj, dict):
                events.append(obj)
    return events


def _frame_tags(node: Dict[str, Any]) -> List[str]:
    """Ledger frame tags that could belong to a frame/round span.

    Stream frames are tagged ``f{index}``; fleet frames ``{stream}/f{index}``.
    """
    attrs = node.get("attrs", {})
    index = attrs.get("index")
    if index is None:
        return []
    tags = [f"f{index}"]
    stream = attrs.get("stream")
    if stream is not None:
        tags.append(f"{stream}/f{index}")
    return tags


def evictions_by_tier(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, int]]:
    """Evicted entries and bytes per cache tier, across all eviction events."""
    tiers: Dict[str, Dict[str, int]] = {}
    for ev in events:
        if ev.get("kind") != "eviction":
            continue
        slot = tiers.setdefault(str(ev.get("tier", "?")),
                                {"count": 0, "bytes": 0})
        slot["count"] += 1
        slot["bytes"] += int(ev.get("bytes", 0))
    return tiers


def render_report(path: str, top: int = 5,
                  ledger: Optional[str] = None) -> str:
    errors: List[str] = []
    roots = load_trace(path, errors=errors)
    lines: List[str] = []
    if errors:
        lines.append(f"warning: skipped {len(errors)} malformed line(s) "
                     f"in {path}")
    if not roots:
        lines.append(f"trace {path}: empty (no spans)")
        return "\n".join(lines) + "\n"

    phases = phase_breakdown(roots)
    total_self = sum(p["self_ms"] for p in phases.values()) or 1.0
    lines.append(f"trace {path}: {len(roots)} root span(s), "
                 f"{sum(int(p['calls']) for p in phases.values())} spans")
    lines.append("")
    lines.append(f"{'phase':<18} {'calls':>7} {'total ms':>10} "
                 f"{'self ms':>10} {'self %':>7}")
    for name, p in sorted(phases.items(),
                          key=lambda kv: kv[1]["self_ms"], reverse=True):
        lines.append(f"{name:<18} {int(p['calls']):>7} {p['total_ms']:>10.2f} "
                     f"{p['self_ms']:>10.2f} "
                     f"{100.0 * p['self_ms'] / total_self:>6.1f}%")

    events: List[Dict[str, Any]] = []
    if ledger is not None:
        events = load_ledger_events(ledger)
        # frame tag -> evicted entries, for the slow-frame join
        per_frame: Dict[str, int] = {}
        for ev in events:
            if ev.get("kind") == "eviction":
                tag = str(ev.get("frame"))
                per_frame[tag] = per_frame.get(tag, 0) + 1
    else:
        per_frame = {}

    slow = slow_frames(roots, top)
    if slow:
        lines.append("")
        lines.append(f"top {len(slow)} slow frame(s):")
        for node in slow:
            attrs = node.get("attrs", {})
            label = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(f"  {node.get('name')}({label}) "
                         f"{node.get('dur_ms', 0.0):.2f} ms")
            evicted = sum(per_frame.get(t, 0) for t in _frame_tags(node))
            if evicted:
                lines.append(f"    evicted entries: {evicted}")
            children = sorted(node.get("children", ()),
                              key=lambda c: c.get("dur_ms", 0.0), reverse=True)
            for child in children[:6]:
                lines.append(f"    {child.get('name'):<16} "
                             f"{child.get('dur_ms', 0.0):>9.2f} ms")

    if ledger is not None:
        tiers = evictions_by_tier(events)
        lines.append("")
        lines.append(f"ledger {ledger}: {len(events)} event(s)")
        if tiers:
            lines.append("evictions by tier:")
            for tier, c in sorted(tiers.items(),
                                  key=lambda kv: kv[1]["count"], reverse=True):
                lines.append(f"  {tier:<10} {c['count']:>8} entries "
                             f"{c['bytes'] / 1e6:>10.2f} MB")
        else:
            lines.append("no evictions (every entry stayed resident)")
    return "\n".join(lines) + "\n"
