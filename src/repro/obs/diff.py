"""Trace differencing behind ``repro trace-diff``.

Two trace JSONL files (``Tracer.dump_jsonl`` or flight-recorder
sidecars) are aligned by the span taxonomy — request / trace_build /
backend / front / plan / probe / execute / tier_io / dispatch / ipc /
frame / round — and compared phase by phase on *self* time, the only
basis on which deltas add up without double-counting nested spans.

For each phase the diff reports the absolute self-time delta, the call
counts on both sides, and the count-normalized rate (ms/call) change —
the figure that separates "backend got slower" from "there were more
backend calls".  Phases are ranked by their contribution to the total
absolute delta, and the top contributor becomes a one-line verdict
(``backend self-time +38.2% (+12.4 ms) on ~same call count``) that
``scripts/bench_compare.py --baseline`` attaches to its regression
report.  The machine form is a schema-versioned JSON dict so CI can
archive it next to the bench comparison.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .report import load_trace, phase_breakdown

__all__ = ["DIFF_SCHEMA", "diff_phases", "render_diff", "trace_diff"]

DIFF_SCHEMA = 1

#: Call-count ratio band treated as "about the same number of calls".
_SAME_COUNT_BAND = 0.10


def diff_phases(
    baseline: Dict[str, Dict[str, float]],
    candidate: Dict[str, Dict[str, float]],
) -> List[Dict[str, Any]]:
    """Per-phase deltas between two ``phase_breakdown`` results.

    Returns one row per phase present on either side, ranked by
    contribution to the total absolute self-time delta (largest first).
    """
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(baseline) | set(candidate)):
        b = baseline.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        c = candidate.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        b_calls, c_calls = int(b["calls"]), int(c["calls"])
        b_self, c_self = float(b["self_ms"]), float(c["self_ms"])
        delta = c_self - b_self
        b_rate = b_self / b_calls if b_calls else 0.0
        c_rate = c_self / c_calls if c_calls else 0.0
        rows.append({
            "phase": name,
            "baseline_calls": b_calls,
            "candidate_calls": c_calls,
            "baseline_self_ms": b_self,
            "candidate_self_ms": c_self,
            "delta_ms": delta,
            "delta_pct": (100.0 * delta / b_self) if b_self > 0 else None,
            "baseline_ms_per_call": b_rate,
            "candidate_ms_per_call": c_rate,
            "rate_delta_ms_per_call": c_rate - b_rate,
        })
    total_abs = sum(abs(r["delta_ms"]) for r in rows) or 1.0
    for r in rows:
        r["share"] = abs(r["delta_ms"]) / total_abs
    rows.sort(key=lambda r: abs(r["delta_ms"]), reverse=True)
    return rows


def _verdict_line(row: Dict[str, Any]) -> str:
    delta = row["delta_ms"]
    sign = "+" if delta >= 0 else ""
    if row["delta_pct"] is not None:
        magnitude = f"{sign}{row['delta_pct']:.1f}% ({sign}{delta:.2f} ms)"
    else:
        magnitude = f"{sign}{delta:.2f} ms (new phase)"
    b_calls, c_calls = row["baseline_calls"], row["candidate_calls"]
    if b_calls and abs(c_calls - b_calls) <= _SAME_COUNT_BAND * b_calls:
        counts = "on ~same call count"
    else:
        counts = f"on {b_calls} -> {c_calls} calls"
    return f"{row['phase']} self-time {magnitude} {counts}"


def trace_diff(baseline_path: str, candidate_path: str) -> Dict[str, Any]:
    """Machine verdict for two trace files (the ``--json`` payload).

    Never raises on bad *lines* (``load_trace`` skips and counts them);
    missing files still raise ``OSError`` for the caller's exit code.
    """
    b_errors: List[str] = []
    c_errors: List[str] = []
    b_roots = load_trace(baseline_path, errors=b_errors)
    c_roots = load_trace(candidate_path, errors=c_errors)
    phases = diff_phases(phase_breakdown(b_roots), phase_breakdown(c_roots))
    total_delta = sum(r["delta_ms"] for r in phases)
    top = phases[0] if phases and abs(phases[0]["delta_ms"]) > 0 else None
    return {
        "schema": DIFF_SCHEMA,
        "baseline": {"path": baseline_path, "roots": len(b_roots),
                     "skipped_lines": len(b_errors)},
        "candidate": {"path": candidate_path, "roots": len(c_roots),
                      "skipped_lines": len(c_errors)},
        "total_delta_ms": total_delta,
        "top_phase": top["phase"] if top else None,
        "verdict": _verdict_line(top) if top else "no self-time delta",
        "phases": phases,
    }


def render_diff(diff: Dict[str, Any], top: Optional[int] = None) -> str:
    """Human table for a :func:`trace_diff` result."""
    lines: List[str] = []
    b, c = diff["baseline"], diff["candidate"]
    lines.append(f"trace-diff: {b['path']} ({b['roots']} roots) -> "
                 f"{c['path']} ({c['roots']} roots)")
    skipped = b["skipped_lines"] + c["skipped_lines"]
    if skipped:
        lines.append(f"warning: skipped {skipped} malformed line(s)")
    rows = diff["phases"][:top] if top else diff["phases"]
    if not rows:
        lines.append("no spans on either side")
        return "\n".join(lines) + "\n"
    lines.append("")
    lines.append(f"{'phase':<18} {'calls A>B':>13} {'self A ms':>10} "
                 f"{'self B ms':>10} {'delta ms':>9} {'ms/call Δ':>10} "
                 f"{'share':>6}")
    for r in rows:
        pct = (f"{r['delta_pct']:+.1f}%" if r["delta_pct"] is not None
               else "new")
        lines.append(
            f"{r['phase']:<18} "
            f"{r['baseline_calls']:>6}>{r['candidate_calls']:<6} "
            f"{r['baseline_self_ms']:>10.2f} {r['candidate_self_ms']:>10.2f} "
            f"{r['delta_ms']:>+9.2f} {r['rate_delta_ms_per_call']:>+10.3f} "
            f"{100.0 * r['share']:>5.1f}%"
        )
        if abs(r["delta_ms"]) > 0 and r is rows[0]:
            lines[-1] += f"  <- {pct}"
    lines.append("")
    lines.append(f"total self-time delta: {diff['total_delta_ms']:+.2f} ms")
    lines.append(f"verdict: {diff['verdict']}")
    return "\n".join(lines) + "\n"
