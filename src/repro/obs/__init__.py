"""Unified telemetry: tracer spans, metrics registry, flight recorder,
trace differencing, and the recompute-lineage ledger.

See README's "Observability" section for the span taxonomy, the ledger
event taxonomy, and the capture -> diff -> verdict workflow.
"""

from .diff import DIFF_SCHEMA, diff_phases, render_diff, trace_diff
from .ledger import RecomputeLedger, current_ledger, ledger_frame, use_ledger
from .metrics import (Histogram, MetricsRegistry, current_registry,
                      merge_snapshots, use_registry)
from .recorder import FlightRecorder
from .report import (evictions_by_tier, load_ledger_events, load_trace,
                     phase_breakdown, render_report, slow_frames)
from .trace import Span, Tracer, current_tracer, span, use_tracer

__all__ = [
    "DIFF_SCHEMA",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "RecomputeLedger",
    "Span",
    "Tracer",
    "current_ledger",
    "current_registry",
    "current_tracer",
    "diff_phases",
    "evictions_by_tier",
    "ledger_frame",
    "load_ledger_events",
    "load_trace",
    "merge_snapshots",
    "phase_breakdown",
    "render_diff",
    "render_report",
    "slow_frames",
    "span",
    "trace_diff",
    "use_ledger",
    "use_registry",
    "use_tracer",
]
