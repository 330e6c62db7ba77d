"""Streaming sessions: ordered frame sequences through engine or cluster.

:class:`StreamSession` is the serving loop for temporal workloads: it
turns a :class:`~repro.stream.sequence.FrameSequence` plus a network into
an ordered stream of :class:`~repro.engine.SimRequest`\\ s (one per frame,
the request seed being the frame index), drives them through a
:class:`~repro.engine.SimulationEngine` or
:class:`~repro.cluster.EngineCluster` *in order* — frames are a timeline,
not a batch to reorder — and tracks what a serving operator cares about:
per-frame latency percentiles and deadline behaviour (including dropping
frames whose deadline already expired before dispatch).

By default a session builds its own single engine and requests
geometry-only execution for networks whose mapping reads coordinates
only (the SparseConv models and PointNet++(c), (ps) and (s), whose trace
is a pure function of coordinates — see :mod:`repro.nn.ghost`).  Every
frame is a distinct workload, so a single pass builds every trace; each
build computes its mapping ops on the whole frame (kNN and ball query
through the selection kernels of :mod:`repro.mapping`).  A frame's key
never repeats within a session, so the session-built engine's
:class:`~repro.engine.TraceStore` keeps one trace
(:data:`SESSION_STORE_ENTRIES`), the frame being served with its
reports, and a long stream's memory stays flat: PointAcc, too, reuses a
cloud's maps across that cloud's layers only, never across clouds.
Pass a pre-built ``engine=`` or ``cluster=`` to reuse existing fleets;
the session then respects their store configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..engine.engine import SimRequest, SimResult, SimulationEngine
from ..engine.trace_store import TraceStore
from ..nn.models.registry import resolve_geometry_only
from ..obs.ledger import current_ledger
from ..obs.trace import current_tracer, span
from .sequence import FrameSequence

__all__ = ["FrameResult", "StreamSession", "StreamStats"]

#: Traces a session-built trace store keeps (stream and fleet sessions
#: alike): the smallest bound a store accepts.  A session's frame keys
#: never repeat, so a larger store would only hold traces, and their
#: reports, that nothing asks for again.
SESSION_STORE_ENTRIES = 1


@dataclass
class FrameResult:
    """Outcome of one frame in a session."""

    index: int                       #: frame index within the sequence
    dropped: bool = False            #: deadline expired before dispatch
    result: SimResult | None = None  #: None iff dropped
    latency_ms: float = 0.0          #: dispatch-to-completion wall time

    @property
    def rejected(self) -> bool:
        """Admission-rejected by the cluster's QoS layer."""
        return self.result is not None and "cluster" in self.result.errors

    @property
    def completed(self) -> bool:
        return self.result is not None and not self.rejected


@dataclass
class StreamStats:
    """Aggregate session behaviour."""

    frames: int = 0
    completed: int = 0
    dropped: int = 0       #: dropped before dispatch (expired deadline)
    rejected: int = 0      #: rejected at cluster admission
    deadline_met: int = 0
    deadline_missed: int = 0
    wall_seconds: float = 0.0
    latencies_ms: list = field(default_factory=list)

    @property
    def throughput_fps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_ms(self, percentile: float) -> float:
        """Nearest-rank percentile of completed-frame latency.

        Total on its edge cases: an empty sample is 0.0, a single sample
        is that sample for *every* percentile, and out-of-range
        percentiles clamp to [0, 100] instead of under/overflowing the
        rank (p0 = min, p100 = max).
        """
        if not self.latencies_ms:
            return 0.0
        ranked = sorted(self.latencies_ms)
        percentile = min(100.0, max(0.0, float(percentile)))
        rank = max(1, math.ceil(percentile / 100.0 * len(ranked)))
        return ranked[min(rank, len(ranked)) - 1]

    def summary(self) -> dict:
        return {
            "frames": self.frames,
            "completed": self.completed,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "deadline_met": self.deadline_met,
            "deadline_missed": self.deadline_missed,
            "wall_seconds": self.wall_seconds,
            "throughput_fps": self.throughput_fps,
            "latency_p50_ms": self.latency_ms(50),
            "latency_p99_ms": self.latency_ms(99),
        }


class StreamSession:
    """Serve one frame sequence through an engine or cluster, in order.

    Parameters
    ----------
    sequence / benchmark / scale:
        The workload: ``benchmark`` (a registry notation, e.g.
        ``"MinkNet(o)"``) over ``sequence``'s frames at ``scale``.
    engine / cluster:
        Optional pre-built executor (at most one); when neither is given
        the session builds a single engine over a private trace store
        that keeps one trace (:data:`SESSION_STORE_ENTRIES`).
    backends:
        Backends of the session-built engine (ignored when an executor is
        injected).
    tenant:
        The QoS identity stamped on every frame request (default
        ``"stream"``), the fair-share bucket of a cluster's QoS layer.
    geometry_only:
        ``"auto"`` (default) enables geometry-only execution exactly for
        networks whose registry entry declares ``coords_only_mapping``
        (the SparseConv models and PointNet++(c), (ps) and (s)); ``False``
        forces full features, and ``True`` on an undeclared network raises
        ``ValueError`` (see
        :func:`~repro.nn.models.registry.resolve_geometry_only`).
    deadline_ms / period_ms / drop_late:
        QoS: frame *i* arrives at ``i * period_ms`` on the session clock
        and carries ``deadline_ms`` of budget.  With ``drop_late`` a frame
        whose budget is already spent before dispatch is dropped without
        simulating — the standard load-shedding move for real-time
        perception.  Deadline *verdicts* on simulated frames additionally
        need a cluster executor (its QoS layer scores them).
    """

    def __init__(
        self,
        sequence: FrameSequence,
        benchmark: str = "MinkNet(o)",
        *,
        engine=None,
        cluster=None,
        backends=("pointacc",),
        scale: float = 0.25,
        tenant: str = "stream",
        geometry_only: bool | str = "auto",
        deadline_ms: float | None = None,
        period_ms: float = 100.0,
        drop_late: bool = False,
    ) -> None:
        if engine is not None and cluster is not None:
            raise ValueError("pass at most one of engine= and cluster=")
        if period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {period_ms}")
        self.sequence = sequence
        self.benchmark = benchmark
        self.notation = sequence.notation(benchmark)
        self.scale = float(scale)
        self.geometry_only = resolve_geometry_only(benchmark, geometry_only)
        self.tenant = tenant
        self.deadline_ms = deadline_ms
        self.period_ms = float(period_ms)
        self.drop_late = bool(drop_late)
        if engine is not None or cluster is not None:
            self.executor = engine if engine is not None else cluster
        else:
            self.executor = SimulationEngine(
                backends=backends, policy="fifo",
                store=TraceStore(max_entries=SESSION_STORE_ENTRIES),
            )
        self._stats = StreamStats()
        self._next_frame = 0
        self._clock = 0.0  # session-relative seconds consumed so far

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def request(self, index: int) -> SimRequest:
        """The engine request for frame ``index``."""
        return SimRequest(
            benchmark=self.notation,
            scale=self.scale,
            seed=index,
            tag=f"f{index}",
            tenant=self.tenant,
            deadline_ms=self.deadline_ms,
            geometry_only=self.geometry_only,
        )

    def play(self, n_frames: int | None = None):
        """Yield :class:`FrameResult`\\ s for the next ``n_frames`` frames
        (default: the sequence's nominal length), strictly in order."""
        if n_frames is None:
            n_frames = self.sequence.config.n_frames
        for _ in range(n_frames):
            index = self._next_frame
            self._next_frame += 1
            arrival_s = (index * self.period_ms) / 1e3
            if (
                self.drop_late
                and self.deadline_ms is not None
                and self._clock > arrival_s + self.deadline_ms / 1e3
            ):
                # The frame's budget was gone before we could even start:
                # shed it rather than burn simulation time on a stale frame.
                # A shed frame *is* a missed deadline — count it like one,
                # so drop_late on/off agree on the deadline_missed total.
                self._stats.frames += 1
                self._stats.dropped += 1
                self._stats.deadline_missed += 1
                yield FrameResult(index=index, dropped=True)
                continue
            tracer = current_tracer()
            t0 = time.perf_counter()
            with span("frame", index=index, stream=self.tenant) as frame_span:
                result = self.executor.run_batch([self.request(index)])[0]
            latency = time.perf_counter() - t0
            self._clock = max(self._clock, arrival_s) + latency
            self._stats.frames += 1
            self._stats.wall_seconds += latency
            frame = FrameResult(
                index=index, result=result, latency_ms=latency * 1e3
            )
            if frame.rejected:
                self._stats.rejected += 1
            else:
                self._stats.completed += 1
                self._stats.latencies_ms.append(frame.latency_ms)
                if result.deadline_met is None and self.deadline_ms is not None:
                    # Engine executors have no QoS layer to produce a
                    # verdict; score at the session against the same
                    # dispatch-to-completion wall the cluster's
                    # reply-receipt scoring uses, so both modes count
                    # missed frames the same way.
                    result.deadline_met = frame.latency_ms <= self.deadline_ms
            if result.deadline_met is True:
                self._stats.deadline_met += 1
            elif result.deadline_met is False:
                self._stats.deadline_missed += 1
            if tracer is not None and tracer.recorder is not None:
                tracer.recorder.record(
                    frame_span, latency,
                    deadline_missed=result.deadline_met is False,
                    frame=index,
                )
            yield frame

    def run(self, n_frames: int | None = None) -> list[FrameResult]:
        """Serve the next ``n_frames`` frames; results in frame order."""
        return list(self.play(n_frames))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> StreamStats:
        return self._stats

    def summary(self) -> dict:
        """Session + executor stats in one serializable dict."""
        out = self._stats.summary()
        out["benchmark"] = self.benchmark
        out["sequence"] = self.sequence.token
        out["geometry_only"] = self.geometry_only
        out["executor"] = self.executor.stats().summary()
        ledger = current_ledger()
        if ledger is not None:
            out["ledger"] = ledger.summary()
        return out

    def close(self) -> None:
        """Release executor resources (cluster worker processes, when any)."""
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
