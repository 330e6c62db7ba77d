"""Streaming sessions: ordered frame sequences through engine or cluster.

:class:`StreamSession` is the serving loop for temporal workloads: it
turns a :class:`~repro.stream.sequence.FrameSequence` plus a network into
an ordered stream of :class:`~repro.engine.SimRequest`\\ s (one per frame,
the request seed being the frame index), drives them through a
:class:`~repro.engine.SimulationEngine` or
:class:`~repro.cluster.EngineCluster` *in order* — frames are a timeline,
not a batch to reorder — and tracks what a serving operator cares about:
per-frame latency percentiles, deadline behaviour (including dropping
frames whose deadline already expired before dispatch), and how much
mapping work the tile tier reused.

By default a session builds its own single engine with a
:class:`~repro.stream.incremental.TileMapCache` front and requests
geometry-only execution for SparseConv networks (where the trace is a
pure function of coordinates — see :mod:`repro.nn.ghost`).  Pass a
pre-built ``engine=`` or ``cluster=`` to reuse existing fleets; the
session then respects their cache configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..engine.engine import SimRequest, SimResult, SimulationEngine
from ..engine.map_cache import MapCache
from ..nn.models.registry import get_benchmark
from ..obs.ledger import current_ledger
from ..obs.trace import current_tracer, span
from .incremental import TileMapCache
from .sequence import FrameSequence

__all__ = ["FrameResult", "StreamSession", "StreamStats", "streaming_map_cache"]


def streaming_map_cache() -> MapCache:
    """The L1 sizing every streaming/fleet executor uses.

    Tile-decomposed kNN and ball query produce thousands of tile
    sub-entries per frame; an engine's default 4096-entry L1 would evict
    a frame's tiles before the next frame (or the next vehicle) could
    reuse them.  One factory so the session-built engine, the fleet's
    cluster shards, and the CLI's cluster path cannot drift apart.
    """
    return MapCache(max_entries=1 << 16, max_bytes=512 * 1024 * 1024)


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
        the session builds a single engine with a tile front from the
        ``tile_*`` parameters.
    tile_size / halo / min_points / use_tiles:
        Tile-front configuration for the session-built engine (ignored
        when an executor is injected — configure that executor instead),
        passed straight to
        :class:`~repro.stream.incremental.TileMapCache`; ``use_tiles=False``
        leaves only the whole-op digest tiers.
    tenant:
        The QoS/attribution identity stamped on every frame request
        (default ``"stream"``).  Fleet serving (:mod:`repro.fleet`) gives
        each stream its own tenant so fair-share accounting and
        cross-stream tile attribution can tell vehicles apart.
    geometry_only:
        ``"auto"`` (default) enables geometry-only execution exactly for
        SparseConv-family networks; booleans force it.
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
        tile_size: float = 4.0,
        halo: int = 1,
        min_points: int = 256,
        use_tiles: bool = True,
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
        if geometry_only == "auto":
            geometry_only = get_benchmark(benchmark).family == "sparseconv"
        self.geometry_only = bool(geometry_only)
        self.tenant = tenant
        self.deadline_ms = deadline_ms
        self.period_ms = float(period_ms)
        self.drop_late = bool(drop_late)
        if engine is not None or cluster is not None:
            self.executor = engine if engine is not None else cluster
            self.tile_cache = getattr(self.executor, "tile_cache", None)
        else:
            self.tile_cache = (
                TileMapCache(
                    tile_size=tile_size, halo=halo, min_points=min_points,
                )
                if use_tiles
                else None
            )
            self.executor = SimulationEngine(
                backends=backends,
                policy="fifo",
                map_cache=streaming_map_cache(),
                tile_cache=self.tile_cache,
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
        """Session + tile + executor stats in one serializable dict."""
        out = self._stats.summary()
        out["benchmark"] = self.benchmark
        out["sequence"] = self.sequence.token
        out["geometry_only"] = self.geometry_only
        executor_stats = self.executor.stats().summary()
        if executor_stats.get("workers"):
            # Worker-mode cluster: each process holds its own copy of the
            # tile front, so the parent-side object never sees a hit; the
            # merged per-worker snapshot is the session-level truth.
            if executor_stats.get("front"):
                out["tiles"] = executor_stats["front"]
        elif self.tile_cache is not None:
            out["tiles"] = self.tile_cache.stats().snapshot()
        out["executor"] = executor_stats
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
