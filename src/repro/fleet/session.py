"""Fleet serving: N tenant frame streams interleaved over one cluster.

:class:`FleetSession` is the multi-stream successor to the single-stream
:class:`~repro.stream.StreamSession`: several vehicles
(:class:`StreamSpec` — a :class:`~repro.stream.FrameSequence` plus a
network, a tenant name, and QoS terms) are served *concurrently* through
one shared executor.  The session advances in rounds: each round submits
the next pending frame of every live stream as one window, so

* delivery is **in order per stream** — frame ``i`` of a stream is always
  dispatched (and its result delivered) before frame ``i + 1``;
* ordering **across streams inside a round** belongs to the executor: an
  :class:`~repro.cluster.EngineCluster` window runs through the existing
  QoS layer (earliest-deadline-first, tenant fair share, priority — see
  :mod:`repro.cluster.qos`), with every stream's tenant name as its
  fair-share bucket.  A bare :class:`~repro.engine.SimulationEngine`
  executor runs rounds in submission order under its own policy, and the
  session scores its deadlines against each round's wall time.

The shared executor is what makes a fleet more than N sessions: its tile
front is one :class:`~repro.fleet.WorldTileStore`-wrapped
:class:`~repro.stream.TileMapCache`, so world-region kNN / ball-query
tiles computed for one vehicle serve every vehicle driving the same map
region — with hits attributed self vs cross-stream in
:class:`FleetStats`.  Kernel maps and voxelize take the chain's whole-op
digest path, so a MinkNet fleet shares identical whole calls through the
cluster's L2 and no tiles.  None of it may change a result: each stream's
output is bit-identical to running that stream cold and alone
(``tests/properties/test_prop_fleet.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..engine.engine import SimRequest, SimulationEngine
from ..nn.models.registry import get_benchmark
from ..obs.ledger import current_ledger
from ..obs.trace import current_tracer, span
from ..stream.incremental import TileMapCache
from ..stream.pipeline import FrameResult, streaming_map_cache
from ..stream.sequence import FrameSequence
from .world_store import WorldTileStore

__all__ = ["FleetSession", "FleetStats", "StreamSpec"]


@dataclass(frozen=True)
class StreamSpec:
    """One tenant stream of the fleet.

    ``name`` doubles as the QoS tenant (fair-share bucket) and the
    attribution identity in :class:`~repro.fleet.WorldTileStore`; it must
    be unique and non-empty within a session.  ``n_frames`` defaults to
    the sequence's nominal length; streams of different lengths are fine
    (exhausted streams simply drop out of later rounds).
    """

    name: str
    sequence: FrameSequence
    benchmark: str = "MinkNet(o)"
    scale: float = 0.25
    n_frames: int | None = None
    deadline_ms: float | None = None
    priority: int = 0

    @property
    def frames(self) -> int:
        n = self.n_frames if self.n_frames is not None else self.sequence.config.n_frames
        return int(n)


@dataclass
class FleetStats:
    """Aggregate fleet behaviour: rounds, per-stream tallies, tile sharing."""

    rounds: int = 0
    frames: int = 0
    completed: int = 0
    rejected: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0
    wall_seconds: float = 0.0
    per_stream: dict = field(default_factory=dict)  # name -> tally dict

    @property
    def throughput_fps(self) -> float:
        """Completed frames (all streams) per wall-clock second."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def _tally(self, name: str) -> dict:
        return self.per_stream.setdefault(
            name,
            {"frames": 0, "completed": 0, "rejected": 0,
             "deadline_met": 0, "deadline_missed": 0},
        )

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "frames": self.frames,
            "completed": self.completed,
            "rejected": self.rejected,
            "deadline_met": self.deadline_met,
            "deadline_missed": self.deadline_missed,
            "wall_seconds": self.wall_seconds,
            "throughput_fps": self.throughput_fps,
            "per_stream": {name: dict(t) for name, t in self.per_stream.items()},
        }


class FleetSession:
    """Serve several tenant streams through one shared executor.

    Parameters
    ----------
    streams:
        The fleet: a sequence of :class:`StreamSpec` with unique
        non-empty names.
    engine / cluster:
        Optional pre-built executor (at most one); when neither is given
        the session builds its own from ``n_shards`` — an
        :class:`~repro.cluster.EngineCluster` for ``n_shards >= 1`` (the
        QoS path), or a single large-L1 engine for ``n_shards == 0``.
        Injected executors bring their own cache fronts; the ``tile_*`` /
        sharing parameters then do not apply.
    share_world_tiles:
        Wrap the tile front in a :class:`~repro.fleet.WorldTileStore`
        (default).  ``False`` keeps the bare
        :class:`~repro.stream.TileMapCache` — sub-results still flow
        through the shared chain (content keys carry no stream identity),
        but hits are not attributed self/cross.
    tile_size / halo / min_points / use_tiles:
        Tile-front configuration for the session-built executor, as in
        :class:`~repro.stream.StreamSession`.
    geometry_only:
        ``"auto"`` (default) enables geometry-only execution per stream
        exactly for SparseConv-family networks; booleans force it
        fleet-wide.
    cache_dir:
        Disk-spill directory for the session-built cluster's shared L2
        (ignored with an injected or ``n_shards == 0`` executor).
    l2:
        Shared-L2 policy for the session-built cluster (``"auto"`` /
        ``None`` / a pre-built store, as in
        :class:`~repro.cluster.EngineCluster`).  A single-shard fleet
        already shares everything through that shard's L1, so ``None``
        trades the write-through L2 for less per-tile bookkeeping.
    workers:
        Worker processes for the session-built cluster
        (:class:`~repro.cluster.EngineCluster` ``workers=``): ``0``
        (default) keeps in-process execution; ``N >= 1`` runs shards in
        real OS processes so streams simulate concurrently.  Each worker
        gets its own copy of the tile front — cross-stream tile hits then
        happen inside each worker (and via the disk L2 with a
        ``cache_dir``), and the merged attribution surfaces through
        ``summary()`` instead of the parent-side front.  Requires a
        session-built cluster (``n_shards >= 1``, no injected executor).
        Per-stream results stay bit-identical to ``workers=0``.
    """

    def __init__(
        self,
        streams,
        *,
        engine=None,
        cluster=None,
        backends=("pointacc",),
        n_shards: int = 2,
        routing: str = "affinity",
        policy: str = "fifo",
        tile_size: float = 4.0,
        halo: int = 1,
        min_points: int = 256,
        use_tiles: bool = True,
        share_world_tiles: bool = True,
        geometry_only: bool | str = "auto",
        cache_dir=None,
        l2="auto",
        workers: int = 0,
    ) -> None:
        self.streams = list(streams)
        if not self.streams:
            raise ValueError("a fleet needs at least one stream")
        names = [spec.name for spec in self.streams]
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError(
                f"stream names must be unique and non-empty, got {names}"
            )
        if engine is not None and cluster is not None:
            raise ValueError("pass at most one of engine= and cluster=")
        if n_shards < 0:
            raise ValueError(f"n_shards must be >= 0, got {n_shards}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if workers > 0 and (engine is not None or cluster is not None
                            or n_shards == 0):
            raise ValueError(
                "workers requires a session-built cluster (n_shards >= 1, "
                "no injected executor) — pass EngineCluster(workers=N) "
                "yourself otherwise"
            )
        self._geometry_only = {
            spec.name: (
                get_benchmark(spec.benchmark).family == "sparseconv"
                if geometry_only == "auto"
                else bool(geometry_only)
            )
            for spec in self.streams
        }
        self._notations = {
            spec.name: spec.sequence.notation(spec.benchmark)
            for spec in self.streams
        }
        if engine is not None or cluster is not None:
            self.executor = engine if engine is not None else cluster
            self.tile_cache = getattr(self.executor, "tile_cache", None)
        else:
            front = None
            if use_tiles:
                front = TileMapCache(
                    tile_size=tile_size, halo=halo, min_points=min_points,
                )
                if share_world_tiles:
                    front = WorldTileStore(front)
            self.tile_cache = front
            if n_shards >= 1:
                from ..cluster.cluster import EngineCluster

                self.executor = EngineCluster(
                    n_shards=n_shards,
                    backends=backends,
                    policy=policy,
                    routing=routing,
                    cache_dir=cache_dir,
                    l2=l2,
                    tile_cache=front,
                    map_cache=streaming_map_cache,
                    workers=workers,
                )
            else:
                self.executor = SimulationEngine(
                    backends=backends,
                    policy=policy,
                    map_cache=streaming_map_cache(),
                    tile_cache=front,
                )
        self._stats = FleetStats()
        self._next_frame = {spec.name: 0 for spec in self.streams}
        self._results: dict[str, list[FrameResult]] = {
            spec.name: [] for spec in self.streams
        }

    @property
    def world_store(self) -> WorldTileStore | None:
        """The attribution front, when the executor carries one."""
        front = self.tile_cache
        return front if isinstance(front, WorldTileStore) else None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def request(self, spec: StreamSpec, index: int) -> SimRequest:
        """The engine request for frame ``index`` of one stream."""
        return SimRequest(
            benchmark=self._notations[spec.name],
            scale=spec.scale,
            seed=index,
            priority=spec.priority,
            tag=f"{spec.name}/f{index}",
            tenant=spec.name,
            deadline_ms=spec.deadline_ms,
            geometry_only=self._geometry_only[spec.name],
        )

    def play(self):
        """Yield rounds until every stream is exhausted.

        Each round is a list of ``(stream_name, FrameResult)`` pairs in
        stream-declaration order (the executor may have *run* them in QoS
        order; result slots are submission-ordered, like everywhere else
        in this repo).
        """
        while True:
            window = [
                spec
                for spec in self.streams
                if self._next_frame[spec.name] < spec.frames
            ]
            if not window:
                return
            requests = [
                self.request(spec, self._next_frame[spec.name])
                for spec in window
            ]
            tracer = current_tracer()
            t0 = time.perf_counter()
            with span("round", round=self._stats.rounds,
                      streams=len(window)) as round_span:
                results = self.executor.run_batch(requests)
            round_wall = time.perf_counter() - t0
            self._stats.wall_seconds += round_wall
            self._stats.rounds += 1
            round_out = []
            for spec, result in zip(window, results):
                index = self._next_frame[spec.name]
                self._next_frame[spec.name] = index + 1
                frame = FrameResult(
                    index=index, result=result,
                    latency_ms=result.wall_seconds * 1e3,
                )
                tally = self._stats._tally(spec.name)
                self._stats.frames += 1
                tally["frames"] += 1
                if frame.rejected:
                    self._stats.rejected += 1
                    tally["rejected"] += 1
                else:
                    self._stats.completed += 1
                    tally["completed"] += 1
                    if result.deadline_met is None and spec.deadline_ms is not None:
                        # A bare engine has no QoS layer to produce a
                        # verdict; score at the session against the round's
                        # wall time, which is what a 1-shard cluster
                        # measures (window start to run completion).
                        result.deadline_met = round_wall * 1e3 <= spec.deadline_ms
                if result.deadline_met is True:
                    self._stats.deadline_met += 1
                    tally["deadline_met"] += 1
                elif result.deadline_met is False:
                    self._stats.deadline_missed += 1
                    tally["deadline_missed"] += 1
                self._results[spec.name].append(frame)
                round_out.append((spec.name, frame))
            if tracer is not None and tracer.recorder is not None:
                missed = any(r.deadline_met is False for r in results)
                tracer.recorder.record(
                    round_span, round_wall, deadline_missed=missed,
                    frame=f"round{self._stats.rounds - 1}",
                )
            yield round_out

    def run(self) -> dict[str, list[FrameResult]]:
        """Serve every stream to completion; per-stream results in frame
        order."""
        for _ in self.play():
            pass
        return self.results()

    def results(self) -> dict[str, list[FrameResult]]:
        return {name: list(frames) for name, frames in self._results.items()}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> FleetStats:
        return self._stats

    def summary(self) -> dict:
        """Session + world-tile + executor stats in one serializable dict."""
        out = self._stats.summary()
        out["streams"] = {
            spec.name: {
                "benchmark": spec.benchmark,
                "sequence": spec.sequence.token,
                "frames": spec.frames,
                "scale": spec.scale,
                "deadline_ms": spec.deadline_ms,
                "geometry_only": self._geometry_only[spec.name],
            }
            for spec in self.streams
        }
        executor = self.executor.stats().summary()
        if executor.get("workers"):
            # Worker mode: each process holds its own copy of the front,
            # so the parent-side objects never see a hit — the merged
            # per-worker snapshots (collected over the pipes) are the
            # fleet-level attribution.
            if self.world_store is not None:
                out["world_tiles"] = executor.get("front", {})
                out["tiles"] = executor.get("front_inner", {})
            elif self.tile_cache is not None:
                out["tiles"] = executor.get("front", {})
        else:
            store = self.world_store
            if store is not None:
                out["world_tiles"] = store.stats().snapshot()
                out["tiles"] = store.inner.stats().snapshot()
            elif self.tile_cache is not None:
                out["tiles"] = self.tile_cache.stats().snapshot()
        out["executor"] = executor
        ledger = current_ledger()
        if ledger is not None:
            out["ledger"] = ledger.summary()
        return out

    def close(self) -> None:
        """Release executor resources (worker processes, when any)."""
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "FleetSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
