"""Closed-loop serving benchmark for the PointAcc reproduction.

    python3 perfbench/run.py --workload minknet-drive --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
run serves passes over the workload's drives (fresh sessions, see
``workloads.py``) until ``--seconds`` of serving wall time have passed,
checks every frame against the cold oracle, and prints a table followed by
one JSON line.  Without ``--workload`` every workload runs in turn.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` serves every
drive twice, untraced and then traced, and reports the per-layer metrics.
The exit code is 0 when every frame matched the oracle, 1 when any frame
failed, and 2 when the benchmark could not run at all.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: on a small box a second
# BLAS thread burns CPU without shortening a frame and makes timings noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from hostspeed import NOMINAL_MS, HostProbe  # noqa: E402
from probes import Probe, counters  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, drive_inputs, input_properties, open_drive,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: name -> (unit, better).  The order is the print order.
END_TO_END = {
    "frames_per_s": ("1/s", "higher"),
    "frame_ms_p50": ("ms", "lower"),
    "frame_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_ms_per_frame": ("ms", "lower"),
    "sim_mj_per_frame": ("mJ", "lower"),
}

PER_LAYER = {
    "input.units_min": ("count", "higher"),
    "input.units_p50": ("count", "higher"),
    "input.units_max": ("count", "higher"),
    "input.temporal_overlap": ("ratio", "higher"),
    "input.cross_overlap": ("ratio", "higher"),
    "stream.front_ms": ("ms", "lower"),
    "stream.front_kernel_map_ms": ("ms", "lower"),
    "stream.front_voxelize_ms": ("ms", "lower"),
    "stream.front_knn_ms": ("ms", "lower"),
    "stream.front_ball_query_ms": ("ms", "lower"),
    "stream.tile_hit_ratio": ("ratio", "higher"),
    "stream.splice_ratio": ("ratio", "higher"),
    "stream.fallback_row_ratio": ("ratio", "lower"),
    "stream.sequence_ms": ("ms", "lower"),
    "mapping.kernel_map_ms": ("ms", "lower"),
    "mapping.kernel_map_calls": ("count", "lower"),
    "mapping.map_rows": ("count", "lower"),
    "pointcloud.voxelize_ms": ("ms", "lower"),
    "mapping.knn_ms": ("ms", "lower"),
    "mapping.knn_calls": ("count", "lower"),
    "mapping.ball_query_ms": ("ms", "lower"),
    "mapping.ball_query_calls": ("count", "lower"),
    "mapping.fps_ms": ("ms", "lower"),
    "mapping.fps_calls": ("count", "lower"),
    "engine.trace_build_ms": ("ms", "lower"),
    "engine.self_ms": ("ms", "lower"),
    "engine.key_ms": ("ms", "lower"),
    "engine.tier_io_ms": ("ms", "lower"),
    "engine.l1_hit_ratio": ("ratio", "higher"),
    "engine.l1_evictions": ("count", "lower"),
    "engine.l1_stored_mb": ("MB", "lower"),
    "nn.forward_self_ms": ("ms", "lower"),
    "nn.model_build_ms": ("ms", "lower"),
    "core.backend_ms": ("ms", "lower"),
    "core.mmu_sweep_ms": ("ms", "lower"),
    "core.mmu_sweep_calls": ("count", "lower"),
    "core.record_memo_hit_ratio": ("ratio", "higher"),
    "cluster.dispatch_self_ms": ("ms", "lower"),
    "cluster.l2_hit_ratio": ("ratio", "higher"),
    "cluster.l2_stored_mb": ("MB", "lower"),
    "fleet.cross_hit_ratio": ("ratio", "higher"),
    "fleet.queue_wait_ms": ("ms", "lower"),
    "unattributed_ms": ("ms", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}


#: End-to-end metrics that are host time or its inverse; they are reported
#: at the reference host's speed (see ``hostspeed.py``), as are the
#: per-layer ``_ms`` metrics.
HOST_TIMES = {"frame_ms_p50", "frame_ms_tail", "setup_s"}
HOST_RATES = {"frames_per_s"}

#: Frames per vehicle of the warm-up drive: a cold start and one warm frame.
WARMUP_FRAMES = 2


class Unavailable(str):
    """A per-layer value that could not be measured: ``absent`` when the
    program no longer exposes what it is read from, ``n/a`` when the
    workload never exercises that layer."""


ABSENT, NOT_APPLICABLE = Unavailable("absent"), Unavailable("n/a")


@dataclass
class Drive:
    """What one drive served and how long it took."""

    traced: bool
    pass_index: int  # -1 for the warm-up drive, which is not measured
    setup_s: float | None = None
    steps: list = field(default_factory=list)  # warm (wall_s, frames)
    served: int = 0  # closed-loop steps delivered
    attempted: int = 0
    failed: int = 0
    checked: list = field(default_factory=list)  # (request, reports, warm)
    queue_wait_s: list = field(default_factory=list)
    cold_layers: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    unattributed_s: float = 0.0
    counters: tuple = ({}, {})
    inputs: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # process high-water mark once the drive ended
    error: str | None = None

    @property
    def wall(self) -> float:
        return (self.setup_s or 0.0) + sum(wall for wall, _ in self.steps)

    @property
    def warm_frames(self) -> int:
        return sum(n for _, n in self.steps)


def _add(into: dict, delta: dict) -> None:
    for key, value in delta.items():
        into[key] = into.get(key, 0.0) + value


def _release_resident_models() -> None:
    """Drop models the registry keeps resident across sessions.

    Every drive builds its own model (its world seed is the model seed), so
    keeping old ones would only grow the process; dropping them keeps each
    drive a cold start with the memory of one session.
    """
    registry = sys.modules.get("repro.nn.models.registry")
    clear = getattr(getattr(registry, "_resident_model", None),
                    "cache_clear", None)
    if clear is not None:
        clear()


def _frame_ok(frame):
    """``(request, reports, own wall seconds)`` of a completed frame, or
    ``None`` for a dropped, rejected or failed one."""
    result = getattr(frame, "result", None)
    if (result is None or getattr(frame, "dropped", False)
            or getattr(frame, "rejected", False) or result.errors
            or not result.reports):
        return None
    return result.request, result.reports, result.wall_seconds


class Oracle:
    """The cold oracle, run once per distinct request.

    A run serves the same drives again and again, so most of its frames
    repeat a request whose cold reports are already known.
    """

    def __init__(self) -> None:
        self.cold: dict = {}

    def matches(self, request, reports: dict) -> bool:
        from repro.engine import run_cold

        key = (request.benchmark, request.scale, request.seed,
               getattr(request, "geometry_only", False),
               tuple(sorted(reports)))
        if key not in self.cold:
            try:
                cold = run_cold(request, backends=tuple(reports))
                self.cold[key] = None if cold.errors else cold.reports
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.cold[key] = None
        return self.cold[key] is not None and self.cold[key] == reports


def serve_drive(w, inputs: tuple, probe: Probe | None, oracle: Oracle,
                host: HostProbe, pass_index: int, frames: int) -> Drive:
    """Serve one drive closed-loop; timing covers only the serving calls.

    The host probe runs after every step, outside the timed calls.  Every
    frame is then checked against the oracle, and the first untraced pass
    describes the inputs it served.
    """
    drive = Drive(traced=probe is not None, pass_index=pass_index)
    gc.collect()
    if probe is not None:
        probe.install(w.network)
    session = sequences = steps = None
    try:
        t_open = time.perf_counter()
        session, sequences, steps = open_drive(w, inputs, frames)
        steps = iter(steps)
        for index in range(frames):
            t0 = time.perf_counter()
            pairs = next(steps, None)
            t1 = time.perf_counter()
            if pairs is None:
                break
            drive.served += 1
            wall = t1 - t0
            if index == 0:
                drive.setup_s = t1 - t_open
                if probe is not None:
                    drive.cold_layers = probe.drain()
                    drive.counters = (counters(session), {})
            else:
                drive.steps.append((wall, len(pairs)))
                if probe is not None:
                    layers = probe.drain()
                    _add(drive.layers, layers)
                    drive.unattributed_s += wall - sum(
                        v for k, v in layers.items() if k.endswith(".self_s"))
            for _, frame in pairs:
                drive.attempted += 1
                ok = _frame_ok(frame)
                if ok is None:
                    drive.failed += 1
                    continue
                request, reports, own_wall = ok
                drive.checked.append((request, reports, index > 0))
                if index > 0:
                    drive.queue_wait_s.append(wall - own_wall)
            host.sample()
        if probe is not None:
            drive.counters = (drive.counters[0], counters(session))
    except Exception:
        drive.error = traceback.format_exc()
    finally:
        if probe is not None:
            probe.uninstall()
    # Frames the closed loop should have delivered but did not.
    missing = frames * w.vehicles - drive.attempted
    drive.attempted += missing
    drive.failed += missing
    if session is not None:
        close = getattr(session, "close", None)
        if close is not None:
            close()
    session = steps = None
    if drive.error is None:
        check_against_oracle(drive, oracle)
        if pass_index == 0 and probe is None:
            drive.inputs = input_properties(w, sequences, drive.served)
    _release_resident_models()
    gc.collect()
    drive.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    return drive


def check_against_oracle(drive: Drive, oracle: Oracle) -> None:
    """Every served frame, cold and warm, must equal the cold oracle."""
    for request, reports, _ in drive.checked:
        if not oracle.matches(request, reports):
            drive.failed += 1
            print(f"mismatch: {request.benchmark} frame {request.seed} "
                  f"differs from the cold oracle", file=sys.stderr)


def serve(w, seed: int, seconds: float, trace: bool):
    """Serve passes over the workload's drives until ``seconds`` of serving
    wall time have passed.

    A short warm-up drive on the first drive's inputs comes first: the
    first session of a process pays one-off costs (lazy imports, first
    calls) that no later session pays, so it is checked but not measured.
    A pass then serves every drive of ``drive_inputs`` once, each as a
    fresh session, so every world weighs the same in every pass.  Runs end
    on a whole pass, after at least ``w.min_passes``.  In the traced mode
    each drive is served twice in a row, untraced and then traced.  Returns
    the drives, the layers the probe could not find and the host probe.
    """
    probe = Probe() if trace else None
    oracle, host = Oracle(), HostProbe()
    panel = [drive_inputs(w, seed, d) for d in range(w.drives)]
    schedule = [(inputs, traced) for inputs in panel
                for traced in ((False, True) if trace else (False,))]
    drives = [serve_drive(w, panel[0], None, oracle, host, -1,
                          WARMUP_FRAMES)]
    host.samples.clear()
    serving_s, passes = 0.0, 0
    while drives[-1].error is None and (passes < w.min_passes
                                        or serving_s < seconds):
        for inputs, traced in schedule:
            drive = serve_drive(w, inputs, probe if traced else None,
                                oracle, host, passes, w.frames)
            drives.append(drive)
            serving_s += drive.wall
            if drive.error is not None:
                break
        passes += 1
    if drives[-1].error is not None:
        print(drives[-1].error, file=sys.stderr)
    return drives, (probe.absent if probe is not None else set()), host


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def nearest_rank(samples, percentile: float) -> float:
    ranked = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ranked)))
    return ranked[min(rank, len(ranked)) - 1]


def measured(drives) -> list:
    """The drives a run measures: every one but the warm-up."""
    return [d for d in drives if d.pass_index >= 0]


def warm_latencies_ms(drives) -> list:
    """One latency per warm frame; a fleet frame takes its round's."""
    return [wall * 1e3 for d in drives for wall, n in d.steps
            for _ in range(n)]


def fps(drives) -> float:
    wall = sum(w for d in drives for w, _ in d.steps)
    frames = sum(d.warm_frames for d in drives)
    return frames / wall if wall > 0 else 0.0


def end_to_end(w, drives) -> dict:
    drives = measured(drives)
    latencies = warm_latencies_ms(drives)
    setups = [d.setup_s for d in drives if d.setup_s is not None]
    # Passes past the first depend on speed; the sim and memory metrics
    # cover the first so that they repeat exactly.
    first = [d for d in drives if d.pass_index == 0]
    fixed = [reports for d in first
             for _, reports, warm in d.checked if warm]
    sim_s = [sum(r.total_seconds for r in reports.values())
             for reports in fixed]
    sim_j = [sum(r.energy_joules for r in reports.values())
             for reports in fixed]
    return {
        "frames_per_s": fps(drives),
        "frame_ms_p50": statistics.median(latencies) if latencies else 0.0,
        "frame_ms_tail": (nearest_rank(latencies, w.tail_percentile)
                          if latencies else 0.0),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": first[-1].peak_rss_mb if first else 0.0,
        "sim_ms_per_frame": 1e3 * statistics.fmean(sim_s) if sim_s else 0.0,
        "sim_mj_per_frame": 1e3 * statistics.fmean(sim_j) if sim_j else 0.0,
    }


def at_reference_speed(values: dict, slowdown: float) -> dict:
    """Host times divided by the run's slowdown, rates multiplied by it."""
    out = {}
    for name, value in values.items():
        if not isinstance(value, Unavailable) and name in HOST_RATES:
            value = value * slowdown
        elif not isinstance(value, Unavailable) and (
                name in HOST_TIMES or name.endswith("_ms")):
            value = value / slowdown
        out[name] = value
    return out


def _ratio(num, den):
    """``num / den``; ``absent`` when a counter is missing, ``n/a`` when the
    workload never exercised it."""
    for value in (num, den):
        if isinstance(value, Unavailable):
            return value
    return num / den if den > 0 else NOT_APPLICABLE


def per_layer(w, drives, absent) -> dict:
    traced = [d for d in drives if d.traced]
    plain = [d for d in measured(drives) if not d.traced]
    frames = sum(d.warm_frames for d in traced)
    layers: dict = {}
    cold: dict = {}
    for d in traced:
        _add(layers, d.layers)
        _add(cold, d.cold_layers)

    def per_frame(layer, suffix, scale=1.0, key=None):
        if layer in absent:
            return ABSENT
        return _ratio(scale * layers.get(f"{key or layer}.{suffix}", 0.0),
                      frames)

    def ms(layer, key=None):
        return per_frame(layer, "self_s", 1e3, key)

    def missing(name):
        # The shared L2 and world-tile attribution exist only where several
        # vehicles share a cluster; elsewhere they are not on the path.
        fleet_only = name.split(".")[0] in ("l2", "world")
        return NOT_APPLICABLE if fleet_only and w.vehicles == 1 else ABSENT

    def delta(*names):
        """Summed before/after difference of public counters."""
        total = 0.0
        for d in traced:
            before, after = d.counters
            for name in names:
                if name not in after:
                    return missing(name)
                total += after[name] - before.get(name, 0.0)
        return total if traced else NOT_APPLICABLE

    def level(name):
        values = [d.counters[1].get(name) for d in traced]
        if not values or None in values:
            return missing(name)
        return statistics.fmean(values)

    front = {op: ms("stream.front", f"stream.front.{op}")
             for op in ("kernel_map", "voxelize", "knn", "ball_query", "other")}
    front_total = (front["other"] if isinstance(front["other"], Unavailable)
                   else sum(front.values()))
    inputs = input_summary(drives)
    queue_wait = [q for d in plain for q in d.queue_wait_s]
    cold_starts = sum(1 for d in traced if d.setup_s is not None)
    untraced_fps, traced_fps = fps(plain), fps(traced)
    return {
        "input.units_min": inputs["min"],
        "input.units_p50": inputs["p50"],
        "input.units_max": inputs["max"],
        "input.temporal_overlap": inputs["temporal"],
        "input.cross_overlap": inputs["cross"],
        "stream.front_ms": front_total,
        "stream.front_kernel_map_ms": front["kernel_map"],
        "stream.front_voxelize_ms": front["voxelize"],
        "stream.front_knn_ms": front["knn"],
        "stream.front_ball_query_ms": front["ball_query"],
        "stream.tile_hit_ratio": _ratio(delta("tiles.tile_hits"),
                                        delta("tiles.tile_lookups")),
        "stream.splice_ratio": _ratio(delta("compose.splices"),
                                      delta("compose.attempts")),
        "stream.fallback_row_ratio": _ratio(
            delta("tiles.fallback_rows"),
            delta("tiles.fallback_rows", "tiles.certified_rows")),
        "stream.sequence_ms": ms("stream.sequence"),
        "mapping.kernel_map_ms": ms("mapping.kernel_map"),
        "mapping.kernel_map_calls": per_frame("mapping.kernel_map", "calls"),
        "mapping.map_rows": per_frame("mapping.kernel_map", "rows"),
        "pointcloud.voxelize_ms": ms("pointcloud.voxelize"),
        "mapping.knn_ms": ms("mapping.knn"),
        "mapping.knn_calls": per_frame("mapping.knn", "calls"),
        "mapping.ball_query_ms": ms("mapping.ball_query"),
        "mapping.ball_query_calls": per_frame("mapping.ball_query", "calls"),
        "mapping.fps_ms": ms("mapping.fps"),
        "mapping.fps_calls": per_frame("mapping.fps", "calls"),
        "engine.trace_build_ms": per_frame("nn.forward", "incl_s", 1e3),
        "engine.self_ms": ms("engine.run"),
        "engine.key_ms": ms("engine.key"),
        "engine.tier_io_ms": ms("engine.tier_io"),
        "engine.l1_hit_ratio": _ratio(delta("l1.hits"), delta("l1.lookups")),
        "engine.l1_evictions": _ratio(delta("l1.evictions"), frames),
        "engine.l1_stored_mb": level("l1.stored_mb"),
        "nn.forward_self_ms": ms("nn.forward"),
        "nn.model_build_ms": (
            ABSENT if "nn.model_build" in absent else
            _ratio(1e3 * cold.get("nn.model_build.incl_s", 0.0), cold_starts)),
        "core.backend_ms": ms("core.backend"),
        "core.mmu_sweep_ms": ms("core.mmu_sweep"),
        "core.mmu_sweep_calls": per_frame("core.mmu_sweep", "calls"),
        "core.record_memo_hit_ratio": _ratio(delta("memo.hits"),
                                             delta("memo.lookups")),
        "cluster.dispatch_self_ms": ms("cluster.dispatch"),
        "cluster.l2_hit_ratio": _ratio(delta("l2.hits"), delta("l2.lookups")),
        "cluster.l2_stored_mb": level("l2.stored_mb"),
        "fleet.cross_hit_ratio": _ratio(
            delta("world.cross_hits"),
            delta("world.self_hits", "world.cross_hits",
                  "world.external_hits")),
        "fleet.queue_wait_ms": (1e3 * statistics.fmean(queue_wait)
                                if queue_wait else NOT_APPLICABLE),
        "unattributed_ms": _ratio(
            1e3 * sum(d.unattributed_s for d in traced), frames),
        "trace_overhead_pct": (
            100.0 * (untraced_fps / traced_fps - 1.0)
            if untraced_fps > 0 and traced_fps > 0 else NOT_APPLICABLE),
    }


def input_summary(drives) -> dict:
    sizes = [s for d in drives for s in d.inputs.get("sizes", ())]
    temporal = [t for d in drives for t in d.inputs.get("temporal", ())]
    cross = [c for d in drives for c in d.inputs.get("cross", ())]
    return {
        "unit": next((d.inputs["unit"] for d in drives if d.inputs), "units"),
        "min": min(sizes) if sizes else NOT_APPLICABLE,
        "p50": statistics.median(sizes) if sizes else NOT_APPLICABLE,
        "max": max(sizes) if sizes else NOT_APPLICABLE,
        "temporal": statistics.fmean(temporal) if temporal else NOT_APPLICABLE,
        "cross": statistics.fmean(cross) if cross else NOT_APPLICABLE,
    }


def mapping_guard(w, values: dict) -> str | None:
    """The workload premise, read from the public mapping call counts."""
    from repro.nn.models.registry import get_benchmark

    kernel = values["mapping.kernel_map_calls"]
    neighbor = [values["mapping.knn_calls"], values["mapping.ball_query_calls"]]
    if any(isinstance(v, Unavailable) for v in (kernel, *neighbor)):
        return None
    sparse = get_benchmark(w.network).family == "sparseconv"
    if sparse and not (kernel > 0 and sum(neighbor) == 0):
        return "expected kernel-map calls and no kNN/ball-query calls"
    if not sparse and not (kernel == 0 and sum(neighbor) > 0):
        return "expected kNN/ball-query calls and no kernel-map calls"
    return None


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, Unavailable):
        return str(value)
    return f"{value:.6g}"


def report(w, args, drives, absent, host) -> int:
    attempted = sum(d.attempted for d in drives)
    failed = sum(d.failed for d in drives)
    inputs = input_summary(drives)
    unit = inputs["unit"]
    passes = 1 + max(d.pass_index for d in drives)
    print(f"perfbench {w.name}: {w.network} at scale {w.scale}, "
          f"{w.vehicles} closed-loop client(s), warm-up + {passes} passes x "
          f"{w.drives} drives x {w.frames} frames, seed {args.seed}, "
          f"trace {int(args.trace)}")
    print(f"  why: {w.why}")
    print(f"  inputs: {unit}/frame min {_fmt(inputs['min'])} median "
          f"{_fmt(inputs['p50'])} max {_fmt(inputs['max'])}; "
          f"temporal_overlap {_fmt(inputs['temporal'])}; "
          f"cross_overlap {_fmt(inputs['cross'])}")
    print(f"  frames: attempted {attempted}, failed {failed}")
    slowdown = host.slowdown()
    print(f"  host: probe median {_fmt(host.median_ms())} ms of "
          f"{len(host.samples)} against {NOMINAL_MS:g} ms on the reference "
          f"host; times below are wall times / {_fmt(slowdown)}")
    guard = None
    if args.trace:
        catalog, wall = PER_LAYER, per_layer(w, drives, absent)
        guard = mapping_guard(w, wall)
        if guard is not None:
            print(f"  workload guard FAILED: {guard}", file=sys.stderr)
    else:
        catalog, wall = END_TO_END, end_to_end(w, drives)
    values = at_reference_speed(wall, slowdown)
    for name, (unit_name, _) in catalog.items():
        note = ""
        if values[name] != wall[name]:
            note = f"  (wall {_fmt(wall[name])})"
        if name == "frame_ms_tail":
            note += (f"  (p{w.tail_percentile} of "
                    f"{len(warm_latencies_ms(measured(drives)))} warm frames)")
        elif name == "setup_s":
            starts = sum(d.setup_s is not None for d in measured(drives))
            note += f"  (median of {starts} cold starts)"
        print(f"  {name:<28} {_fmt(values[name]):>12} {unit_name}{note}")
    correct = failed == 0 and guard is None
    metrics = {
        name: {"value": (0.0 if isinstance(values[name], Unavailable)
                         else float(values[name])),
               "unit": unit_name}
        for name, (unit_name, _) in catalog.items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def load_program() -> bool:
    """Make ``src/`` of this checkout importable, and only that copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return False
    return True


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter so that none
    inherits another's memory high-water mark; one summary line at the end
    with the metrics keyed ``<workload>/<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if not load_program():
        return 2
    w = WORKLOADS[args.workload]
    drives, absent, host = serve(w, args.seed, args.seconds,
                                 bool(args.trace))
    return report(w, args, drives, absent, host)


if __name__ == "__main__":
    sys.exit(main())
