"""Per-layer attribution for the traced mode, kept outside the program.

The traced mode times calls into each serving layer's public functions by
wrapping them for the duration of one drive, and reads the layers' public
``stats()``/``summary()`` counters.  Nothing under ``src/`` is edited: a
wrapper replaces the attribute on its class, or for a module-level function
every ``repro.*`` module binding that same function object (so
``from x import f`` call sites are covered too), and is removed again
before the oracle runs.

Each wrapper keeps *self time*: the call's own wall time minus the wrapped
calls nested inside it, so the self times of one frame add up to the
wrapped part of its wall time.  Calls, inclusive time and map rows are
counted at the outermost call of a layer only (``kernel_map`` dispatching to
``kernel_map_mergesort`` is one call).

Refactors are expected to delete or move some of these functions.  A target
that no longer resolves is recorded as absent, and the metrics built from
it print ``absent`` instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import traceback
from collections import defaultdict

#: (module, attribute path, layer).  Several targets may feed one layer.
TARGETS = (
    ("repro.stream.sequence", "FrameSequence.frame", "stream.sequence"),
    ("repro.stream.incremental", "TileMapCache.memoize", "stream.front"),
    ("repro.fleet.world_store", "WorldTileStore.memoize", "stream.front"),
    ("repro.mapping.kernel_map", "kernel_map", "mapping.kernel_map"),
    ("repro.mapping.kernel_map", "kernel_map_mergesort", "mapping.kernel_map"),
    ("repro.mapping.kernel_map", "kernel_map_hash", "mapping.kernel_map"),
    ("repro.mapping.kernel_map", "kernel_map_bruteforce", "mapping.kernel_map"),
    ("repro.mapping.knn", "knn_indices", "mapping.knn"),
    ("repro.mapping.knn", "knn_maps", "mapping.knn"),
    ("repro.mapping.ball_query", "ball_query_indices", "mapping.ball_query"),
    ("repro.mapping.ball_query", "ball_query_maps", "mapping.ball_query"),
    ("repro.mapping.fps", "farthest_point_sampling", "mapping.fps"),
    ("repro.pointcloud.coords", "voxelize", "pointcloud.voxelize"),
    ("repro.nn.models.registry", "run_benchmark", "nn.forward"),
    ("repro.engine.engine", "SimulationEngine.run_batch", "engine.run"),
    ("repro.engine.map_cache", "MapCache.key", "engine.key"),
    ("repro.engine.map_cache", "MapCache.get", "engine.tier_io"),
    ("repro.engine.map_cache", "MapCache.put", "engine.tier_io"),
    ("repro.engine.map_cache", "MapCache.get_many", "engine.tier_io"),
    ("repro.engine.map_cache", "MapCache.put_many", "engine.tier_io"),
    ("repro.cluster.store", "SharedMapStore.get", "engine.tier_io"),
    ("repro.cluster.store", "SharedMapStore.put", "engine.tier_io"),
    ("repro.mapping.hooks", "TieredLookup.get", "engine.tier_io"),
    ("repro.mapping.hooks", "TieredLookup.put", "engine.tier_io"),
    ("repro.mapping.hooks", "TieredLookup.get_many", "engine.tier_io"),
    ("repro.mapping.hooks", "TieredLookup.put_many", "engine.tier_io"),
    ("repro.core.accelerator", "PointAccModel.run", "core.backend"),
    ("repro.core.mmu.unit", "MemoryManagementUnit.sparse_conv_cost",
     "core.mmu_sweep"),
    ("repro.cluster.cluster", "EngineCluster.run_batch", "cluster.dispatch"),
)

#: Layers whose returned map tables are counted as rows.
ROW_LAYERS = {"mapping.kernel_map"}

#: The front's ``memoize(op, ...)`` is split by the mapping op it serves.
FRONT_OPS = ("kernel_map", "voxelize", "knn", "ball_query")


def _front_key(args) -> str:
    op = str(args[1]) if len(args) > 1 else "?"
    for name in FRONT_OPS:
        if op.startswith(name):
            return f"stream.front.{name}"
    return "stream.front.other"


def _rows(result) -> int:
    in_idx = getattr(result, "in_idx", None)
    return len(in_idx) if in_idx is not None else 0


class Probe:
    """Self-time, call and row accounting for wrapped layer functions."""

    def __init__(self) -> None:
        self.acc: dict = defaultdict(float)
        self.absent: set = set()
        self._stack: list = []
        self._open: dict = defaultdict(int)
        self._undo: list = []

    def drain(self) -> dict:
        """Everything accumulated since the last drain."""
        out = dict(self.acc)
        self.acc.clear()
        return out

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def _wrapper(self, fn, layer: str):
        acc, stack, open_calls = self.acc, self._stack, self._open
        clock = time.perf_counter
        split = _front_key if layer == "stream.front" else None
        count_rows = layer in ROW_LAYERS

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            key = split(args) if split is not None else layer
            outer = open_calls[layer] == 0
            open_calls[layer] += 1
            nested = [0.0]
            stack.append(nested)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_calls[layer] -= 1
                acc[key + ".self_s"] += dt - nested[0]
                if stack:
                    stack[-1][0] += dt
                if outer:
                    acc[key + ".incl_s"] += dt
                    acc[key + ".calls"] += 1
            if outer and count_rows:
                acc[key + ".rows"] += _rows(result)
            return result

        return timed

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        if not inspect.isfunction(original):
            raise AttributeError(name)
        wrapped = self._wrapper(original, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def _patch_method(self, cls, name: str, layer: str) -> None:
        if name not in cls.__dict__:
            raise AttributeError(name)
        raw = inspect.getattr_static(cls, name)
        if isinstance(raw, staticmethod):
            self._patch(cls, name,
                        staticmethod(self._wrapper(raw.__func__, layer)))
        elif inspect.isfunction(raw):
            self._patch(cls, name, self._wrapper(raw, layer))
        else:
            raise AttributeError(name)

    def _patch_model_build(self, network: str) -> None:
        """Time model construction for ``network`` (a set-up phase).

        Models come from the registry's ``model_factory``; the registry
        entry is swapped for a copy whose factory is timed.
        """
        registry = importlib.import_module("repro.nn.models.registry")
        table = registry.BENCHMARKS
        bench = table[network]
        timed = self._wrapper(bench.model_factory, "nn.model_build")
        self._undo.append((table, network, bench))
        table[network] = dataclasses.replace(bench, model_factory=timed)

    def install(self, network: str) -> None:
        resolved = dict.fromkeys(
            [layer for _, _, layer in TARGETS] + ["nn.model_build"], 0)
        for module_name, path, layer in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, name = path.rpartition(".")
                if owner_name:
                    self._patch_method(getattr(module, owner_name), name, layer)
                else:
                    self._patch_function(module, name, layer)
                resolved[layer] += 1
            except (ImportError, AttributeError, KeyError, TypeError):
                pass
        try:
            self._patch_model_build(network)
            resolved["nn.model_build"] += 1
        except (ImportError, AttributeError, KeyError, TypeError):
            pass
        self.absent = {layer for layer, n in resolved.items() if n == 0}

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Public counters
# ----------------------------------------------------------------------


def dig(tree, *path):
    """``tree[path[0]][path[1]]...`` or ``None`` when any step is missing."""
    for step in path:
        try:
            tree = tree[step]
        except (KeyError, IndexError, TypeError):
            return None
    return tree


def _engines(executor) -> list:
    shards = getattr(executor, "shards", None)
    return list(shards) if isinstance(shards, list) else [executor]


def counters(session) -> dict:
    """One flat snapshot of the public counters the per-layer table reads.

    A counter the session no longer exposes is simply missing from the
    result; the caller turns that into ``absent``.
    """
    try:
        summary = session.summary()
    except Exception:  # a reshaped summary must not end the run
        traceback.print_exc(file=sys.stderr)
        return {}
    out = {}

    def put(name, value):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = float(value)

    tiles = summary.get("tiles") or {}
    for name in ("tile_hits", "tile_lookups", "certified_rows",
                 "fallback_rows"):
        put(f"tiles.{name}", tiles.get(name))
    # Kernel-map row-order and voxel-merge composers: a splice against
    # every other outcome (full sort/merge, certificate fallback).
    outcomes = [value for family in ("compose", "vox_compose")
                for value in (tiles.get(family) or {}).items()]
    if outcomes:
        put("compose.splices", sum(v for k, v in outcomes if k == "splices"))
        put("compose.attempts", sum(v for _, v in outcomes))
    world = summary.get("world_tiles") or {}
    for name in ("self_hits", "cross_hits", "external_hits"):
        put(f"world.{name}", world.get(name))

    executor = summary.get("executor") or {}
    shards = executor.get("shards")
    caches = ([dig(s, "map_cache") for s in shards]
              if isinstance(shards, list) else [executor.get("map_cache")])
    for cache in caches:
        if not isinstance(cache, dict):
            continue
        l1 = dig(cache, "tiers", 0) or cache
        for name in ("hits", "lookups", "evictions", "stored_mb"):
            value = l1.get(name)
            if isinstance(value, (int, float)):
                put(f"l1.{name}", out.get(f"l1.{name}", 0.0) + value)
    l2 = executor.get("l2")
    if isinstance(l2, dict):
        for name in ("hits", "lookups", "stored_mb"):
            put(f"l2.{name}", l2.get(name))

    memo = defaultdict(float)
    for engine in _engines(getattr(session, "executor", None)):
        for backend in (getattr(engine, "backends", None) or {}).values():
            stats = getattr(backend, "record_memo_stats", None)
            if isinstance(stats, dict):
                for name, value in stats.items():
                    memo[name] += value
    if memo:
        put("memo.hits", memo.get("hits", 0.0))
        put("memo.lookups", sum(memo.values()))
    return out
