"""Configurable-block direct-mapped cache over the input buffers (§4.2.3).

In fetch-on-demand mode the MMU reuses the MIR container as a shared tag
array so the input feature buffers behave as a cache whose *block size is
software-controllable* (a block = ``block_points`` consecutive input points'
features).  Requests arrive at bus-word granularity — one word is
``word_bytes`` of a point's feature vector — so a single point read issues
``ceil(c_in * elem_bytes / word_bytes)`` sequential word requests of which
only the first can miss in the steady state.  That request granularity is
why the paper's Fig. 18 miss rate *decreases with channel count*: wider
features mean more words per (necessarily missing) first touch.

:func:`simulate_conv_cache` replays the exact fetch-on-demand request stream
of a sparse convolution (maps grouped per weight, outputs in order) and
returns measured miss rate + DRAM traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...mapping.maps import MapTable
from .mir import MIRContainer

__all__ = ["CacheConfig", "CacheStats", "InputFeatureCache", "simulate_conv_cache"]

DEFAULT_WORD_BYTES = 32  # bus word: 16 fp16 feature elements


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the input-buffer cache."""

    capacity_bytes: int
    block_points: int
    c_in: int
    elem_bytes: int = 2
    word_bytes: int = DEFAULT_WORD_BYTES

    def __post_init__(self) -> None:
        if self.block_points < 1:
            raise ValueError("block_points must be >= 1")
        if self.capacity_bytes < self.block_bytes:
            raise ValueError(
                f"cache capacity {self.capacity_bytes} B below one block "
                f"({self.block_bytes} B)"
            )

    @property
    def point_bytes(self) -> int:
        return self.c_in * self.elem_bytes

    @property
    def block_bytes(self) -> int:
        return self.block_points * self.point_bytes

    @property
    def n_sets(self) -> int:
        return max(1, self.capacity_bytes // self.block_bytes)

    @property
    def words_per_point(self) -> int:
        return max(1, -(-self.point_bytes // self.word_bytes))


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0
    dram_bytes: float = 0.0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class InputFeatureCache:
    """Direct-mapped cache with the MIR container as its tag array."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.container = MIRContainer(
            capacity_bytes=config.n_sets * config.block_bytes,
            n_entries=config.n_sets,
        )
        self.container.init_tag_array(config.n_sets, config.block_bytes)
        self.stats = CacheStats()

    def access_point(self, point_index: int) -> bool:
        """Read one point's full feature vector (word-granular requests).

        Returns True on block hit.  A miss loads the whole block from DRAM;
        the remaining words of the point then hit.
        """
        cfg = self.config
        block_id = point_index // cfg.block_points
        hit = self.container.lookup(block_id % cfg.n_sets, block_id)
        self.stats.accesses += cfg.words_per_point
        if not hit:
            self.stats.misses += 1
            self.stats.dram_bytes += cfg.block_bytes
        return hit


def simulate_conv_cache(maps: MapTable, config: CacheConfig) -> CacheStats:
    """Replay a sparse conv's fetch-on-demand input stream through the cache.

    Loop order matches the MMU dataflow (Section 4.2.2): weight-stationary
    inner loops — for each weight offset, stream all its maps in output
    order — under an output-stationary outer loop, so partial sums never
    leave the chip and input fetches are the only demand traffic.

    Vectorized exact simulation: a direct-mapped access hits iff the
    previous access to the same set carried the same tag, so grouping the
    access stream by set (stable, preserving arrival order) and diffing
    tags yields the exact miss sequence without a Python-level loop.  This
    is property-tested against the step-wise :class:`InputFeatureCache`.

    Replays are memoized on the table per cache geometry (the same
    convention — tables are immutable — as ``MapTable.sorted_by``):
    networks reuse one map table across paired layers, and the MMU's
    block-size auto-tune replays each table under several candidate
    geometries per layer, so shared tables would otherwise pay the
    sweep once per consumer.  Returned stats are fresh copies.
    """
    geometry = (config.capacity_bytes, config.block_points, config.c_in,
                config.elem_bytes, config.word_bytes)
    memo = getattr(maps, "_cache_sims", None)
    if memo is None:
        memo = {}
        maps._cache_sims = memo
    cached = memo.get(geometry)
    if cached is not None:
        return CacheStats(cached.accesses, cached.misses, cached.dram_bytes)
    table = maps.sorted_by(by="weight")
    stats = CacheStats()
    n_access_points = len(table.in_idx)
    stats.accesses = n_access_points * config.words_per_point
    if n_access_points == 0:
        memo[geometry] = stats
        return CacheStats(stats.accesses, stats.misses, stats.dram_bytes)
    # This function is the backend's hot loop: on POINTACC_FULL the
    # block-size sweep runs it once per conv layer for power-of-two channel
    # counts and 4-5 times for 96/192/384 channels
    # (``MemoryManagementUnit.sparse_conv_cost`` skips sizes that provably
    # cannot win), each pass over the full map stream.  Two micro-shapes matter: power-of-two block sizes divide by
    # shifting, and set ids (< n_sets, small) sort with fewer radix passes
    # in a narrow dtype.
    bp = config.block_points
    if bp & (bp - 1) == 0:
        block_ids = table.in_idx >> bp.bit_length() - 1
    else:
        block_ids = table.in_idx // bp
    n_sets = config.n_sets
    if n_sets == 1:
        # One set: the arrival order is already set-grouped.
        sorted_tags = block_ids
    else:
        set_ids = block_ids % n_sets
        if n_sets <= 1 << 15:
            set_ids = set_ids.astype(np.int16)
        elif n_sets <= 1 << 31:
            set_ids = set_ids.astype(np.int32)
        order = np.argsort(set_ids, kind="stable")
        sorted_tags = block_ids[order]
    # A miss is an access whose predecessor *in its set* carried another
    # tag.  Equal tags force equal sets (set = tag % n_sets), so in the
    # set-grouped stream every group boundary is also a tag change, and
    # counting adjacent tag changes alone is exact.
    misses = 1 + int(np.count_nonzero(sorted_tags[1:] != sorted_tags[:-1]))
    stats.misses = misses
    stats.dram_bytes = float(misses * config.block_bytes)
    memo[geometry] = stats
    return CacheStats(stats.accesses, stats.misses, stats.dram_bytes)
