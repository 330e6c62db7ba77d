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
returns measured miss rate + DRAM traffic; :func:`group_miss_bound` bounds
its misses from below without a replay, so the MMU's block-size sweep can
skip sizes that cannot win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...mapping.maps import MapTable
from .mir import MIRContainer

__all__ = [
    "CacheConfig",
    "CacheStats",
    "InputFeatureCache",
    "group_miss_bound",
    "simulate_conv_cache",
]

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

    Vectorized exact simulation, property-tested against the step-wise
    :class:`InputFeatureCache`, in two steps:

    * **Run heads.**  An access to the block the access just before it
      read always hits, and a hit changes no cache state, so dropping it
      changes no other access's outcome.  Only the *run heads* — accesses
      whose block differs from the previous access's — can miss.
    * **Set order.**  A direct-mapped access hits iff the previous access
      to its set carried the same tag.  One in-place sort of the packed
      key ``(set << position_bits) | position`` orders the heads by set,
      in arrival order within each set; equal blocks force equal sets, so
      every set boundary is also a block change, and counting adjacent
      block changes in that order counts the misses exactly.

    The key is int32 when the set count, the head count and the largest
    block id fit, and int64 otherwise.  Power-of-two set counts take the
    set id with a mask.

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
    if cached is None:
        in_idx = maps.sorted_by(by="weight").in_idx
        misses = _replay_misses(in_idx, config.block_points, config.n_sets)
        cached = CacheStats(
            accesses=len(in_idx) * config.words_per_point,
            misses=misses,
            dram_bytes=float(misses * config.block_bytes),
        )
        memo[geometry] = cached
    return CacheStats(cached.accesses, cached.misses, cached.dram_bytes)


def _block_ids(in_idx: np.ndarray, block_points: int) -> np.ndarray:
    if block_points == 1:
        return in_idx
    if block_points & (block_points - 1) == 0:
        return in_idx >> (block_points.bit_length() - 1)
    return in_idx // block_points


def _run_heads(blocks: np.ndarray) -> np.ndarray:
    """Mask of the accesses whose block differs from the previous one's."""
    head = np.empty(len(blocks), dtype=bool)
    head[:1] = True
    np.not_equal(blocks[1:], blocks[:-1], out=head[1:])
    return head


def _replay_misses(in_idx: np.ndarray, block_points: int, n_sets: int) -> int:
    """Exact miss count of the access stream ``in_idx`` (see
    :func:`simulate_conv_cache`)."""
    if len(in_idx) == 0:
        return 0
    blocks = _block_ids(in_idx, block_points)
    heads = blocks[_run_heads(blocks)]
    n_heads = len(heads)
    if n_sets == 1:
        # One set: every head evicts the block its predecessor read.
        return n_heads
    position_bits = (n_heads - 1).bit_length()
    if n_sets << position_bits <= 1 << 31 and int(heads.max()) < 1 << 31:
        dtype = np.int32
    else:
        dtype = np.int64
    heads = heads.astype(dtype, copy=False)
    if n_sets & (n_sets - 1) == 0:
        key = heads & dtype(n_sets - 1)
    else:
        # Floor division by a scalar is vectorized; ``%`` is not.
        key = heads - heads // dtype(n_sets) * dtype(n_sets)
    key <<= position_bits
    key |= np.arange(n_heads, dtype=dtype)
    key.sort()
    key &= (1 << position_bits) - 1
    ordered = heads[key]
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def group_miss_bound(maps: MapTable, block_points: int, n_sets: int) -> int | None:
    """A lower bound on :func:`simulate_conv_cache`'s misses, or ``None``.

    Within one weight group, a block's first access can hit only if the
    block was already cached when the group began — nothing in between
    read it — and at most ``n_sets`` blocks are cached at any time.  So
    the stream misses at least ``sum_g max(0, D_g - n_sets)`` times, where
    ``D_g`` counts the distinct blocks group ``g`` reads.  The bound holds
    for every stream, but ``D_g`` is only cheap when ``in_idx`` strictly
    increases within every group: then the group's block ids never fall
    and ``D_g`` is its block changes plus one.  Other tables get ``None``.

    Memoized on the table like the replays: the group starts and each
    block size's ``D_g``, O(kernel_volume) integers each, never a per-map
    array.
    """
    memo = getattr(maps, "_group_blocks", None)
    if memo is None:
        memo = {"starts": _increasing_group_starts(maps.sorted_by(by="weight"))}
        maps._group_blocks = memo
    starts = memo["starts"]
    if starts is None:
        return None
    distinct = memo.get(block_points)
    if distinct is None:
        in_idx = maps.sorted_by(by="weight").in_idx
        head = _run_heads(_block_ids(in_idx, block_points))
        head[starts] = True
        distinct = np.add.reduceat(head, starts, dtype=np.int64)
        memo[block_points] = distinct
    return int(np.maximum(distinct - n_sets, 0).sum())


def _increasing_group_starts(table: MapTable) -> np.ndarray | None:
    """Start offsets of a weight-ordered table's groups, or ``None`` when
    ``in_idx`` does not strictly increase within some group."""
    if table.n_maps == 0:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(table.weight_idx[1:] != table.weight_idx[:-1]) + 1
    step = np.diff(table.in_idx)
    step[starts - 1] = 1  # the first map of a group may step down
    if not np.all(step > 0):
        return None
    return np.concatenate(([0], starts))
