"""Hypothesis property tests for the cache and fusion models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mmu import (
    CacheConfig,
    FusionPlanner,
    InputFeatureCache,
    simulate_conv_cache,
    simulate_fusion_stack,
)
from repro.mapping.maps import MapTable
from repro.nn.trace import LayerKind, LayerSpec


@st.composite
def map_tables(draw):
    n_in = draw(st.integers(4, 120))
    n_maps = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return MapTable(
        rng.integers(0, n_in, n_maps),
        rng.integers(0, n_in, n_maps),
        rng.integers(0, 27, n_maps),
        kernel_volume=27,
    )


cache_configs = st.builds(
    CacheConfig,
    capacity_bytes=st.sampled_from([2048, 8192, 65536]),
    block_points=st.sampled_from([1, 2, 4, 8]),
    c_in=st.sampled_from([8, 16, 64, 128]),
)


@given(maps=map_tables(), cfg=cache_configs)
@settings(max_examples=50, deadline=None)
def test_vectorized_cache_equals_stepwise(maps, cfg):
    fast = simulate_conv_cache(maps, cfg)
    slow = InputFeatureCache(cfg)
    for p in maps.sorted_by(by="weight").in_idx.tolist():
        slow.access_point(int(p))
    assert fast.misses == slow.stats.misses
    assert fast.accesses == slow.stats.accesses
    assert fast.dram_bytes == slow.stats.dram_bytes


def _stepwise_misses(maps, cfg) -> int:
    slow = InputFeatureCache(cfg)
    for p in maps.sorted_by(by="weight").in_idx.tolist():
        slow.access_point(int(p))
    return slow.stats.misses


@st.composite
def grouped_streams(draw):
    """Weight-grouped access streams built of runs of one repeated index or
    of adjacent indices, the shapes kernel maps over sorted clouds make.
    Outputs count up, so the weight-ordered stream is the drawn one."""
    in_idx, weight_idx = [], []
    for group in range(draw(st.integers(1, 5))):
        for _ in range(draw(st.integers(1, 8))):
            start = draw(st.integers(0, 300))
            length = draw(st.integers(1, 9))
            if draw(st.booleans()):
                run = [start] * length
            else:
                run = list(range(start, start + length))
            in_idx += run
            weight_idx += [group] * length
    return MapTable(in_idx, np.arange(len(in_idx)), weight_idx, kernel_volume=5)


@st.composite
def odd_set_configs(draw):
    """Cache geometries whose set count is odd (no mask, no even pairing)."""
    block_points = draw(st.sampled_from([1, 2, 3, 4, 8]))
    c_in = draw(st.sampled_from([1, 8, 16, 96]))
    block_bytes = block_points * c_in * 2
    n_sets = 2 * draw(st.integers(0, 40)) + 1
    slack = draw(st.integers(0, block_bytes - 1))
    cfg = CacheConfig(n_sets * block_bytes + slack, block_points, c_in)
    assert cfg.n_sets == n_sets
    return cfg


@given(maps=grouped_streams(), cfg=odd_set_configs())
@settings(max_examples=150, deadline=None)
def test_run_head_replay_equals_stepwise(maps, cfg):
    assert simulate_conv_cache(maps, cfg).misses == _stepwise_misses(maps, cfg)


@pytest.mark.parametrize("n_sets", [1 << 15, (1 << 15) + 1])
def test_replay_with_a_64_bit_key(n_sets):
    """2^17+ run heads at 2^15+ sets: the packed (set, position) key needs
    more than 31 bits, so the replay sorts int64 keys."""
    in_idx = np.random.default_rng(n_sets).integers(0, 1 << 16, (1 << 17) + 64)
    maps = MapTable(in_idx, np.arange(len(in_idx)), np.zeros_like(in_idx), 1)
    cfg = CacheConfig(capacity_bytes=2 * n_sets, block_points=1, c_in=1)
    n_heads = 1 + int(np.count_nonzero(in_idx[1:] != in_idx[:-1]))
    assert n_heads >= 1 << 17 and cfg.n_sets == n_sets
    assert n_sets << (n_heads - 1).bit_length() > 1 << 31
    assert simulate_conv_cache(maps, cfg).misses == _stepwise_misses(maps, cfg)


def test_replay_of_block_ids_beyond_int32():
    in_idx = [1 << 40, (1 << 40) + 3, 5, 1 << 40, 8, (1 << 40) + 3]
    maps = MapTable(in_idx, np.arange(6), np.zeros(6, dtype=np.int64), 1)
    for capacity in (6, 8):  # 3 and 4 sets
        cfg = CacheConfig(capacity_bytes=capacity, block_points=1, c_in=1)
        assert simulate_conv_cache(maps, cfg).misses == _stepwise_misses(maps, cfg)


@given(maps=map_tables(), cfg=cache_configs)
@settings(max_examples=50, deadline=None)
def test_cache_invariants(maps, cfg):
    stats = simulate_conv_cache(maps, cfg)
    assert 0 <= stats.misses <= stats.accesses
    # At least one cold miss per distinct block touched; no more misses
    # than point accesses.
    touched_blocks = len(set((maps.in_idx // cfg.block_points).tolist()))
    assert stats.misses >= min(touched_blocks, 1)
    assert stats.misses <= maps.n_maps
    assert stats.dram_bytes == stats.misses * cfg.block_bytes


@given(maps=map_tables(), block=st.sampled_from([1, 2, 4]),
       c_in=st.sampled_from([16, 64]))
@settings(max_examples=30, deadline=None)
def test_bigger_cache_never_more_misses(maps, block, c_in):
    small = simulate_conv_cache(
        maps, CacheConfig(4096, block, c_in)
    )
    # Direct-mapped caches can show Belady anomalies under adversarial
    # conflict patterns, but with the same block size and 16x the sets a
    # superset-of-sets argument holds: every hit in the small cache whose
    # line survives also hits in the big one. Allow a tiny slack for the
    # modulo-mapping edge cases.
    big = simulate_conv_cache(
        maps, CacheConfig(65536, block, c_in)
    )
    assert big.misses <= small.misses + maps.n_maps // 50 + 1


@st.composite
def dense_chains(draw):
    rows = draw(st.integers(32, 512))
    n_layers = draw(st.integers(1, 5))
    widths = [draw(st.sampled_from([8, 16, 32, 64]))
              for _ in range(n_layers + 1)]
    return [
        LayerSpec(
            name=f"l{i}", kind=LayerKind.DENSE_MM, n_in=rows, n_out=rows,
            c_in=widths[i], c_out=widths[i + 1], rows=rows, fusible=True,
        )
        for i in range(n_layers)
    ]


@given(chain=dense_chains(),
       feat_kb=st.sampled_from([16, 64, 256]),
       weight_kb=st.sampled_from([8, 64]))
@settings(max_examples=50, deadline=None)
def test_fusion_plan_is_partition_and_never_worse(chain, feat_kb, weight_kb):
    planner = FusionPlanner(feat_kb * 1024, weight_kb * 1024)
    groups = planner.plan_chain(chain)
    # The groups partition the chain in order.
    flattened = [s for g in groups for s in g.specs]
    assert flattened == chain
    # Fusion never increases DRAM traffic vs layer-by-layer.
    fused = sum(g.dram_bytes(2) for g in groups)
    unfused = sum(g.unfused_dram_bytes(2) for g in groups)
    assert fused <= unfused


@given(chain=dense_chains(), feat_kb=st.sampled_from([32, 256]))
@settings(max_examples=50, deadline=None)
def test_fusion_stack_simulation_safe(chain, feat_kb):
    planner = FusionPlanner(feat_kb * 1024, 10**9)
    for group in planner.plan_chain(chain):
        result = simulate_fusion_stack(group, feat_kb * 1024)
        assert result["peak_bytes"] <= feat_kb * 1024
        assert result["rows_computed"] == [group.rows] * group.n_layers
