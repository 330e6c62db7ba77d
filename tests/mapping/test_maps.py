"""Tests for the MapTable structure."""

import pickle

import numpy as np
import pytest

from repro.core.mmu import CacheConfig, group_miss_bound, simulate_conv_cache
from repro.mapping import MapTable


@pytest.fixture
def table():
    return MapTable(
        in_idx=np.array([0, 3, 1, 0, 1, 2, 3, 4, 3, 1, 4]),
        out_idx=np.array([1, 4, 3, 0, 1, 2, 3, 4, 1, 0, 3]),
        weight_idx=np.array([0, 0, 1, 4, 4, 4, 4, 4, 6, 8, 8]),
        kernel_volume=9,
    )


class TestMapTable:
    def test_n_maps(self, table):
        assert table.n_maps == 11

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            MapTable(np.array([0]), np.array([0, 1]), np.array([0]), 1)

    def test_sort_by_weight_groups_contiguously(self, table):
        s = table.sorted_by(by="weight")
        assert np.all(np.diff(s.weight_idx) >= 0)
        assert s.as_set() == table.as_set()

    def test_sort_by_output(self, table):
        s = table.sorted_by(by="output")
        assert np.all(np.diff(s.out_idx) >= 0)
        assert s.as_set() == table.as_set()

    def test_sort_invalid_key(self, table):
        with pytest.raises(ValueError):
            table.sorted_by(by="input")

    def test_pickle_carries_no_memo(self, table):
        """Trace-store spills pickle their tables: content only, never the
        sort memo or the MMU's replay and miss-bound memos."""
        cfg = CacheConfig(capacity_bytes=6, block_points=1, c_in=1)
        stats = simulate_conv_cache(table, cfg)
        assert group_miss_bound(table, 2, 1) is not None
        assert table._sorted and table._cache_sims and table._group_blocks
        state = table.__getstate__()
        assert "_cache_sims" not in state and "_group_blocks" not in state
        assert state["_sorted"] == {}
        clone = pickle.loads(pickle.dumps(table))
        assert set(vars(clone)) == {"in_idx", "out_idx", "weight_idx",
                                    "kernel_volume", "_sorted"}
        assert clone._sorted == {}
        assert clone.as_set() == table.as_set()
        assert simulate_conv_cache(clone, cfg) == stats

    def test_per_weight_partition(self, table):
        groups = table.per_weight()
        weights = [w for w, _, _ in groups]
        assert weights == sorted(set(table.weight_idx.tolist()))
        total = sum(len(i) for _, i, _ in groups)
        assert total == table.n_maps
        # Reconstruct the full set from the groups.
        rebuilt = set()
        for w, ins, outs in groups:
            rebuilt |= {(int(i), int(o), w) for i, o in zip(ins, outs)}
        assert rebuilt == table.as_set()

    def test_per_weight_empty(self):
        empty = MapTable(np.empty(0), np.empty(0), np.empty(0), 27)
        assert empty.per_weight() == []

    def test_maps_per_output(self, table):
        counts = table.maps_per_output(5)
        assert counts.sum() == table.n_maps
        assert counts[1] == 3  # outputs 1 appears three times

    def test_maps_per_input(self, table):
        counts = table.maps_per_input(5)
        assert counts.sum() == table.n_maps
        assert counts[0] == 2

    def test_kernel_volume_validated(self):
        with pytest.raises(ValueError):
            MapTable(np.array([0]), np.array([0]), np.array([0]), 0)
