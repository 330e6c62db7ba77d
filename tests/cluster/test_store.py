"""SharedMapStore: L2 semantics, disk spill, persistence, corruption."""

import os
import pickle

import numpy as np
import pytest

from repro.cluster import SharedMapStore
from repro.engine import MapCache
from repro.mapping import TieredLookup, farthest_point_sampling, use_map_cache


@pytest.fixture
def cache_dir(tmp_path):
    """Persistence spill directory, auto-removed by pytest's tmp_path."""
    return tmp_path / "map-store"


def _fill(store, n=3):
    keys = []
    for i in range(n):
        key = store.key("op", (np.full(4, i),), {"i": i})
        store.put(key, np.arange(8) + i, "op")
        keys.append(key)
    return keys


class TestMemoryTier:
    def test_is_a_map_cache(self):
        store = SharedMapStore()
        assert isinstance(store, MapCache)
        with use_map_cache(store):
            pts = np.random.default_rng(0).normal(size=(32, 3))
            a = farthest_point_sampling(pts, 4)
            b = farthest_point_sampling(pts, 4)
        assert np.array_equal(a, b)
        assert store.stats().hits == 1

    def test_no_disk_without_cache_dir(self, tmp_path):
        store = SharedMapStore()
        _fill(store)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError):
            store.save()


class TestDiskSpill:
    def test_write_through_persists_each_put(self, cache_dir):
        store = SharedMapStore(cache_dir=cache_dir)
        keys = _fill(store)
        files = sorted(p.name for p in cache_dir.glob("*.map"))
        assert files == sorted(k.hex() + ".map" for k in keys)

    def test_lazy_probe_warm_starts_fresh_store(self, cache_dir):
        keys = _fill(SharedMapStore(cache_dir=cache_dir))
        fresh = SharedMapStore(cache_dir=cache_dir)
        value = fresh.get(keys[0], "op")
        assert np.array_equal(value, np.arange(8))
        assert fresh.disk_hits == 1
        assert fresh.stats().hits == 1  # a disk hit is a hit, not a miss
        # promoted: second get is a pure memory hit
        fresh.get(keys[0], "op")
        assert fresh.disk_hits == 1

    def test_save_and_bulk_load_round_trip(self, cache_dir):
        store = SharedMapStore(cache_dir=None, write_through=False)
        keys = _fill(store, n=4)
        assert store.save(cache_dir) == 4
        warm = SharedMapStore()
        assert warm.load(cache_dir) == 4
        for i, key in enumerate(keys):
            assert np.array_equal(warm.get(key, "op"), np.arange(8) + i)

    def test_load_missing_dir_is_empty(self, cache_dir):
        assert SharedMapStore().load(cache_dir / "nope") == 0

    def test_memory_eviction_keeps_disk(self, cache_dir):
        store = SharedMapStore(max_entries=1, cache_dir=cache_dir)
        keys = _fill(store)
        assert len(store) == 1  # memory evicted down to the bound
        assert len(list(cache_dir.glob("*.map"))) == 3  # disk kept everything
        # the evicted entry comes back from disk, not recompute
        assert np.array_equal(store.get(keys[0], "op"), np.arange(8))
        assert store.disk_hits == 1
        # regression: the disk hit repairs the eviction-miss count too —
        # it was a spill hit, not a capacity problem
        stats = store.stats()
        assert stats.eviction_misses == 0
        assert stats.eviction_misses <= stats.misses  # subset invariant

    def test_corrupt_file_is_a_miss_not_a_failure(self, cache_dir):
        store = SharedMapStore(cache_dir=cache_dir)
        keys = _fill(store)
        path = cache_dir / (keys[1].hex() + ".map")
        path.write_bytes(b"not a pickle")
        fresh = SharedMapStore(cache_dir=cache_dir)
        assert fresh.get(keys[1], "op") is None
        assert fresh.disk_errors == 1
        # bulk load skips it but takes the healthy ones
        warm = SharedMapStore()
        assert warm.load(cache_dir) == 2

    def test_load_skips_foreign_files(self, cache_dir):
        _fill(SharedMapStore(cache_dir=cache_dir), n=2)
        (cache_dir / "zz-not-hex.map").write_bytes(pickle.dumps(np.arange(2)))
        warm = SharedMapStore()
        assert warm.load(cache_dir) == 2
        assert warm.disk_errors == 1
        # Foreign files are not ours to delete — only corrupt *spills* go.
        assert (cache_dir / "zz-not-hex.map").is_file()

    def test_corrupt_spill_is_deleted_and_slot_rewritable(self, cache_dir):
        """Regression: a truncated spill (killed mid-write without the tmp
        rename, disk-full debris) must be treated as a miss, removed, and
        rewritable by the recompute — not resurface as an error forever."""
        store = SharedMapStore(cache_dir=cache_dir)
        keys = _fill(store)
        path = cache_dir / (keys[0].hex() + ".map")
        path.write_bytes(pickle.dumps(np.arange(8))[:7])  # truncated pickle
        fresh = SharedMapStore(cache_dir=cache_dir)
        assert fresh.get(keys[0], "op") is None
        assert fresh.disk_errors == 1
        assert not path.is_file()  # deleted on sight
        fresh.put(keys[0], np.arange(8), "op")  # recompute rewrites the slot
        rewarm = SharedMapStore(cache_dir=cache_dir)
        assert np.array_equal(rewarm.get(keys[0], "op"), np.arange(8))
        assert rewarm.disk_errors == 0

    def test_corrupt_spill_deleted_by_bulk_load(self, cache_dir):
        store = SharedMapStore(cache_dir=cache_dir)
        keys = _fill(store)
        path = cache_dir / (keys[2].hex() + ".map")
        path.write_bytes(b"\x80")  # unreadable pickle
        warm = SharedMapStore()
        assert warm.load(cache_dir) == 2
        assert warm.disk_errors == 1
        assert not path.is_file()

    def test_snapshot_reports_disk_tier(self, cache_dir):
        store = SharedMapStore(cache_dir=cache_dir)
        snap = store.stats().snapshot()
        assert snap["persistent"] is True
        assert snap["disk_hits"] == 0


class TestTieredLookup:
    def _compute_counter(self):
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return np.arange(6)

        return calls, compute

    def test_l2_hit_promotes_into_l1(self):
        l1, l2 = MapCache(), SharedMapStore()
        tiered = TieredLookup([l1, l2])
        calls, compute = self._compute_counter()
        args = ("op", (np.arange(4),), {"k": 1})
        tiered.memoize(*args, compute)          # full miss -> both tiers filled
        assert calls["n"] == 1 and len(l1) == 1 and len(l2) == 1
        l1.clear()
        out = tiered.memoize(*args, compute)    # L1 miss, L2 hit
        assert calls["n"] == 1
        assert np.array_equal(out, np.arange(6))
        assert len(l1) == 1                     # promoted back into L1
        assert tiered.stats().hits == 1 and tiered.stats().misses == 1

    def test_disk_hit_promotes_through_both_tiers(self, cache_dir):
        seed = SharedMapStore(cache_dir=cache_dir)
        key = seed.key("op", (np.arange(4),), {"k": 1})
        seed.put(key, np.arange(6), "op")
        l1, l2 = MapCache(), SharedMapStore(cache_dir=cache_dir)
        tiered = TieredLookup([l1, l2])
        calls, compute = self._compute_counter()
        out = tiered.memoize("op", (np.arange(4),), {"k": 1}, compute)
        assert calls["n"] == 0                  # served from disk
        assert np.array_equal(out, np.arange(6))
        assert l2.disk_hits == 1 and len(l1) == 1

    def test_use_map_cache_accepts_tier_list(self):
        l1, l2 = MapCache(), SharedMapStore()
        pts = np.random.default_rng(1).normal(size=(24, 3))
        with use_map_cache([l1, l2]) as installed:
            farthest_point_sampling(pts, 4)
        assert isinstance(installed, TieredLookup)
        assert len(l1) == 1 and len(l2) == 1

    def test_hit_returns_owned_arrays(self):
        l1, l2 = MapCache(), SharedMapStore()
        tiered = TieredLookup([l1, l2])
        args = ("op", (np.arange(3),), {})
        tiered.memoize(*args, lambda: np.zeros(4))
        first = tiered.memoize(*args, lambda: np.zeros(4))
        first[:] = -1  # vandalize
        second = tiered.memoize(*args, lambda: np.zeros(4))
        assert np.array_equal(second, np.zeros(4))

    def test_miss_stores_one_private_copy_in_every_tier(self):
        """A miss copies the computed value once and shares that object
        across tiers: L1 and L2 hold the same entry, not two copies, and
        the caller's result is not it."""
        l1, l2 = MapCache(), SharedMapStore()
        tiered = TieredLookup([l1, l2])
        args = ("op", (np.arange(3),), {})
        out = tiered.memoize(*args, lambda: np.arange(4))
        (key,) = l1._entries
        assert l1._entries[key] is l2._entries[key]
        assert l1._entries[key] is not out
        assert l1.stats().stored_bytes == out.nbytes
        out[:] = -1  # vandalize the caller's result
        assert np.array_equal(l1._entries[key], np.arange(4))

    def test_l2_hit_promotes_the_shared_object(self):
        """A hit promotes the L2's stored object into L1 by reference and
        hands the caller a copy: vandalizing it leaves both tiers intact."""
        l1, l2 = MapCache(), SharedMapStore()
        tiered = TieredLookup([l1, l2])
        args = ("op", (np.arange(3),), {})
        tiered.memoize(*args, lambda: np.arange(4))
        l1.clear()
        out = tiered.memoize(*args, lambda: np.zeros(4))
        (key,) = l2._entries
        assert l1._entries[key] is l2._entries[key]
        out[:] = -1
        assert np.array_equal(l1._entries[key], np.arange(4))
        assert np.array_equal(tiered.memoize(*args, lambda: np.zeros(4)),
                              np.arange(4))

    def test_rejects_empty_tier_list(self):
        with pytest.raises(ValueError):
            TieredLookup([None, None])


class TestDiskBudget:
    def _fill(self, store, n, size=512, start=0):
        keys = []
        for i in range(start, start + n):
            key = bytes([i, 0]) + b"k" * 14
            store.put(key, np.arange(size), "op")
            keys.append(key)
        return keys

    def _disk_bytes(self, cache_dir):
        return sum(p.stat().st_size for p in cache_dir.glob("*.map"))

    def test_spill_growth_is_bounded(self, tmp_path):
        """Regression: without a budget the spill directory grew without
        limit; with ``max_disk_bytes`` it stays under budget after every
        write, oldest entries evicted first."""
        cache_dir = tmp_path / "spill"
        probe = SharedMapStore(cache_dir=cache_dir)
        self._fill(probe, 1)
        entry_bytes = self._disk_bytes(cache_dir)
        for f in cache_dir.glob("*.map"):
            f.unlink()

        budget = int(entry_bytes * 4.5)  # room for 4 entries, not 12
        store = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=budget)
        keys = self._fill(store, 12)
        assert self._disk_bytes(cache_dir) <= budget
        assert store.stats().extra["disk_evictions"] >= 8
        # The newest entries survive on disk; the oldest are gone.
        assert store._path(keys[-1]).is_file()
        assert not store._path(keys[0]).is_file()

    def test_evicted_key_is_a_miss_never_a_failure(self, tmp_path):
        cache_dir = tmp_path / "spill"
        store = SharedMapStore(max_entries=2, cache_dir=cache_dir,
                               max_disk_bytes=4096)
        keys = self._fill(store, 10, size=64)
        # Old key: evicted from memory (max_entries=2) and from disk.
        fresh = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=4096)
        assert fresh.get(keys[0], "op") is None  # plain miss
        assert fresh.get(keys[-1], "op") is not None

    def test_disk_hit_refreshes_recency(self, tmp_path):
        """A disk hit must touch the file so the LRU spares reused
        entries across store instances."""
        cache_dir = tmp_path / "spill"
        store = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        keys = self._fill(store, 3)
        old = store._path(keys[0])
        stamp = old.stat().st_mtime - 100
        os.utime(old, (stamp, stamp))
        reader = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        assert reader.get(keys[0], "op") is not None
        assert old.stat().st_mtime > stamp + 50

    def test_unbounded_by_default(self, tmp_path):
        store = SharedMapStore(cache_dir=tmp_path / "spill")
        self._fill(store, 8)
        assert store.stats().extra["disk_evictions"] == 0
        assert len(list((tmp_path / "spill").glob("*.map"))) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedMapStore(max_disk_bytes=0)

    def test_overwrite_does_not_inflate_estimate(self, tmp_path):
        """Regression: every put added the full file size to the running
        estimate, double-counting overwrites (os.replace reuses the file)
        — repeated puts of one key drifted the estimate upward until it
        crossed the budget and triggered a spurious O(files) rescan."""
        cache_dir = tmp_path / "spill"
        store = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        key = bytes(16)
        store.put(key, np.arange(256), "op")
        first = store._disk_bytes_estimate
        assert first == self._disk_bytes(cache_dir)
        for _ in range(20):
            store.put(key, np.arange(256), "op")
        assert store._disk_bytes_estimate == first  # flat, not 21x
        assert store.stats().extra["disk_evictions"] == 0

    def test_overwrite_with_smaller_value_shrinks_estimate(self, tmp_path):
        cache_dir = tmp_path / "spill"
        store = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        key = bytes(16)
        store.put(key, np.arange(4096), "op")
        store.put(key, np.arange(8), "op")
        assert store._disk_bytes_estimate == self._disk_bytes(cache_dir)


class TestSharedDirectory:
    """Several stores (processes) on one cache_dir: races and debris."""

    def _key(self, i):
        return bytes([i]) + bytes(15)

    def test_stale_tmp_from_dead_writer_swept_on_init(self, tmp_path):
        """Regression: a process killed between open() and os.replace()
        leaves `<digest>.map.tmp<pid>` debris that the *.map-filtered
        budget scan never sees — it accumulated unboundedly."""
        import subprocess
        import sys

        cache_dir = tmp_path / "spill"
        seed = SharedMapStore(cache_dir=cache_dir)
        seed.put(self._key(0), np.arange(8), "op")
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()  # a guaranteed-dead pid
        dead = cache_dir / (self._key(1).hex() + f".map.tmp{proc.pid}")
        dead.write_bytes(b"partial pickle debr")
        ours = cache_dir / (self._key(2).hex() + f".map.tmp{os.getpid()}")
        ours.write_bytes(b"in-flight write of a live process")
        SharedMapStore(cache_dir=cache_dir)  # init sweeps
        assert not dead.is_file()
        assert ours.is_file()  # live writers (us included) are never touched
        ours.unlink()

    def test_stale_tmp_swept_during_budget_rescan(self, tmp_path):
        import subprocess
        import sys

        cache_dir = tmp_path / "spill"
        cache_dir.mkdir()
        store = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=4096)
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead = cache_dir / (self._key(9).hex() + f".map.tmp{proc.pid}")
        dead.write_bytes(b"debris")
        # Overflow the budget so _enforce_disk_budget rescans.
        for i in range(10):
            store.put(self._key(i), np.arange(512), "op")
        assert not dead.is_file()

    def test_evicted_by_other_store_is_plain_miss(self, tmp_path):
        """Two stores, one directory: B re-probing an entry that A's
        budget enforcement unlinked must count a miss — never an error,
        never a raise."""
        cache_dir = tmp_path / "spill"
        a = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        a.put(self._key(0), np.arange(64), "op")
        b = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        assert b.get(self._key(0), "op") is not None  # disk hit, promoted
        # A evicts it (simulate the budget unlink; same syscall path).
        os.unlink(a._path(self._key(0)))
        fresh = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        assert fresh.get(self._key(0), "op") is None
        stats = fresh.stats()
        assert stats.misses == 1
        assert fresh.disk_errors == 0  # a vanished file is not corruption
        # B still serves its promoted in-memory copy.
        assert np.array_equal(b.get(self._key(0), "op"), np.arange(64))

    def test_utime_refresh_tolerates_concurrent_unlink(self, tmp_path, monkeypatch):
        """The disk-hit mtime refresh racing another worker's eviction:
        the value was already read, so the lookup stays a hit."""
        cache_dir = tmp_path / "spill"
        seed = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        seed.put(self._key(3), np.arange(16), "op")
        reader = SharedMapStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)

        def vanished(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "utime", vanished)
        value = reader.get(self._key(3), "op")
        assert np.array_equal(value, np.arange(16))
        assert reader.stats().hits == 1 and reader.disk_hits == 1
        assert reader.disk_errors == 0
