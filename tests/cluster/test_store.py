"""The shared store: TraceStore's LRU memory tier, versioned key and disk spill.

A cluster serves every shard from one :class:`~repro.engine.TraceStore`
(and a bare engine builds a private one); with a ``cache_dir`` it spills
every trace to disk, which is also the cross-process store of worker
mode.
"""

import errno
import os
import pickle

import numpy as np
import pytest

from repro.core.mmu import CacheStats
from repro.engine import SimRequest, SimulationEngine, TraceStore
from repro.engine import trace_store as store_mod
from repro.engine.trace_store import trace_bytes, trace_key
from repro.mapping import MapTable
from repro.nn.trace import LayerKind, LayerSpec, Trace
from repro.obs.ledger import RecomputeLedger, ledger_frame, use_ledger
from repro.stream import FrameSequence, SequenceConfig


@pytest.fixture
def cache_dir(tmp_path):
    """Spill directory, auto-removed by pytest's tmp_path."""
    return tmp_path / "trace-store"


def _trace(i: int, rows: int = 64) -> Trace:
    """A one-layer trace whose map table is filled with ``i``."""
    maps = MapTable(np.full(rows, i), np.arange(rows),
                    np.zeros(rows, dtype=np.int64), kernel_volume=1)
    trace = Trace(name=f"t{i}")
    trace.record(LayerSpec(name="conv", kind=LayerKind.SPARSE_CONV,
                           n_in=rows, n_out=rows, rows=rows, n_maps=rows,
                           params={"maps": maps}))
    return trace


def _marker(trace: Trace) -> int:
    """The ``i`` a trace from :func:`_trace` was built with."""
    (value,) = set(trace.specs[0].params["maps"].in_idx.tolist())
    return value


def _key(i: int) -> tuple:
    return ("net", 0.1, i)


def _path(cache_dir, i: int):
    return cache_dir / (trace_key(_key(i)).hex() + ".trace")


def _fill(store, n=3, rows=64):
    for i in range(n):
        store.put(_key(i), _trace(i, rows))


class TestMemoryTier:
    def test_hit_miss_accounting(self):
        store = TraceStore()
        assert store.get(_key(0)) is None
        store.put(_key(0), _trace(0))
        assert _marker(store.get(_key(0))) == 0
        assert store.get(_key(1)) is None
        snap = store.snapshot()
        assert (snap["hits"], snap["misses"], snap["lookups"]) == (1, 2, 3)
        assert snap["hit_rate"] == pytest.approx(1 / 3)
        assert snap["entries"] == 1

    def test_stores_and_returns_by_reference(self):
        store = TraceStore()
        trace = _trace(3)
        store.put(_key(3), trace)
        assert store.get(_key(3)) is trace
        assert store.get(_key(3)) is trace

    def test_content_addressing_sees_values_not_objects(self):
        """The key is the workload key's value: an equal tuple hits."""
        store = TraceStore()
        store.put(("net", 1.0, 0), _trace(0))
        assert store.get(("net", 1.0, 0)) is not None
        assert store.get(("net", 1.0, 1)) is None
        assert store.get(("other", 1.0, 0)) is None

    def test_lru_eviction_by_entries(self):
        store = TraceStore(max_entries=2)
        _fill(store, 4)
        assert len(store) == 2
        assert store.evictions == 2
        assert store.get(_key(0)) is None and store.get(_key(3)) is not None

    def test_get_refreshes_recency(self):
        store = TraceStore(max_entries=2)
        _fill(store, 2)
        store.get(_key(0))
        store.put(_key(2), _trace(2))  # evicts key 1, the least recent
        assert store.get(_key(0)) is not None
        assert store.get(_key(1)) is None

    def test_eviction_by_bytes(self):
        one = trace_bytes(_trace(0, rows=32))
        store = TraceStore(max_bytes=2 * one)
        _fill(store, 3, rows=32)
        assert store.stored_bytes <= 2 * one
        assert store.evictions == 1
        assert store.snapshot()["stored_mb"] == pytest.approx(2 * one / 1e6)

    def test_oversized_trace_still_served(self):
        """The most recent trace stays even when it alone is over budget."""
        store = TraceStore(max_bytes=1)
        store.put(_key(0), _trace(0))
        assert store.get(_key(0)) is not None and len(store) == 1

    def test_trace_bytes_count_distinct_map_tables(self):
        trace = _trace(0, rows=10)
        assert trace_bytes(trace) == 3 * 10 * 8
        shared = trace.specs[0]
        trace.record(shared)  # a second layer reading the same table
        assert trace_bytes(trace) == 3 * 10 * 8
        assert trace_bytes(Trace()) == 0

    def test_served_minknet_frame_holds_only_counted_arrays(self):
        """Every kernel-map table of a served MinkNet(o) stream frame is
        already in weight order, so the weight-sorted table the MMU replays
        views the table's own arrays, and the MMU's memos on a table hold
        scalars and O(kernel_volume) arrays, never a per-map array:
        ``trace_bytes`` counts everything the stored tables hold, so
        ``TraceStore.max_bytes`` bounds the store."""
        sequence = FrameSequence(SequenceConfig(seed=1, n_frames=2))
        request = SimRequest(sequence.notation("MinkNet(o)"), scale=0.4, seed=1,
                             geometry_only=True)
        (result,) = SimulationEngine(backends=("pointacc",)).run_batch([request])
        assert not result.errors
        tables = {id(spec.params["maps"]): spec.params["maps"]
                  for spec in result.trace.by_kind(LayerKind.SPARSE_CONV)}
        assert len(tables) == 13
        bounded = 0
        for maps in tables.values():
            ordered = maps.sorted_by(by="weight")
            for name in ("in_idx", "out_idx", "weight_idx"):
                assert np.shares_memory(getattr(ordered, name), getattr(maps, name))
            memos = {k: v for k, v in vars(maps).items()
                     if k not in ("in_idx", "out_idx", "weight_idx", "_sorted")}
            assert set(memos) <= {"kernel_volume", "_cache_sims", "_group_blocks"}
            assert all(isinstance(stats, CacheStats)
                       for stats in memos["_cache_sims"].values())
            for value in memos.get("_group_blocks", {}).values():
                assert value is None or value.size <= maps.kernel_volume
            bounded += "_group_blocks" in memos
        assert bounded > 0

    def test_memory_evictions_reach_the_ledger(self):
        ledger = RecomputeLedger()
        store = TraceStore(max_entries=1)
        with use_ledger(ledger):
            with ledger_frame("f0"):
                store.put(_key(0), _trace(0))
            with ledger_frame("f1"):
                store.put(_key(1), _trace(1))
        (event,) = ledger.events()
        assert event["tier"] == "memory" and event["frame"] == "f1"
        assert event["key"] == trace_key(_key(0)).hex()
        assert event["bytes"] == trace_bytes(_trace(0))

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            TraceStore(max_entries=0)
        with pytest.raises(ValueError):
            TraceStore(max_bytes=0)

    def test_no_disk_without_cache_dir(self, tmp_path):
        store = TraceStore()
        _fill(store)
        assert list(tmp_path.iterdir()) == []
        assert store.snapshot()["persistent"] is False


class TestVersionedKey:
    def test_key_covers_version_and_workload(self, monkeypatch):
        key = trace_key(_key(0))
        assert len(key) == 16 and key == trace_key(_key(0))
        assert key != trace_key(_key(1))
        monkeypatch.setattr(store_mod, "code_version", lambda: b"other code")
        assert trace_key(_key(0)) != key

    def test_version_digest_covers_the_package_sources(self):
        version = store_mod.code_version()
        assert len(version) == 16 and version == store_mod.code_version()

    def test_spill_from_other_code_version_misses(self, cache_dir,
                                                  monkeypatch):
        TraceStore(cache_dir=cache_dir).put(_key(0), _trace(0))
        # A store running different code: the spill is not its trace.
        with monkeypatch.context() as patch:
            patch.setattr(store_mod, "code_version", lambda: b"newer code")
            stale = TraceStore(cache_dir=cache_dir)
            assert stale.get(_key(0)) is None
            assert stale.disk_hits == 0 and stale.disk_errors == 0
        # The same code in a fresh process warm-starts from it.
        fresh = TraceStore(cache_dir=cache_dir)
        assert _marker(fresh.get(_key(0))) == 0
        assert fresh.disk_hits == 1


class TestDiskSpill:
    def test_write_through_persists_each_put(self, cache_dir):
        _fill(TraceStore(cache_dir=cache_dir))
        files = sorted(p.name for p in cache_dir.glob("*.trace"))
        assert files == sorted(_path(cache_dir, i).name for i in range(3))

    def test_lazy_probe_warm_starts_fresh_store(self, cache_dir):
        _fill(TraceStore(cache_dir=cache_dir))
        fresh = TraceStore(cache_dir=cache_dir)
        assert _marker(fresh.get(_key(0))) == 0
        assert fresh.disk_hits == 1
        assert fresh.hits == 1 and fresh.misses == 0  # a disk hit is a hit
        # promoted: the second get is a pure memory hit
        fresh.get(_key(0))
        assert fresh.disk_hits == 1 and len(fresh) == 1

    def test_memory_eviction_keeps_disk(self, cache_dir):
        store = TraceStore(max_entries=1, cache_dir=cache_dir)
        _fill(store)
        assert len(store) == 1  # memory evicted down to the bound
        assert len(list(cache_dir.glob("*.trace"))) == 3  # disk kept all
        # the evicted trace comes back from disk, not a rebuild
        assert _marker(store.get(_key(0))) == 0
        assert store.disk_hits == 1 and store.misses == 0

    def test_corrupt_file_is_a_miss_not_a_failure(self, cache_dir):
        _fill(TraceStore(cache_dir=cache_dir))
        _path(cache_dir, 1).write_bytes(b"not a pickle")
        fresh = TraceStore(cache_dir=cache_dir)
        assert fresh.get(_key(1)) is None
        assert fresh.disk_errors == 1 and fresh.misses == 1
        # the healthy spills are still served
        assert _marker(fresh.get(_key(0))) == 0
        assert _marker(fresh.get(_key(2))) == 2
        assert fresh.disk_errors == 1

    def test_corrupt_spill_is_deleted_and_slot_rewritable(self, cache_dir):
        """A truncated spill (killed mid-write without the tmp rename,
        disk-full debris) is a miss, is removed, and the rebuild rewrites
        the slot — it never resurfaces as an error."""
        _fill(TraceStore(cache_dir=cache_dir))
        path = _path(cache_dir, 0)
        path.write_bytes(pickle.dumps(_trace(0))[:7])  # truncated pickle
        fresh = TraceStore(cache_dir=cache_dir)
        assert fresh.get(_key(0)) is None
        assert fresh.disk_errors == 1
        assert not path.is_file()  # deleted on sight
        fresh.put(_key(0), _trace(0))  # the rebuild rewrites the slot
        rewarm = TraceStore(cache_dir=cache_dir)
        assert _marker(rewarm.get(_key(0))) == 0
        assert rewarm.disk_errors == 0

    def test_failed_spill_keeps_serving_from_memory(self, cache_dir,
                                                    monkeypatch):
        """A spill that fails mid-write (disk full) must not fail the put:
        its temp file goes, the error is counted, memory still serves."""

        def disk_full(obj, fh, protocol=None):
            fh.write(b"\x80\x05partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store_mod.pickle, "dump", disk_full)
        store = TraceStore(cache_dir=cache_dir)
        trace = _trace(0)
        store.put(_key(0), trace)
        assert store.disk_errors == 1
        assert store.get(_key(0)) is trace
        assert list(cache_dir.iterdir()) == []  # no temp file, no entry

    def test_snapshot_reports_disk_tier(self, cache_dir):
        snap = TraceStore(cache_dir=cache_dir).snapshot()
        assert snap["persistent"] is True
        assert snap["disk_hits"] == snap["disk_errors"] == 0
        assert snap["disk_evictions"] == 0


class TestDiskBudget:
    def _disk_bytes(self, cache_dir):
        return sum(p.stat().st_size for p in cache_dir.glob("*.trace"))

    def test_spill_growth_is_bounded(self, tmp_path):
        """With ``max_disk_bytes`` the directory stays under budget after
        every write, oldest entries evicted first."""
        cache_dir = tmp_path / "spill"
        _fill(TraceStore(cache_dir=cache_dir), 1, rows=512)
        entry_bytes = self._disk_bytes(cache_dir)
        for f in cache_dir.glob("*.trace"):
            f.unlink()

        budget = int(entry_bytes * 4.5)  # room for 4 entries, not 12
        store = TraceStore(cache_dir=cache_dir, max_disk_bytes=budget)
        _fill(store, 12, rows=512)
        assert self._disk_bytes(cache_dir) <= budget
        assert store.disk_evictions >= 8
        # The newest entries survive on disk; the oldest are gone.
        assert _path(cache_dir, 11).is_file()
        assert not _path(cache_dir, 0).is_file()

    def test_disk_evictions_reach_the_ledger(self, tmp_path):
        cache_dir = tmp_path / "spill"
        ledger = RecomputeLedger()
        store = TraceStore(cache_dir=cache_dir, max_disk_bytes=1)
        with use_ledger(ledger), ledger_frame("f7"):
            store.put(_key(0), _trace(0))
        (event,) = ledger.events()
        assert event["tier"] == "disk" and event["frame"] == "f7"
        assert event["key"] == trace_key(_key(0)).hex()

    def test_evicted_key_is_a_miss_never_a_failure(self, tmp_path):
        cache_dir = tmp_path / "spill"
        store = TraceStore(max_entries=2, cache_dir=cache_dir,
                           max_disk_bytes=4096)
        _fill(store, 10, rows=16)
        # Old key: evicted from memory (max_entries=2) and from disk.
        fresh = TraceStore(cache_dir=cache_dir, max_disk_bytes=4096)
        assert fresh.get(_key(0)) is None  # plain miss
        assert fresh.get(_key(9)) is not None
        assert fresh.disk_errors == 0

    def test_disk_hit_refreshes_recency(self, tmp_path):
        """A disk hit touches the file so the LRU spares reused entries
        across store instances."""
        cache_dir = tmp_path / "spill"
        _fill(TraceStore(cache_dir=cache_dir, max_disk_bytes=1 << 20))
        old = _path(cache_dir, 0)
        stamp = old.stat().st_mtime - 100
        os.utime(old, (stamp, stamp))
        reader = TraceStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        assert reader.get(_key(0)) is not None
        assert old.stat().st_mtime > stamp + 50

    def test_unbounded_by_default(self, tmp_path):
        store = TraceStore(cache_dir=tmp_path / "spill")
        _fill(store, 8)
        assert store.disk_evictions == 0
        assert len(list((tmp_path / "spill").glob("*.trace"))) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceStore(max_disk_bytes=0)

    def test_overwrite_does_not_inflate_estimate(self, tmp_path):
        """Every put used to add the full file size to the running
        estimate, double-counting overwrites (os.replace reuses the
        file), until a spurious O(files) rescan."""
        cache_dir = tmp_path / "spill"
        store = TraceStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        store.put(_key(0), _trace(0, rows=256))
        first = store._disk_bytes_estimate
        assert first == self._disk_bytes(cache_dir)
        for _ in range(20):
            store.put(_key(0), _trace(0, rows=256))
        assert store._disk_bytes_estimate == first  # flat, not 21x
        assert store.disk_evictions == 0

    def test_overwrite_with_smaller_value_shrinks_estimate(self, tmp_path):
        cache_dir = tmp_path / "spill"
        store = TraceStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        store.put(_key(0), _trace(0, rows=4096))
        store.put(_key(0), _trace(0, rows=8))
        assert store._disk_bytes_estimate == self._disk_bytes(cache_dir)


class TestSharedDirectory:
    """Several stores (processes) on one cache_dir: races and debris."""

    def _dead_pid(self):
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()  # a guaranteed-dead pid
        return proc.pid

    def test_stale_tmp_from_dead_writer_swept_on_init(self, tmp_path):
        """A process killed between open() and os.replace() leaves
        `<digest>.trace.tmp<pid>` debris that the *.trace-filtered budget
        scan never sees; construction sweeps it."""
        cache_dir = tmp_path / "spill"
        TraceStore(cache_dir=cache_dir).put(_key(0), _trace(0))
        dead = cache_dir / (_path(cache_dir, 1).name + f".tmp{self._dead_pid()}")
        dead.write_bytes(b"partial pickle debr")
        ours = cache_dir / (_path(cache_dir, 2).name + f".tmp{os.getpid()}")
        ours.write_bytes(b"in-flight write of a live process")
        TraceStore(cache_dir=cache_dir)  # init sweeps
        assert not dead.is_file()
        assert ours.is_file()  # live writers (us included) are never touched
        ours.unlink()

    def test_stale_tmp_swept_during_budget_rescan(self, tmp_path):
        cache_dir = tmp_path / "spill"
        cache_dir.mkdir()
        store = TraceStore(cache_dir=cache_dir, max_disk_bytes=4096)
        dead = cache_dir / (_path(cache_dir, 9).name + f".tmp{self._dead_pid()}")
        dead.write_bytes(b"debris")
        # Overflow the budget so _enforce_disk_budget rescans.
        _fill(store, 10, rows=128)
        assert not dead.is_file()

    def test_evicted_by_other_store_is_plain_miss(self, tmp_path):
        """Two stores, one directory: re-probing an entry that another
        store's budget enforcement unlinked counts a miss — never an
        error, never a raise."""
        cache_dir = tmp_path / "spill"
        a = TraceStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        a.put(_key(0), _trace(0))
        b = TraceStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        assert b.get(_key(0)) is not None  # disk hit, promoted
        os.unlink(_path(cache_dir, 0))  # what A's budget unlink does
        fresh = TraceStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)
        assert fresh.get(_key(0)) is None
        assert fresh.misses == 1
        assert fresh.disk_errors == 0  # a vanished file is not corruption
        # B still serves its promoted in-memory trace.
        assert _marker(b.get(_key(0))) == 0

    def test_utime_refresh_tolerates_concurrent_unlink(self, tmp_path,
                                                       monkeypatch):
        """The disk-hit mtime refresh racing another worker's eviction:
        the trace was already read, so the lookup stays a hit."""
        cache_dir = tmp_path / "spill"
        TraceStore(cache_dir=cache_dir).put(_key(3), _trace(3))
        reader = TraceStore(cache_dir=cache_dir, max_disk_bytes=1 << 20)

        def vanished(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "utime", vanished)
        assert _marker(reader.get(_key(3))) == 3
        assert reader.hits == 1 and reader.disk_hits == 1
        assert reader.disk_errors == 0
