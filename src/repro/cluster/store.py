"""The cluster's shared L2 map store, with a disk-persistence spill.

Every shard keeps a private L1 :class:`~repro.engine.map_cache.MapCache`;
behind all of them sits one :class:`SharedMapStore` — the same bounded
content-addressed LRU, but shared across shards (a mapping table computed by
shard 0 is a hit for shard 3) and optionally backed by a cache directory on
disk so repeated CLI invocations warm-start.

Disk layout is one file per entry, named by the hex of the existing BLAKE2b
content digest (``<digest>.map``), holding a pickled mapping value (ndarray,
MapTable, or tuple of them).  Lookups that miss in memory probe the
directory lazily, so a freshly constructed store serves persisted entries on
its very first request; stores created with ``write_through=True`` (the
default) spill each insert as it happens, making an explicit :meth:`save`
unnecessary in the common path.  Memory eviction never deletes spilled
files — disk *is* the capacity overflow tier.

Corrupt or unreadable spill files are treated as misses (counted in
``disk_errors``) and deleted on sight, never surfaced as failures: the
store is a cache, and the contract everywhere in this repo is that caching
may change wall-clock only, never a result.  Deleting the bad file lets
the recompute that the miss triggers rewrite the slot cleanly.

Disk growth is bounded when ``max_disk_bytes`` is set: after each spill the
directory is brought back under budget by deleting least-recently-used
entry files (disk hits refresh a file's mtime, so recency survives across
processes).  An unbounded store (the default) keeps the original
disk-is-the-overflow-tier behaviour.

Several processes may share one cache directory (that is the worker-mode
cluster's cross-process L2).  Writes stay atomic (``os.replace`` of a
pid-suffixed temp file), and every path that touches a spill file
tolerates the file vanishing underneath it — another worker's budget
enforcement may unlink any entry at any time.  A vanished file is a plain
miss (or a skipped eviction), never an error and never an exception.
Temp files orphaned by a process killed mid-write are swept on store
construction and during budget rescans (dead owner pid, or older than
``_TMP_MAX_AGE_S``).
"""

from __future__ import annotations

import os
import pathlib
import pickle
import time

from ..engine.map_cache import MapCache
from ..mapping.maps import copy_value
from ..obs.ledger import current_ledger as _current_ledger

__all__ = ["SharedMapStore"]

_SUFFIX = ".map"
_TMP_MARKER = _SUFFIX + ".tmp"
#: Age beyond which an orphaned ``.map.tmp<pid>`` file is swept even when
#: its owner pid appears alive (pid reuse protection): no healthy write
#: holds a temp file for an hour.
_TMP_MAX_AGE_S = 3600.0


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; unknown errors count as alive (sweeping
    a live writer's temp file would corrupt its in-flight spill)."""
    if pid < 1:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours to signal
    return True


class SharedMapStore(MapCache):
    """Shared, disk-spillable second cache tier (``MapCache`` protocol).

    Parameters
    ----------
    max_entries / max_bytes:
        In-memory bounds, inherited from :class:`MapCache`; defaults are
        larger because one store backs every shard.
    cache_dir:
        Directory for the persistence spill, or ``None`` for a purely
        in-memory L2.  Created on first write.
    write_through:
        Spill every insert immediately (default).  With ``False``, disk is
        only written by an explicit :meth:`save`.
    max_disk_bytes:
        Byte budget for the spill directory, or ``None`` (default) for
        unbounded growth.  Enforced after every write: least-recently-used
        spill files (oldest mtime, name-tiebroken) are deleted until the
        directory's ``*.map`` payload fits the budget — strictly, so an
        entry larger than the whole budget is itself dropped from disk
        (it stays served from memory).  Evictions count in
        ``disk_evictions``; an evicted key simply misses on disk later and
        recomputes, never fails.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        max_bytes: int = 1024 * 1024 * 1024,
        cache_dir: str | os.PathLike | None = None,
        write_through: bool = True,
        max_disk_bytes: int | None = None,
    ) -> None:
        super().__init__(max_entries=max_entries, max_bytes=max_bytes)
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir is not None else None
        self.write_through = write_through
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError(
                f"max_disk_bytes must be >= 1 or None, got {max_disk_bytes}"
            )
        self.max_disk_bytes = max_disk_bytes
        # Running estimate of the spill payload; None until the first
        # ground-truth scan.  Kept so budgeted stores do not re-scan the
        # directory on every write — see _enforce_disk_budget.
        self._disk_bytes_estimate: int | None = None
        # Disk-tier counters live in the stats object's `extra` slot so they
        # appear in every snapshot, including nested tier snapshots taken by
        # TieredLookup.
        self.stats().extra.update(
            {"disk_hits": 0, "disk_errors": 0, "disk_evictions": 0,
             "persistent": self.cache_dir is not None}
        )
        if self.cache_dir is not None:
            # A process killed between open() and os.replace() leaves a
            # `.map.tmp<pid>` orphan that the *.map-filtered budget scan
            # never sees; sweep debris from dead writers up front.
            self._sweep_stale_tmp(self.cache_dir)

    @property
    def disk_hits(self) -> int:
        return self.stats().extra["disk_hits"]

    @property
    def disk_errors(self) -> int:
        return self.stats().extra["disk_errors"]

    # ------------------------------------------------------------------
    # Disk spill
    # ------------------------------------------------------------------

    def _path(self, key: bytes, cache_dir: pathlib.Path | None = None) -> pathlib.Path:
        base = cache_dir if cache_dir is not None else self.cache_dir
        return base / (key.hex() + _SUFFIX)

    def _sweep_stale_tmp(self, cache_dir: pathlib.Path) -> int:
        """Unlink ``<digest>.map.tmp<pid>`` orphans from dead writers.

        A process killed between ``open`` and ``os.replace`` leaves its
        temp file behind forever: invisible to the ``*.map``-filtered
        budget scan, never reused (temp names are pid-suffixed), growing
        the directory unboundedly.  A temp file is debris iff its owner
        pid is gone — or it is old enough (:data:`_TMP_MAX_AGE_S`) that
        the pid must have been recycled.  Live writers (including this
        process) are never touched.  Returns the number swept.
        """
        try:
            with os.scandir(cache_dir) as it:
                candidates = [
                    dirent.name for dirent in it if _TMP_MARKER in dirent.name
                ]
        except OSError:
            return 0
        swept = 0
        now = time.time()
        for name in candidates:
            pid_text = name.rsplit(_TMP_MARKER, 1)[-1]
            try:
                pid = int(pid_text)
            except ValueError:
                continue  # not one of our temp files
            if pid == os.getpid():
                continue
            if _pid_alive(pid):
                try:
                    age = now - (cache_dir / name).stat().st_mtime
                except OSError:
                    continue  # vanished (owner finished or another sweep won)
                if age < _TMP_MAX_AGE_S:
                    continue
            try:
                os.unlink(cache_dir / name)
            except OSError:
                continue
            swept += 1
        return swept

    def _write_entry(self, key: bytes, value, cache_dir: pathlib.Path) -> None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key, cache_dir)
        replaced = 0
        if self.max_disk_bytes is not None:
            # Overwrites reuse the file via os.replace: without remembering
            # the prior size, the running estimate would add the full size
            # on every put of the same key and drift upward forever.
            try:
                replaced = path.stat().st_size
            except OSError:
                replaced = 0
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic: a reader never sees a partial file
        self._enforce_disk_budget(cache_dir, path, replaced=replaced)

    def _enforce_disk_budget(self, cache_dir: pathlib.Path,
                             wrote: pathlib.Path, replaced: int = 0) -> None:
        """Delete LRU spill files until the directory fits the budget.

        Recency is file mtime (writes stamp it, disk hits refresh it), so
        the order is meaningful across store instances and processes
        sharing one directory.  Ties break on name for determinism.

        The directory is only re-scanned when the running byte estimate
        crosses the budget (or does not exist yet): the estimate adds each
        write's *net* growth (new size minus the size of the file the
        write replaced) and never shrinks on its own — other processes'
        writes are invisible until a rescan, so the estimate trades
        exactness for an O(1) common write, resynchronizing on every
        rescan.  Rescans also sweep orphaned temp files (see
        :meth:`_sweep_stale_tmp`) so mid-write-kill debris cannot
        accumulate outside the budget's sight.
        """
        if self.max_disk_bytes is None:
            return
        if self._disk_bytes_estimate is not None:
            try:
                self._disk_bytes_estimate += wrote.stat().st_size - replaced
            except OSError:
                self._disk_bytes_estimate = None  # force a rescan
            if (
                self._disk_bytes_estimate is not None
                and self._disk_bytes_estimate <= self.max_disk_bytes
            ):
                return
        self._sweep_stale_tmp(cache_dir)
        entries = []
        try:
            with os.scandir(cache_dir) as it:
                for dirent in it:
                    if not dirent.name.endswith(_SUFFIX):
                        continue
                    try:
                        st = dirent.stat()
                    except OSError:
                        continue
                    entries.append((st.st_mtime, dirent.name, st.st_size))
        except OSError:
            return
        total = sum(size for _, _, size in entries)
        self._disk_bytes_estimate = total
        if total <= self.max_disk_bytes:
            return
        for _, name, size in sorted(entries):
            try:
                os.unlink(cache_dir / name)
            except OSError:
                continue
            self.stats().extra["disk_evictions"] += 1
            ledger = _current_ledger()
            if ledger is not None:
                ledger.eviction("disk", name.rsplit(".", 1)[0], size)
            total -= size
            self._disk_bytes_estimate = total
            if total <= self.max_disk_bytes:
                return

    def _read_entry(self, key: bytes):
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            # Never spilled — or spilled and since evicted by another
            # process sharing this directory.  A plain miss either way
            # (opening directly instead of pre-checking is_file() also
            # closes the check-then-open race against a concurrent
            # eviction).
            return None
        except Exception:
            # Corrupt/truncated spill (killed process, disk-full partial
            # write): count it, *delete it* so the slot can be rewritten by
            # the recompute this miss triggers, and carry on.  A cache file
            # must never be able to take the store down.
            self.stats().extra["disk_errors"] += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # ------------------------------------------------------------------
    # MapCache protocol, extended with the disk tier
    # ------------------------------------------------------------------

    def get(self, key: bytes, op: str = "?", copy: bool = True):
        stats = self.stats()
        eviction_misses_before = stats.eviction_misses
        value = super().get(key, op, copy=copy)
        if value is not None or self.cache_dir is None:
            return value
        value = self._read_entry(key)
        if value is None:
            return None
        # Disk hit: promote into memory (no re-spill) and repair the
        # counters — super().get already recorded a miss (and, for a
        # memory-evicted key, an eviction miss) for this lookup.  Refresh
        # the file's mtime so the disk-budget LRU sees the reuse.
        if self.max_disk_bytes is not None:
            try:
                os.utime(self._path(key))
            except OSError:
                # Another process's budget enforcement unlinked the file
                # between our read and this refresh.  We already hold the
                # value, so the lookup stays a hit; the entry simply lives
                # on only in our memory tier from here.
                pass
        stats.extra["disk_hits"] += 1
        stats.misses -= 1
        stats.by_op[op]["misses"] -= 1
        stats.eviction_misses = eviction_misses_before
        stats._count(op, hit=True)
        # The unpickled object is exclusively ours: store it by reference
        # and only copy toward the caller when asked to.
        super().put(key, value, op, copy=False)
        return copy_value(value) if copy else value

    def put(self, key: bytes, value, op: str = "?", copy: bool = True) -> None:
        super().put(key, value, op, copy=copy)
        if self.cache_dir is not None and self.write_through:
            self._write_entry(key, value, self.cache_dir)

    # ------------------------------------------------------------------
    # Whole-store persistence
    # ------------------------------------------------------------------

    def save(self, cache_dir: str | os.PathLike | None = None) -> int:
        """Spill every in-memory entry; returns the number written."""
        base = pathlib.Path(cache_dir) if cache_dir is not None else self.cache_dir
        if base is None:
            raise ValueError("no cache_dir configured and none given to save()")
        written = 0
        for key, value in self._entries.items():
            self._write_entry(key, value, base)
            written += 1
        return written

    def load(self, cache_dir: str | os.PathLike | None = None) -> int:
        """Bulk-load every spilled entry into memory; returns the count.

        Lazy per-key probing (see :meth:`get`) makes this optional for
        correctness — it exists for benchmarks that want a fully warm
        store up front.  Unreadable files are skipped (``disk_errors``).
        """
        base = pathlib.Path(cache_dir) if cache_dir is not None else self.cache_dir
        if base is None:
            raise ValueError("no cache_dir configured and none given to load()")
        loaded = 0
        if not base.is_dir():
            return loaded
        for path in sorted(base.glob(f"*{_SUFFIX}")):
            try:
                key = bytes.fromhex(path.stem)
            except ValueError:
                # Not one of our spill files: count it, leave it alone.
                self.stats().extra["disk_errors"] += 1
                continue
            try:
                with open(path, "rb") as fh:
                    value = pickle.load(fh)
            except Exception:
                self.stats().extra["disk_errors"] += 1
                try:
                    path.unlink()  # same contract as the lazy probe
                except OSError:
                    pass
                continue
            MapCache.put(self, key, value)  # no re-spill of what disk already has
            loaded += 1
        return loaded
