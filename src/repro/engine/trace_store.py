"""The engine's one memo: whole traces keyed by workload, with their reports.

PointAcc's MPU computes a cloud's maps once and the MMU reuses them
across the layers of that network (paper Sections 4.1–4.2); nothing
reuses maps across input clouds.  The engine's unit of reuse is therefore
the whole trace of one workload key ``(benchmark, scale, seed)``: a
:class:`TraceStore` memoizes recorded traces under that key, and a hit
skips the whole trace build.  Mapping ops themselves always compute.

Memory tier
    A bounded LRU: ``max_entries`` traces and ``max_bytes`` of map-table
    payload (a trace's size is the size of its :class:`MapTable`\\ s;
    the most recent entry always stays, whatever its size).  Traces are
    stored and returned by reference — traces and reports are treated as
    immutable everywhere in this library.  Each resident trace carries
    the reports computed from it (:meth:`TraceStore.reports`), so one
    bound covers both: evicting a trace evicts its reports, and engines
    sharing a store share them.  Reports are never spilled; a trace
    promoted from disk starts with none.

Disk tier
    Optional (``cache_dir``).  One file per trace, ``<digest>.trace``,
    written through on every :meth:`TraceStore.put` and probed lazily on
    a memory miss, so a fresh store — another process, a later CLI
    invocation — warm-starts from whatever earlier stores spilled.
    Writes are atomic (``os.replace`` of a pid-suffixed temp file).  A
    failed write (disk full) removes its temp file, counts a
    ``disk_errors``, and the trace keeps being served from memory.  A
    corrupt or truncated file is a counted miss and is deleted, so the
    rebuild rewrites the slot.  A file that vanishes underneath a read
    (another process's budget enforcement) is a plain miss.  With
    ``max_disk_bytes`` the directory is brought back under budget after
    each spill by deleting least-recently-used files (disk hits refresh
    a file's mtime, so recency survives across processes).  Temp files
    orphaned by a writer killed mid-write are swept on construction and
    during budget rescans (dead owner pid, or older than
    ``_TMP_MAX_AGE_S``).

Key
    A BLAKE2b digest over :func:`code_version` plus ``repr`` of the
    workload key.  The version digest covers every ``.py`` file of the
    imported ``repro`` package and ``numpy.__version__``, so a spilled
    trace never outlives the code that built it.  ``geometry_only`` stays
    out of the key: a geometry-only build and a full build of one
    workload record equal traces (property-enforced).

Every eviction (``memory`` or ``disk``) is reported to the active
:class:`~repro.obs.ledger.RecomputeLedger`, tagged with the frame whose
build caused it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pathlib
import pickle
import time
from collections import OrderedDict

import numpy as np

from ..mapping.maps import MapTable
from ..obs.ledger import current_ledger

__all__ = ["TraceStore", "code_version", "trace_key"]

_SUFFIX = ".trace"
_TMP_MARKER = _SUFFIX + ".tmp"
#: Age beyond which an orphaned ``.trace.tmp<pid>`` file is swept even
#: when its owner pid appears alive (pid reuse protection): no healthy
#: write holds a temp file for an hour.
_TMP_MAX_AGE_S = 3600.0


@functools.cache
def code_version() -> bytes:
    """Digest of every ``.py`` file of the imported ``repro`` package plus
    ``numpy.__version__``; computed once per process."""
    root = pathlib.Path(__file__).resolve().parent.parent
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    h.update(np.__version__.encode())
    return h.digest()


def trace_key(workload_key) -> bytes:
    """The store key of one workload: versioned, so stale spills miss."""
    h = hashlib.blake2b(code_version(), digest_size=16)
    h.update(repr(workload_key).encode())
    return h.digest()


def trace_bytes(trace) -> int:
    """Payload of a trace: the index arrays of its distinct map tables."""
    tables = {}
    for spec in trace.specs:
        maps = spec.params.get("maps")
        if isinstance(maps, MapTable):
            tables[id(maps)] = maps
    return sum(t.in_idx.nbytes + t.out_idx.nbytes + t.weight_idx.nbytes
               for t in tables.values())


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


class TraceStore:
    """Bounded LRU of traces by workload key, with an optional disk tier.

    Parameters
    ----------
    max_entries / max_bytes:
        In-memory bounds: trace count and map-table bytes.  A trace's
        reports live and die with it.
    cache_dir:
        Spill directory, or ``None`` for a memory-only store.  Created on
        first write.
    max_disk_bytes:
        Byte budget for the spill directory, or ``None`` (default) for
        unbounded growth.  Enforced strictly after every write: a trace
        larger than the whole budget is itself dropped from disk (it
        stays served from memory).
    """

    def __init__(
        self,
        max_entries: int = 4096,
        max_bytes: int = 256 * 1024 * 1024,
        cache_dir: str | os.PathLike | None = None,
        max_disk_bytes: int | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError(
                f"max_disk_bytes must be >= 1 or None, got {max_disk_bytes}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir is not None else None
        self.max_disk_bytes = max_disk_bytes
        # key -> (trace, map-table bytes, {backend name: report})
        self._entries: OrderedDict[bytes, tuple] = OrderedDict()
        self.stored_bytes = 0
        self.hits = self.misses = self.evictions = 0
        self.disk_hits = self.disk_errors = self.disk_evictions = 0
        # Running estimate of the spill payload; None until the first
        # ground-truth scan, so budgeted stores do not re-scan the
        # directory on every write (see _enforce_disk_budget).
        self._disk_bytes_estimate: int | None = None
        if self.cache_dir is not None:
            self._sweep_stale_tmp()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": lookups,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "entries": len(self._entries),
            "evictions": self.evictions,
            "stored_mb": self.stored_bytes / 1e6,
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
            "disk_evictions": self.disk_evictions,
            "persistent": self.cache_dir is not None,
        }

    # ------------------------------------------------------------------
    # Lookup and insert
    # ------------------------------------------------------------------

    def get(self, workload_key):
        """The stored trace of ``workload_key``, or ``None`` (counted)."""
        key = trace_key(workload_key)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]
        trace = self._read_entry(key) if self.cache_dir is not None else None
        if trace is None:
            self.misses += 1
            return None
        self.hits += 1
        self.disk_hits += 1
        self._remember(key, trace)  # promote; disk already has it
        return trace

    def reports(self, workload_key) -> dict | None:
        """The report memo of a resident trace: a dict of reports by
        backend name, which the caller reads and fills.  ``None`` when
        the trace is not in memory.  Neither counted nor a use: the LRU
        order and the hit counters follow :meth:`get` and :meth:`put`
        only."""
        entry = self._entries.get(trace_key(workload_key))
        return entry[2] if entry is not None else None

    def put(self, workload_key, trace) -> None:
        """Store ``trace`` by reference, spilling it when disk-backed."""
        key = trace_key(workload_key)
        self._remember(key, trace)
        if self.cache_dir is not None:
            self._write_entry(key, trace)

    def _remember(self, key: bytes, trace) -> None:
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.stored_bytes -= previous[1]
        nbytes = trace_bytes(trace)
        self._entries[key] = (trace, nbytes, {})
        self.stored_bytes += nbytes
        while len(self._entries) > self.max_entries or (
            self.stored_bytes > self.max_bytes and len(self._entries) > 1
        ):
            dropped, (_, size, _) = self._entries.popitem(last=False)
            self.stored_bytes -= size
            self.evictions += 1
            ledger = current_ledger()
            if ledger is not None:
                ledger.eviction("memory", dropped.hex(), size)

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------

    def _path(self, key: bytes) -> pathlib.Path:
        return self.cache_dir / (key.hex() + _SUFFIX)

    def _sweep_stale_tmp(self) -> None:
        """Unlink ``<digest>.trace.tmp<pid>`` orphans from dead writers.

        A process killed between ``open`` and ``os.replace`` leaves its
        temp file behind forever: invisible to the ``*.trace``-filtered
        budget scan and never reused (temp names are pid-suffixed).  A
        temp file is debris iff its owner pid is gone, or it is old
        enough (:data:`_TMP_MAX_AGE_S`) that the pid must have been
        recycled.  Live writers (this process included) are never
        touched.
        """
        try:
            with os.scandir(self.cache_dir) as it:
                candidates = [d.name for d in it if _TMP_MARKER in d.name]
        except OSError:
            return
        now = time.time()
        for name in candidates:
            try:
                pid = int(name.rsplit(_TMP_MARKER, 1)[-1])
            except ValueError:
                continue  # not one of our temp files
            if pid == os.getpid():
                continue
            if _pid_alive(pid):
                try:
                    age = now - (self.cache_dir / name).stat().st_mtime
                except OSError:
                    continue  # vanished (owner finished or another sweep won)
                if age < _TMP_MAX_AGE_S:
                    continue
            try:
                os.unlink(self.cache_dir / name)
            except OSError:
                pass

    def _write_entry(self, key: bytes, trace) -> None:
        path = self._path(key)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            replaced = 0
            if self.max_disk_bytes is not None:
                # An overwrite reuses the file via os.replace: without the
                # prior size, the running estimate would add the full size
                # on every put of one key and drift upward forever.
                try:
                    replaced = path.stat().st_size
                except OSError:
                    replaced = 0
            with open(tmp, "wb") as fh:
                pickle.dump(trace, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: a reader never sees a partial file
        except OSError:
            # Disk full, read-only directory: the spill is lost, the trace
            # is not.  Leave no temp file behind and keep serving from
            # memory, as the read path does.
            self.disk_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self._enforce_disk_budget(path, replaced)

    def _enforce_disk_budget(self, wrote: pathlib.Path, replaced: int) -> None:
        """Delete LRU spill files until the directory fits the budget.

        Recency is file mtime (writes stamp it, disk hits refresh it), so
        the order holds across store instances and processes sharing one
        directory; ties break on name.  The directory is re-scanned only
        when the running estimate crosses the budget: the estimate adds
        each write's net growth and never shrinks on its own (other
        processes' writes are invisible until a rescan).  Rescans also
        sweep orphaned temp files.
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
        self._sweep_stale_tmp()
        entries = []
        try:
            with os.scandir(self.cache_dir) as it:
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
        for _, name, size in sorted(entries):
            if total <= self.max_disk_bytes:
                return
            try:
                os.unlink(self.cache_dir / name)
            except OSError:
                continue
            self.disk_evictions += 1
            ledger = current_ledger()
            if ledger is not None:
                ledger.eviction("disk", name[: -len(_SUFFIX)], size)
            total -= size
            self._disk_bytes_estimate = total

    def _read_entry(self, key: bytes):
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                trace = pickle.load(fh)
        except FileNotFoundError:
            # Never spilled, or spilled and since evicted by another
            # process sharing this directory: a plain miss either way.
            return None
        except Exception:
            # Corrupt or truncated spill: count it and delete it, so the
            # rebuild this miss triggers rewrites the slot.  A cache file
            # must never be able to take the store down.
            self.disk_errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if self.max_disk_bytes is not None:
            # Refresh recency for the disk-budget LRU.  Another process's
            # budget enforcement may have unlinked the file since the
            # read; the trace is already ours, so the lookup stays a hit.
            try:
                os.utime(path)
            except OSError:
                pass
        return trace
