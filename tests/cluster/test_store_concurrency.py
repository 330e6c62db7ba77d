"""Multi-process hammering of one shared cache directory.

This is the safety net under worker-mode serving: N real OS processes
share one ``TraceStore`` cache directory — overlapping keys, tight
memory bounds (so disk re-probes happen constantly), a tight disk budget
(so eviction races happen constantly), corrupt spill files injected by
the parent, and writers killed between ``open`` and ``os.replace``.

The invariants, verified from inside every process:

* a served trace is always *correct* — a corrupt or truncated spill is
  only ever a counted ``disk_errors`` miss, never a wrong trace;
* a file vanishing underneath a read/refresh (another process's budget
  enforcement) is a plain miss or a kept hit, never an exception;
* per-store counters stay internally consistent under any interleaving;
* mid-write-kill temp debris is swept, never accumulated.
"""

import multiprocessing
import os
import random

import numpy as np
import pytest

from repro.engine import TraceStore
from repro.engine.trace_store import _TMP_MARKER, trace_key
from repro.mapping import MapTable
from repro.nn.trace import LayerKind, LayerSpec, Trace

N_WORKERS = 4
N_KEYS = 12
N_ROUNDS = 50
DISK_BUDGET = 8 * 1024  # ~12 traces of ~630 B: rescans and evictions galore

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def _key(i: int) -> tuple:
    return ("net", 0.1, i)


def _name(i: int) -> str:
    return trace_key(_key(i)).hex() + ".trace"


def _value(i: int) -> Trace:
    """A one-layer trace that pickles to ~630 B."""
    maps = MapTable(np.full(4, i), np.arange(4), np.zeros(4, np.int64), 1)
    trace = Trace(name=f"t{i}")
    trace.record(LayerSpec(name="conv", kind=LayerKind.SPARSE_CONV, n_in=4,
                           n_out=4, rows=4, n_maps=4, params={"maps": maps}))
    return trace


def _matches(trace, i: int) -> bool:
    maps = trace.specs[0].params["maps"]
    return trace.name == f"t{i}" and np.array_equal(maps.in_idx, np.full(4, i))


def _hammer(cache_dir, worker_idx, corrupt_key, max_disk_bytes, conn):
    """One worker: verify the pre-corrupted key is a counted error, then
    hammer overlapping keys, checking every served trace.  Exit codes:
    0 ok, 2 corrupt-probe contract broken, 3 wrong trace served."""
    store = TraceStore(
        max_entries=4,  # tiny memory tier: almost every get re-probes disk
        cache_dir=cache_dir,
        max_disk_bytes=max_disk_bytes,
    )
    # The parent planted a corrupt spill under this worker's private key:
    # it must come back as a miss, counted in disk_errors, never raise.
    if store.get(corrupt_key) is not None or store.disk_errors != 1:
        conn.send(("corrupt-probe", None))
        os._exit(2)
    rng = random.Random(worker_idx)
    for _ in range(N_ROUNDS):
        i = rng.randrange(N_KEYS)
        served = store.get(_key(i))
        if served is None:
            store.put(_key(i), _value(i))
        elif not _matches(served, i):
            conn.send(("wrong-value", i))
            os._exit(3)
    conn.send(("ok", store.snapshot()))
    os._exit(0)


def _die_mid_write(cache_dir, conn):
    """A writer killed between open() and os.replace(): patch the rename
    away and exit hard, leaving a pid-suffixed temp orphan behind."""
    store = TraceStore(cache_dir=cache_dir)
    import repro.engine.trace_store as store_mod

    def killed(*args, **kwargs):
        conn.send(os.getpid())
        os._exit(0)  # the "SIGKILL" lands here, temp file still on disk

    store_mod.os.replace = killed
    store.put(_key(0), _value(0))
    os._exit(4)  # unreachable unless the write path stopped using os.replace


@pytest.mark.parametrize("budgeted", [True, False], ids=["budget", "unbounded"])
def test_concurrent_hammer_never_serves_corrupt_values(tmp_path, budgeted):
    cache_dir = tmp_path / "shared"
    cache_dir.mkdir()
    # One corrupt spill per worker (truncated pickle), plus two shared
    # corrupt keys inside the hammer range that whichever worker probes
    # first will delete-and-recompute.
    corrupt_keys = [_key(N_KEYS + w) for w in range(N_WORKERS)]
    for w in range(N_WORKERS):
        (cache_dir / _name(N_KEYS + w)).write_bytes(b"\x80\x05partial")
    for i in (0, 1):
        (cache_dir / _name(i)).write_bytes(b"not a pickle")

    workers, conns = [], []
    for w in range(N_WORKERS):
        parent_conn, child_conn = _CTX.Pipe(duplex=False)
        proc = _CTX.Process(
            target=_hammer,
            args=(cache_dir, w, corrupt_keys[w],
                  DISK_BUDGET if budgeted else None, child_conn),
        )
        proc.start()
        child_conn.close()
        workers.append(proc)
        conns.append(parent_conn)

    replies = [conn.recv() for conn in conns]
    for proc in workers:
        proc.join(timeout=60)
    assert [proc.exitcode for proc in workers] == [0] * N_WORKERS, replies

    snapshots = [payload for kind, payload in replies if kind == "ok"]
    assert len(snapshots) == N_WORKERS
    for snap in snapshots:
        # Internal consistency under any interleaving.
        assert snap["lookups"] == snap["hits"] + snap["misses"]
        assert snap["disk_hits"] <= snap["hits"]
        assert snap["disk_errors"] >= 1  # at least the planted private key
        assert snap["disk_evictions"] >= 0
    # The planted corrupt files were all discovered (and deleted), whether
    # by the private probe or the shared-key hammering.
    assert sum(s["disk_errors"] for s in snapshots) >= N_WORKERS
    # Every spill that survived the melee unpickles to the right trace.
    survivor = TraceStore(cache_dir=cache_dir)
    served = 0
    for i in range(N_KEYS):
        value = survivor.get(_key(i))
        if value is not None:
            assert _matches(value, i)
            served += 1
    assert survivor.disk_errors == 0
    assert served > 0  # the directory is not empty after 4x50 rounds


def test_mid_write_kill_leaves_sweepable_debris_only(tmp_path):
    cache_dir = tmp_path / "shared"
    parent_conn, child_conn = _CTX.Pipe(duplex=False)
    proc = _CTX.Process(target=_die_mid_write, args=(cache_dir, child_conn))
    proc.start()
    child_conn.close()
    dead_pid = parent_conn.recv()
    proc.join(timeout=60)
    assert proc.exitcode == 0
    debris = [p.name for p in cache_dir.iterdir() if _TMP_MARKER in p.name]
    assert debris == [_name(0) + f".tmp{dead_pid}"]
    # No committed entry: the kill landed before the atomic rename.
    assert not list(cache_dir.glob("*.trace"))
    # A fresh store on the same directory sweeps the dead writer's orphan
    # at construction and serves normally afterwards.
    store = TraceStore(cache_dir=cache_dir)
    assert not [p for p in cache_dir.iterdir() if _TMP_MARKER in p.name]
    assert store.get(_key(0)) is None  # plain miss, not an error
    assert store.disk_errors == 0
    store.put(_key(0), _value(0))
    assert _matches(TraceStore(cache_dir=cache_dir).get(_key(0)), 0)


def test_concurrent_budget_enforcement_stays_consistent(tmp_path):
    """Two stores, one directory, a budget small enough that every write
    triggers enforcement: whatever interleaving happens, reads stay
    exception-free and the directory ends within budget once quiescent."""
    cache_dir = tmp_path / "shared"
    a = TraceStore(cache_dir=cache_dir, max_disk_bytes=2048)
    b = TraceStore(cache_dir=cache_dir, max_disk_bytes=2048)
    for round_idx in range(20):
        i = round_idx % 6
        a.put(_key(i), _value(i))
        value = b.get(_key(i))
        if value is not None:
            assert _matches(value, i)
        b.put(_key(i + 1), _value(i + 1))
    total = sum(p.stat().st_size for p in cache_dir.glob("*.trace"))
    assert total <= 2048
    assert a.disk_evictions + b.disk_evictions > 0
