"""Engine equivalence properties: memoizing must never change a result.

*Batched == sequential, bit-identical.*  For any batch of requests, every
engine configuration — any scheduling policy, and each trace-store
configuration: a private store, a store shared with a sibling engine, a
disk-backed store read back by a fresh process-like store, and a
one-entry store that rebuilds almost every trace — produces per-request
``PerfReport``s exactly equal (dataclass equality, every float) to cold
sequential ``PointAccModel`` runs.

The properties enumerate seeded batches: the benchmark registry is the
input space, and the clouds inside are already randomized per seed.
"""

import numpy as np
import pytest

from repro.engine import SimRequest, SimulationEngine, TraceStore, run_cold


def _mixed_batch(seed: int) -> list[SimRequest]:
    """A small mixed batch with duplicates, derived from one seed."""
    rng = np.random.default_rng(seed)
    pool = ["PointNet++(c)", "DGCNN", "PointNet"]
    requests = [
        SimRequest(
            benchmark=pool[int(rng.integers(len(pool)))],
            scale=0.1,
            seed=int(rng.integers(3)),
            priority=int(rng.integers(3)),
        )
        for _ in range(5)
    ]
    requests.append(requests[0])  # force at least one exact repeat
    return requests


def _engines(config: str, policy: str, tmp_path):
    """The engines that serve the batch, in order, for one store config.

    ``shared`` and ``disk`` serve it twice: a second engine then finds
    every trace already built, in the shared object or on disk.
    """
    def engine(store):
        return SimulationEngine(backends=("pointacc",), policy=policy,
                                store=store)

    if config == "private":
        return [engine(None)]
    if config == "one-entry":
        return [engine(TraceStore(max_entries=1))]
    if config == "shared":
        store = TraceStore()
        return [engine(store), engine(store)]
    return [engine(TraceStore(cache_dir=tmp_path)),
            engine(TraceStore(cache_dir=tmp_path))]


@pytest.mark.parametrize("batch_seed", [0, 1])
@pytest.mark.parametrize(
    "policy,config",
    [
        # The first three ids keep the names of the earlier
        # (map_cache, reuse_traces) matrix they replace: the default
        # memos, the arm that rebuilt every trace, and the trace memo
        # alone.
        pytest.param("fifo", "private", id="fifo-auto-True"),
        pytest.param("bucketed", "one-entry", id="bucketed-auto-False"),
        pytest.param("priority", "shared", id="priority-None-True"),
        pytest.param("fifo", "disk", id="fifo-disk"),
    ],
)
def test_engine_bit_identical_to_sequential(batch_seed, policy, config,
                                            tmp_path):
    batch = _mixed_batch(batch_seed)
    sequential = [run_cold(r, backends=("pointacc",)) for r in batch]
    for served, engine in enumerate(_engines(config, policy, tmp_path)):
        results = engine.run_batch(batch)
        assert len(results) == len(batch)
        if served:  # the second engine builds nothing
            assert all(r.trace_reused for r in results)
        for cold, hot in zip(sequential, results):
            assert hot.request == cold.request
            # Dataclass equality covers every field of every LayerRecord —
            # seconds, cycles, DRAM bytes, the full energy ledger, details.
            assert hot.reports["pointacc"] == cold.reports["pointacc"]


def test_cache_hit_and_miss_reports_identical():
    """Serving the same batch twice (cold caches vs fully warm) must agree."""
    batch = _mixed_batch(2)
    engine = SimulationEngine(backends=("pointacc",), policy="bucketed")
    first = engine.run_batch(batch)
    second = engine.run_batch(batch)  # all hits this time
    assert all(r.trace_reused for r in second)
    for a, b in zip(first, second):
        assert a.reports["pointacc"] == b.reports["pointacc"]


def test_sparseconv_requests_equivalent_through_engine():
    """SparseConv traces (MinkNet) are covered too, reused and rebuilt."""
    batch = [SimRequest("MinkNet(i)", scale=0.08, seed=s % 2) for s in range(3)]
    sequential = [run_cold(r, backends=("pointacc",)) for r in batch]
    for store in (TraceStore(), TraceStore(max_entries=1)):
        engine = SimulationEngine(backends=("pointacc",), store=store)
        for cold, hot in zip(sequential, engine.run_batch(batch)):
            assert hot.reports["pointacc"] == cold.reports["pointacc"]
