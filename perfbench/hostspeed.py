"""Host-speed probe: one fixed kernel, timed between frames.

The benchmark runs on shared virtual machines whose speed moves by a fifth
and more from one minute to the next, in CPU time as much as in wall time,
and a run of half a minute sits in one such spell.  The probe is a fixed
piece of work in the program's own mix (a sort-based neighbour search
over packed voxel keys, like kernel mapping, then BLAKE2b digests and dict
updates, like the tile front), timed once after every closed-loop step,
outside the timed serving calls.  Its median over the run says how fast
the host was while the program ran; every time metric is reported in
milliseconds of a reference host on which the probe takes
:data:`NOMINAL_MS`.  The probe is the benchmark's own code, so a change to
the program moves the scaled figures exactly as it moves the wall ones.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

#: The probe's time on the reference host; time metrics are scaled to it.
NOMINAL_MS = 20.0


class HostProbe:
    """Times the fixed kernel and keeps the samples of one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        shifts = np.array([1 << 42, 1 << 21, 1])
        self._keys = np.unique(rng.integers(0, 64, (60000, 3)) @ shifts)
        box = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        self._offsets = (box @ shifts)[:9]
        self._chunks = [rng.bytes(4096) for _ in range(100)]
        self.samples: list = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        keys = np.sort(self._keys)
        hits = 0
        for offset in self._offsets:
            query = keys + offset
            index = np.searchsorted(keys, query)
            index[index >= keys.size] = 0
            hits += int((keys[index] == query).sum())
        table: dict = {}
        for j, chunk in enumerate(self._chunks):
            table[hashlib.blake2b(chunk, digest_size=16).digest()] = j + hits
            for k in range(40):
                table[(j, k)] = table.get((j, k - 1), 0) + 1
        self.samples.append(time.perf_counter() - t0)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples) if self.samples else 0.0

    def slowdown(self) -> float:
        """How much slower than the reference host this run's host was:
        wall times divide by it, rates multiply by it."""
        median = self.median_ms()
        return median / NOMINAL_MS if median > 0 else 1.0
