"""Performance reports: per-layer records and paper-style breakdowns.

Latency is attributed to the paper's three categories (Fig. 6 / Fig. 21a):
``mapping`` (MPU time), ``matmul`` (array compute time) and ``movement``
(memory stalls not hidden behind compute, plus explicit gather/scatter on
platforms that have them).  Energy is a :class:`~repro.core.energy.
EnergyLedger` (compute / SRAM / DRAM — Fig. 21b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .energy import EnergyLedger

__all__ = ["LayerRecord", "PerfReport", "CATEGORIES"]

CATEGORIES = ("mapping", "matmul", "movement", "other")


@dataclass
class LayerRecord:
    """One executed op (or fused group)."""

    name: str
    kind: str
    seconds: float
    category_seconds: dict[str, float]
    cycles: float = 0.0
    macs: int = 0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    energy: EnergyLedger = field(default_factory=EnergyLedger)
    detail: dict = field(default_factory=dict)

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


@dataclass
class PerfReport:
    """Aggregate execution report of one network on one platform model."""

    platform: str
    network: str
    records: list[LayerRecord] = field(default_factory=list)

    def add(self, record: LayerRecord) -> None:
        unknown = set(record.category_seconds) - set(CATEGORIES)
        if unknown:
            raise ValueError(f"unknown latency categories: {unknown}")
        self.records.append(record)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.records)

    @property
    def dram_bytes(self) -> float:
        return sum(r.dram_bytes for r in self.records)

    @property
    def energy(self) -> EnergyLedger:
        total = EnergyLedger()
        for r in self.records:
            total.add(r.energy)
        return total

    @property
    def energy_joules(self) -> float:
        return self.energy.total_joules

    def latency_breakdown(self) -> dict[str, float]:
        """Seconds per category (mapping / matmul / movement / other)."""
        out = {c: 0.0 for c in CATEGORIES}
        for r in self.records:
            for cat, sec in r.category_seconds.items():
                out[cat] += sec
        return out

    def latency_fractions(self) -> dict[str, float]:
        total = self.total_seconds
        if total <= 0:
            return {c: 0.0 for c in CATEGORIES}
        return {c: s / total for c, s in self.latency_breakdown().items()}

    def fps(self) -> float:
        total = self.total_seconds
        return 1.0 / total if total > 0 else float("inf")

    def summary(self) -> dict:
        return {
            "platform": self.platform,
            "network": self.network,
            "latency_ms": self.total_seconds * 1e3,
            "energy_mj": self.energy_joules * 1e3,
            "dram_mb": self.dram_bytes / 1e6,
            "macs_g": self.total_macs / 1e9,
            "breakdown": self.latency_fractions(),
        }
