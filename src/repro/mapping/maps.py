"""Map structures: the (input, output, weight) tuples driving point-cloud conv.

Paper Section 2: "map is a tuple (p_j, q_k, w_n)"; point cloud convolution
iterates over all maps and performs multiply-accumulate accordingly.  All
mapping operations in this library — reference or hardware-modelled — produce
a :class:`MapTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MapTable", "copy_value"]


@dataclass
class MapTable:
    """A set of maps ``{(in_idx, out_idx, weight_idx)}``.

    ``in_idx`` indexes the input cloud, ``out_idx`` the output cloud and
    ``weight_idx`` the kernel weight (offset index for SparseConv, neighbor
    rank for PointNet++-style convs).  ``kernel_volume`` is the number of
    distinct weight indices the op can produce (27 for a 3^3 SparseConv,
    ``k`` for kNN), needed by cost models even when some weights get no maps.
    """

    in_idx: np.ndarray
    out_idx: np.ndarray
    weight_idx: np.ndarray
    kernel_volume: int

    def __post_init__(self) -> None:
        self.in_idx = np.asarray(self.in_idx, dtype=np.int64).ravel()
        self.out_idx = np.asarray(self.out_idx, dtype=np.int64).ravel()
        self.weight_idx = np.asarray(self.weight_idx, dtype=np.int64).ravel()
        if not (len(self.in_idx) == len(self.out_idx) == len(self.weight_idx)):
            raise ValueError("in/out/weight index arrays must have equal length")
        if self.kernel_volume < 1:
            raise ValueError(f"kernel_volume must be >= 1, got {self.kernel_volume}")
        self._sorted: dict = {}

    def __getstate__(self):
        # Keep trace-store spills (pickled traces carry their tables) free
        # of the sort memo and the MMU's cache-replay and miss-bound memos
        # (see mmu/cache.py): per-instance accelerations, not content.
        state = self.__dict__.copy()
        state["_sorted"] = {}
        state.pop("_cache_sims", None)
        state.pop("_group_blocks", None)
        return state

    @property
    def n_maps(self) -> int:
        return len(self.in_idx)

    def sorted_by(self, *, by: str = "weight") -> "MapTable":
        """Stable-sort maps by weight index ("gather by weight") or output.

        Memoized per instance: cost models replay the same table under
        several dataflow variants, and tables are immutable by the same
        convention every mapping consumer in this library relies on, so
        the lexsort only ever needs to run once per ordering.  A table
        already in order skips it: the result shares this table's arrays.
        Merge-sort kernel maps over clouds in key order are in weight
        order by construction, and ``kernel_map_mergesort`` says so
        (:meth:`mark_sorted`), which skips the order check too.
        """
        cached = self._sorted.get(by)
        if cached is not None:
            return cached
        if by == "weight":
            major, minor = self.weight_idx, self.out_idx
        elif by == "output":
            major, minor = self.out_idx, self.weight_idx
        else:
            raise ValueError(f"by must be 'weight' or 'output', got {by!r}")
        major_step = np.diff(major)
        if np.all((major_step > 0) | ((major_step == 0) & (np.diff(minor) >= 0))):
            # A stable sort of an ordered sequence is the identity.
            order = slice(None)
        else:
            order = np.lexsort((minor, major))
        table = MapTable(
            self.in_idx[order],
            self.out_idx[order],
            self.weight_idx[order],
            self.kernel_volume,
        )
        self._sorted[by] = table
        return table

    def mark_sorted(self) -> None:
        """Record that this table is already in weight order, so the
        first ``sorted_by(by="weight")`` skips its order check.

        Only for code that knows the order by construction.  The memo
        gets a separate table viewing the same arrays, as the checked
        path returns: a table memoized as itself would be a reference
        cycle, freed only by the garbage collector, and would keep its
        trace alive past the last reference.
        """
        self._sorted["weight"] = MapTable(
            self.in_idx, self.out_idx, self.weight_idx, self.kernel_volume
        )

    def per_weight(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Group maps by weight: ``[(weight_idx, in_idx, out_idx), ...]``.

        This is the "gather by weight" traversal order of the CPU/GPU
        implementation in paper Fig. 4.
        """
        table = self.sorted_by(by="weight")
        groups = []
        if table.n_maps == 0:
            return groups
        boundaries = np.flatnonzero(np.diff(table.weight_idx)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [table.n_maps]])
        for start, end in zip(starts, ends):
            groups.append(
                (
                    int(table.weight_idx[start]),
                    table.in_idx[start:end],
                    table.out_idx[start:end],
                )
            )
        return groups

    def as_set(self) -> set[tuple[int, int, int]]:
        """Order-insensitive representation for equality testing."""
        return set(
            zip(
                self.in_idx.tolist(),
                self.out_idx.tolist(),
                self.weight_idx.tolist(),
            )
        )

    def maps_per_output(self, n_out: int) -> np.ndarray:
        """Number of maps landing on each output point."""
        return np.bincount(self.out_idx, minlength=n_out)

    def maps_per_input(self, n_in: int) -> np.ndarray:
        """Number of maps reading each input point (feature reuse factor)."""
        return np.bincount(self.in_idx, minlength=n_in)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MapTable(n_maps={self.n_maps}, kernel_volume={self.kernel_volume})"


def copy_value(value):
    """Deep-copy a mapping result (ndarray, MapTable, or tuple of them)
    into arrays the caller owns."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, MapTable):
        return MapTable(
            value.in_idx.copy(),
            value.out_idx.copy(),
            value.weight_idx.copy(),
            value.kernel_volume,
        )
    if isinstance(value, tuple):
        return tuple(copy_value(v) for v in value)
    raise TypeError(f"not a mapping result: {type(value).__name__}")
