"""The six-stage MPU pipeline (paper Fig. 7): FS-CD-ST-BF-MS-DI.

This module models the *pipeline structure* itself — the stage graph and
its three configurations (which forwarding loops are active) — one level
above the kernel math in ``bitonic.py`` / ``merge_stream.py`` / ``topk.py``:

* **kernel mapping** (red path): FS -> MS -> DI; the ST/BF stages pass
  through because both clouds arrive pre-sorted.
* **k-nearest-neighbors / ball query** (green path): FS -> CD -> ST -> BF
  <-> MS, with the MS->BF forwarding loop realizing the iterative merge
  tree of arbitrary-length Sort/TopK.
* **farthest point sampling** (blue path): FS <-> CD <-> ST, with the
  distance-update and running-arg-max forwarding loops.

:class:`MPUPipeline` executes an operation stage by stage, recording a
:class:`StageTrace` of per-stage element counts and loop activations, and
verifies the result against the reference algorithms.  Tests use it to pin
the pipeline wiring (which stages run, which loops fire) to the paper's
description.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...mapping.fps import (
    coordinate_columns,
    farthest_point_sampling,
    squared_distances_to,
)
from ...mapping.knn import knn_indices
from ...pointcloud.coords import coords_to_keys, pairwise_squared_distance
from .comparator import ComparatorArray
from .intersection import detect_intersections
from .merge_stream import StreamingMerger
from .topk import mpu_topk

__all__ = ["STAGES", "StageTrace", "MPUPipeline"]

STAGES = ("FS", "CD", "ST", "BF", "MS", "DI")


@dataclass
class StageTrace:
    """Per-stage activity of one MPU operation."""

    elements: dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in STAGES}
    )
    loops: set = field(default_factory=set)  # active forwarding loops

    def touch(self, stage: str, n: int) -> None:
        if stage not in self.elements:
            raise ValueError(f"unknown stage {stage!r}")
        self.elements[stage] += n

    def active_stages(self) -> list[str]:
        return [s for s in STAGES if self.elements[s] > 0]


class MPUPipeline:
    """Stage-level functional walkthrough of the MPU."""

    def __init__(self, width: int = 64, lanes: int = 16) -> None:
        self.width = width
        self.lanes = lanes
        self.merger = StreamingMerger(width)

    # ------------------------------------------------------------------
    # Kernel mapping: FS -> (MS + DI), per offset
    # ------------------------------------------------------------------

    def kernel_mapping(
        self,
        in_coords: np.ndarray,
        out_coords: np.ndarray,
        offsets: np.ndarray,
    ) -> tuple[list[tuple[int, int, int]], StageTrace]:
        """Shift-merge-intersect per offset (Fig. 9), stage by stage."""
        trace = StageTrace()
        in_coords = np.asarray(in_coords, dtype=np.int64)
        out_coords = np.asarray(out_coords, dtype=np.int64)
        out_keys = coords_to_keys(out_coords)
        out_order = np.argsort(out_keys, kind="stable")
        maps: list[tuple[int, int, int]] = []
        for w_idx, delta in enumerate(np.asarray(offsets, dtype=np.int64)):
            # FS: fetch both clouds' ComparatorStructs.  The payload's low
            # bit carries the cloud tag (input=0 / output=1), exactly the
            # side flag the intersection detector consumes.
            shifted = in_coords - delta[None, :]
            shifted_keys = coords_to_keys(shifted)
            in_order = np.argsort(shifted_keys, kind="stable")
            trace.touch("FS", len(in_coords) + len(out_coords))
            a = ComparatorArray(shifted_keys[in_order], in_order * 2)
            b = ComparatorArray(out_keys[out_order], out_order * 2 + 1)
            # MS: streaming merge of the two sorted clouds.
            merged, _ = self.merger.merge(a, b)
            trace.touch("MS", len(merged))
            # DI: adjacent-equality detection on the merged stream.
            side = (merged.payloads % 2).astype(bool)
            payloads = merged.payloads // 2
            ins, outs, _ = detect_intersections(
                merged.keys, payloads, side, self.width
            )
            trace.touch("DI", len(merged))
            maps.extend(
                (int(i), int(o), w_idx) for i, o in zip(ins, outs)
            )
        trace.loops.add("none")
        return maps, trace

    # ------------------------------------------------------------------
    # kNN: FS -> CD -> ST -> BF <-> MS
    # ------------------------------------------------------------------

    def knn(
        self, queries: np.ndarray, references: np.ndarray, k: int
    ) -> tuple[np.ndarray, StageTrace]:
        trace = StageTrace()
        n_ref = len(references)
        result = np.empty((len(queries), min(k, n_ref)), dtype=np.int64)
        # The one-GEMM distance matrix knn_indices' answer is defined on,
        # so every distance is bit-equal to the reference's.  Each key is
        # the exact distance's rank among all distances, then the index:
        # ties break by index, and no two distinct distances share a key.
        sq = pairwise_squared_distance(
            np.asarray(queries, dtype=np.float64),
            np.asarray(references, dtype=np.float64),
        )
        _, rank = np.unique(sq.ravel(), return_inverse=True)
        keys = rank.reshape(sq.shape) * n_ref + np.arange(n_ref)
        for qi in range(len(queries)):
            trace.touch("FS", n_ref)
            trace.touch("CD", n_ref)
            trace.touch("ST", n_ref)
            topk, _ = mpu_topk(ComparatorArray.from_keys(keys[qi]), k,
                               self.width)
            trace.touch("BF", n_ref)
            trace.touch("MS", n_ref)
            result[qi] = topk.payloads[: result.shape[1]]
        trace.loops.add("MS->BF")
        return result, trace

    # ------------------------------------------------------------------
    # FPS: FS <-> CD <-> ST
    # ------------------------------------------------------------------

    def fps(
        self, points: np.ndarray, n_samples: int
    ) -> tuple[np.ndarray, StageTrace]:
        trace = StageTrace()
        points = np.asarray(points, dtype=np.float64)
        n = len(points)
        n_samples = min(n_samples, n)
        selected = np.empty(n_samples, dtype=np.int64)
        selected[0] = 0
        # The reference's distance update, so equidistant points tie the
        # same way (a GEMM-expanded seed row breaks ties differently).
        columns = coordinate_columns(points)
        scratch, sq = np.empty(n), np.empty(n)
        min_sq = squared_distances_to(columns, 0, np.empty(n), scratch)
        trace.touch("FS", n)
        trace.touch("CD", n)
        for t in range(1, n_samples):
            # ST: running arg-max over the maintained distances.
            trace.touch("ST", n)
            nxt = int(np.argmax(min_sq))
            selected[t] = nxt
            # CD: distance update against the new output point, forwarded
            # back through FS (the blue loop).
            np.minimum(min_sq, squared_distances_to(columns, nxt, sq, scratch),
                       out=min_sq)
            trace.touch("CD", n)
            trace.touch("FS", n)
        trace.loops.add("CD->FS")
        trace.loops.add("ST->CD")
        return selected, trace

    # ------------------------------------------------------------------
    # Reference checks
    # ------------------------------------------------------------------

    def verify_knn(self, queries, references, k) -> bool:
        got, _ = self.knn(queries, references, k)
        ref = knn_indices(queries, references, k)
        return np.array_equal(got, ref[:, : got.shape[1]])

    def verify_fps(self, points, n_samples) -> bool:
        got, _ = self.fps(points, n_samples)
        return np.array_equal(got, farthest_point_sampling(points, n_samples))
