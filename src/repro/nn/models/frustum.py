"""Frustum PointNet++ (Qi et al., CVPR 2018) — 3D detection on KITTI.

The full pipeline runs a 2D detector to propose view frustums, then per
frustum: instance segmentation (PointNet++), a T-Net centroid regressor and
an amodal box-estimation PointNet.  The 2D detector runs on the image
modality (outside the point-cloud accelerator's scope and outside the
paper's measurement); we substitute it with geometric frustum extraction
from the LiDAR cloud — azimuth wedges around detected-object directions —
which yields the same per-frustum point-cloud workload that PointAcc and the
baselines execute.
"""

from __future__ import annotations

import numpy as np

from ...pointcloud.cloud import PointCloud
from .. import functional as F
from ..layers import Linear, SharedMLP, new_param_rng
from ..pointnet_blocks import FeaturePropagation, GlobalSetAbstraction, SetAbstraction
from ..trace import LayerKind, LayerSpec, Trace

__all__ = ["extract_frustums", "FrustumPointNet2"]


def extract_frustums(
    points: np.ndarray,
    n_frustums: int = 4,
    fov_deg: float = 12.0,
    max_points: int = 1024,
    min_points: int = 32,
    seed: int = 0,
) -> list[np.ndarray]:
    """Cut azimuth wedges out of a LiDAR scan (the 2D-detector substitute).

    Wedge centers are the azimuths with most points (a crude objectness
    prior), deduplicated so wedges do not overlap.
    """
    rng = np.random.default_rng(seed)
    azimuth = np.arctan2(points[:, 1], points[:, 0])
    n_bins = 72
    hist, edges = np.histogram(azimuth, bins=n_bins, range=(-np.pi, np.pi))
    order = np.argsort(hist)[::-1]
    half_fov = np.deg2rad(fov_deg) / 2
    centers: list[float] = []
    for b in order:
        center = (edges[b] + edges[b + 1]) / 2
        if all(abs(np.angle(np.exp(1j * (center - c)))) > 2 * half_fov for c in centers):
            centers.append(center)
        if len(centers) == n_frustums:
            break
    frustums = []
    for center in centers:
        delta = np.angle(np.exp(1j * (azimuth - center)))
        mask = np.abs(delta) <= half_fov
        pts = points[mask]
        if len(pts) < min_points:
            continue
        if len(pts) > max_points:
            idx = rng.choice(len(pts), size=max_points, replace=False)
            pts = pts[idx]
        frustums.append(pts)
    return frustums


class FrustumPointNet2:
    """F-PointNet++: per-frustum segmentation + T-Net + box estimation."""

    notation = "F-PointNet++"
    nominal_points = 16384  # full-scan size; each frustum is <= 1024 points

    def __init__(
        self, n_box_params: int = 59, n_frustums: int = 4, seed: int = 0
    ) -> None:
        rng = new_param_rng(seed)
        self.n_frustums = n_frustums
        # Instance segmentation network (PointNet++ SSG, v2 config).
        self.sa1 = SetAbstraction(128, 0.2, 32, 0, [32, 32, 64], rng, name="seg.sa1")
        self.sa2 = SetAbstraction(32, 0.4, 32, 64, [64, 64, 128], rng, name="seg.sa2")
        self.sa3 = GlobalSetAbstraction(128, [128, 256, 512], rng, name="seg.sa3")
        self.fp2 = FeaturePropagation(512, 128, [128, 128], rng, name="seg.fp2")
        self.fp1 = FeaturePropagation(128, 64, [128, 128], rng, name="seg.fp1")
        self.fp0 = FeaturePropagation(128, 0, [128, 128], rng, name="seg.fp0")
        self.seg_head = SharedMLP(128, [128, 2], rng, final_relu=False,
                                  name="seg.head")
        # T-Net (centroid regression).
        self.tnet_mlp = SharedMLP(3, [128, 128, 256], rng, name="tnet.mlp")
        self.tnet_fc = SharedMLP(256, [256, 128], rng, name="tnet.fc")
        self.tnet_out = Linear(128, 3, rng, relu=False, bn=False, name="tnet.out")
        # Amodal box estimation PointNet.
        self.box_mlp = SharedMLP(3, [128, 128, 256, 512], rng, name="box.mlp")
        self.box_fc = SharedMLP(512, [512, 256], rng, name="box.fc")
        self.box_out = Linear(
            256, n_box_params, rng, relu=False, bn=False, name="box.out"
        )

    def _segment(self, pts: np.ndarray, trace: Trace | None) -> np.ndarray:
        n = len(pts)
        p1, f1 = self.sa1(pts, None, trace, max(4, min(128, n // 8)))
        p2, f2 = self.sa2(p1, f1, trace, max(4, min(32, n // 32)))
        g = self.sa3(p2, f2, trace)
        d2 = self.fp2(p2, f2, p2.mean(axis=0, keepdims=True), g[None, :], trace)
        d1 = self.fp1(p1, f1, p2, d2, trace)
        d0 = self.fp0(pts, None, p1, d1, trace)
        return self.seg_head(d0, trace)

    def _regress(
        self,
        pts: np.ndarray,
        mlp: SharedMLP,
        fc: SharedMLP,
        out: Linear,
        pool_name: str,
        trace: Trace | None,
    ) -> np.ndarray:
        h = mlp(pts, trace)
        g = F.global_max_pool(h)[None, :]
        if trace is not None:
            trace.record(
                LayerSpec(
                    name=pool_name,
                    kind=LayerKind.GLOBAL_POOL,
                    n_in=len(pts),
                    n_out=1,
                    c_in=h.shape[1],
                    c_out=h.shape[1],
                    rows=len(pts),
                )
            )
        return out(fc(g, trace), trace)[0]

    def __call__(self, cloud: PointCloud, trace: Trace | None = None) -> list[dict]:
        frustums = extract_frustums(cloud.points, n_frustums=self.n_frustums)
        detections = []
        for pts in frustums:
            logits = self._segment(pts, trace)
            fg_mask = logits[:, 1] > logits[:, 0]
            fg = pts[fg_mask] if fg_mask.sum() >= 8 else pts
            centered = fg - fg.mean(axis=0)
            centroid_delta = self._regress(
                centered, self.tnet_mlp, self.tnet_fc, self.tnet_out,
                "tnet.pool", trace,
            )
            box = self._regress(
                centered - centroid_delta, self.box_mlp, self.box_fc,
                self.box_out, "box.pool", trace,
            )
            detections.append({"n_points": len(pts), "box": box})
        return detections
