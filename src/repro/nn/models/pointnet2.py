"""PointNet++ variants (Qi et al., NeurIPS 2017) used in the paper's suite.

Three configurations matching Table 2:

* :class:`PointNet2SSGCls` — "PointNet++(c)", single-scale grouping
  classification on ModelNet40.
* :class:`PointNet2MSGPartSeg` — "PointNet++(ps)", multi-scale grouping part
  segmentation on ShapeNet.
* :class:`PointNet2SSGSemSeg` — "PointNet++(s)", SSG semantic segmentation
  on S3DIS.

Layer hyperparameters follow the reference implementation; point counts
scale with the input so small test clouds still exercise every block.

``weightless`` builds a model that draws every parameter as a shape token
(:class:`~repro.nn.ghost.GhostParamSource`); it serves geometry-only
forwards only, on a cloud whose features are a
:class:`~repro.nn.ghost.GhostFeatures` of width ``c_in``.  A forward
writes no model state, so one instance may serve many clouds at once.
"""

from __future__ import annotations

import numpy as np

from ...pointcloud.cloud import PointCloud
from ..layers import SharedMLP, new_param_rng
from ..pointnet_blocks import (
    FeaturePropagation,
    GlobalSetAbstraction,
    SetAbstraction,
    SetAbstractionMSG,
)
from ..trace import Trace

__all__ = ["PointNet2SSGCls", "PointNet2MSGPartSeg", "PointNet2SSGSemSeg"]


def _scaled(npoint: int, n_input: int, nominal_input: int) -> int:
    """Scale a stage's center count with the actual input size (min 4)."""
    return max(4, int(round(npoint * n_input / nominal_input)))


def _input_features(cloud: PointCloud, c_in: int) -> np.ndarray | None:
    """The point features the first SA stage reads.

    Features of the network's width (a geometry-only ghost included) are
    used as given; otherwise an xyz-only network reads none and the others
    read deterministic pseudo-color (S3DIS inputs carry color).
    """
    feats = cloud.features
    if feats is not None and feats.shape[1] == c_in:
        return feats
    if c_in == 0:
        return None
    return np.tile(cloud.points, (1, (c_in + 2) // 3))[:, :c_in]


class PointNet2SSGCls:
    """PointNet++ SSG classification: 2 SA stages + global SA + FC head."""

    notation = "PointNet++(c)"
    nominal_points = 1024
    c_in = 0  # xyz only

    def __init__(
        self, n_classes: int = 40, seed: int = 0, weightless: bool = False
    ) -> None:
        rng = new_param_rng(seed, weightless)
        self.sa1 = SetAbstraction(512, 0.2, 32, 0, [64, 64, 128], rng, name="sa1")
        self.sa2 = SetAbstraction(128, 0.4, 64, 128, [128, 128, 256], rng, name="sa2")
        self.sa3 = GlobalSetAbstraction(256, [256, 512, 1024], rng, name="sa3")
        self.head = SharedMLP(
            1024, [512, 256, n_classes], rng, final_relu=False, name="head"
        )

    def __call__(self, cloud: PointCloud, trace: Trace | None = None) -> np.ndarray:
        points = cloud.points
        n = len(points)
        feats = _input_features(cloud, self.c_in)
        p1, f1 = self.sa1(points, feats, trace,
                          _scaled(512, n, self.nominal_points))
        p2, f2 = self.sa2(p1, f1, trace, _scaled(128, n, self.nominal_points))
        g = self.sa3(p2, f2, trace).reshape(1, -1)
        return self.head(g, trace).reshape(-1)


class PointNet2MSGPartSeg:
    """PointNet++ MSG part segmentation: MSG encoder + FP decoder."""

    notation = "PointNet++(ps)"
    nominal_points = 2048
    c_in = 0  # xyz only

    def __init__(
        self, n_parts: int = 50, seed: int = 0, weightless: bool = False
    ) -> None:
        rng = new_param_rng(seed, weightless)
        self.sa1 = SetAbstractionMSG(
            512,
            [(0.1, 32, [32, 32, 64]), (0.2, 64, [64, 64, 128]),
             (0.4, 128, [64, 96, 128])],
            0,
            rng,
            name="sa1",
        )
        c1 = self.sa1.c_out  # 320
        self.sa2 = SetAbstractionMSG(
            128,
            [(0.4, 64, [128, 128, 256]), (0.8, 128, [128, 196, 256])],
            c1,
            rng,
            name="sa2",
        )
        c2 = self.sa2.c_out  # 512
        self.sa3 = GlobalSetAbstraction(c2, [256, 512, 1024], rng, name="sa3")
        self.fp3 = FeaturePropagation(1024, c2, [256, 256], rng, name="fp3")
        self.fp2 = FeaturePropagation(256, c1, [256, 128], rng, name="fp2")
        self.fp1 = FeaturePropagation(128, 0, [128, 128], rng, name="fp1")
        self.head = SharedMLP(128, [128, n_parts], rng, final_relu=False, name="head")

    def __call__(self, cloud: PointCloud, trace: Trace | None = None) -> np.ndarray:
        points = cloud.points
        n = len(points)
        feats = _input_features(cloud, self.c_in)
        p1, f1 = self.sa1(points, feats, trace,
                          _scaled(512, n, self.nominal_points))
        p2, f2 = self.sa2(p1, f1, trace, _scaled(128, n, self.nominal_points))
        g = self.sa3(p2, f2, trace)
        # Propagate the global feature back down the hierarchy.
        d2 = self.fp3(p2, f2, p2.mean(axis=0, keepdims=True), g.reshape(1, -1),
                      trace)
        d1 = self.fp2(p1, f1, p2, d2, trace)
        d0 = self.fp1(points, None, p1, d1, trace)
        return self.head(d0, trace)


class PointNet2SSGSemSeg:
    """PointNet++ SSG semantic segmentation: 4 SA + 4 FP stages."""

    notation = "PointNet++(s)"
    nominal_points = 4096

    def __init__(
        self,
        n_classes: int = 13,
        c_in: int = 6,
        seed: int = 0,
        weightless: bool = False,
    ) -> None:
        rng = new_param_rng(seed, weightless)
        self.c_in = c_in
        self.sa1 = SetAbstraction(1024, 0.1, 32, c_in, [32, 32, 64], rng, name="sa1")
        self.sa2 = SetAbstraction(256, 0.2, 32, 64, [64, 64, 128], rng, name="sa2")
        self.sa3 = SetAbstraction(64, 0.4, 32, 128, [128, 128, 256], rng, name="sa3")
        self.sa4 = SetAbstraction(16, 0.8, 32, 256, [256, 256, 512], rng, name="sa4")
        self.fp4 = FeaturePropagation(512, 256, [256, 256], rng, name="fp4")
        self.fp3 = FeaturePropagation(256, 128, [256, 256], rng, name="fp3")
        self.fp2 = FeaturePropagation(256, 64, [256, 128], rng, name="fp2")
        self.fp1 = FeaturePropagation(128, c_in, [128, 128, 128], rng, name="fp1")
        self.head = SharedMLP(
            128, [128, n_classes], rng, final_relu=False, name="head"
        )

    def __call__(self, cloud: PointCloud, trace: Trace | None = None) -> np.ndarray:
        points = cloud.points
        n = len(points)
        feats = _input_features(cloud, self.c_in)
        p1, f1 = self.sa1(points, feats, trace,
                          _scaled(1024, n, self.nominal_points))
        p2, f2 = self.sa2(p1, f1, trace, _scaled(256, n, self.nominal_points))
        p3, f3 = self.sa3(p2, f2, trace, _scaled(64, n, self.nominal_points))
        p4, f4 = self.sa4(p3, f3, trace, _scaled(16, n, self.nominal_points))
        d3 = self.fp4(p3, f3, p4, f4, trace)
        d2 = self.fp3(p2, f2, p3, d3, trace)
        d1 = self.fp2(p1, f1, p2, d2, trace)
        d0 = self.fp1(points, feats, p1, d1, trace)
        return self.head(d0, trace)
