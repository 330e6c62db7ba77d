"""MinkowskiUNet (Choy et al., CVPR 2019) — sparse-conv U-Net segmentation.

The SparseConv-based workhorse of the paper's evaluation: MinkNet(i) on
S3DIS and MinkNet(o) on SemanticKITTI, plus the shallower/narrower
Mini-MinkowskiUNet used in the Mesorasi co-design comparison (Fig. 16).

Structure (MinkUNet18-like): a 2-conv stem, four encoder stages (strided
k=2 conv + residual blocks of submanifold k=3 convs), four decoder stages
(generative transposed k=2 conv + skip concat + residual blocks), and a
pointwise classifier head.  ``width`` and ``blocks_per_stage`` scale the
model; :func:`mini_minkunet` builds the Fig. 16 variant.
"""

from __future__ import annotations

import numpy as np

from ...pointcloud.cloud import PointCloud, SparseTensor
from .. import functional as F
from ..ghost import concat_channels, is_ghost
from ..layers import Linear, new_param_rng
from ..sparse_conv import SparseConv, SparseConvTranspose
from ..trace import LayerKind, LayerSpec, Trace

__all__ = ["ResidualBlock", "MinkowskiUNet", "mini_minkunet"]


class ResidualBlock:
    """Two submanifold convs with an (optionally projected) skip connection."""

    def __init__(
        self,
        c_in: int,
        c_out: int,
        rng: np.random.Generator,
        name: str = "block",
    ) -> None:
        self.name = name
        self.conv1 = SparseConv(c_in, c_out, 3, 1, rng, name=f"{name}.conv1")
        self.conv2 = SparseConv(c_out, c_out, 3, 1, rng, relu=False,
                                name=f"{name}.conv2")
        self.projection = (
            Linear(c_in, c_out, rng, relu=False, bn=True, name=f"{name}.proj")
            if c_in != c_out
            else None
        )

    def __call__(
        self,
        tensor: SparseTensor,
        trace: Trace | None = None,
        map_cache: dict | None = None,
    ) -> SparseTensor:
        residual = tensor.features
        out = self.conv1(tensor, trace, map_cache)
        out = self.conv2(out, trace, map_cache)
        if self.projection is not None:
            residual = self.projection(residual, trace)
        summed = out.features + residual
        features = summed if is_ghost(summed) else F.relu(summed)
        if trace is not None:
            trace.record(
                LayerSpec(
                    name=f"{self.name}.add",
                    kind=LayerKind.ELEMWISE,
                    n_in=tensor.n,
                    n_out=tensor.n,
                    c_in=out.channels,
                    c_out=out.channels,
                    rows=tensor.n,
                )
            )
        return out.with_features(features)


class MinkowskiUNet:
    """Configurable sparse U-Net over a :class:`SparseTensor` input.

    ``weightless`` draws every parameter as a shape token
    (:class:`~repro.nn.ghost.GhostParamSource`): the model records the
    same trace as the seeded one but serves geometry-only forwards only.
    """

    notation = "MinkNet"

    def __init__(
        self,
        n_classes: int = 19,
        c_in: int = 4,
        enc_channels: tuple[int, ...] = (32, 64, 128, 256),
        dec_channels: tuple[int, ...] = (256, 128, 96, 96),
        blocks_per_stage: int = 1,
        seed: int = 0,
        weightless: bool = False,
    ) -> None:
        if len(enc_channels) != len(dec_channels):
            raise ValueError("encoder/decoder stage counts must match")
        rng = new_param_rng(seed, weightless)
        self.c_in = c_in
        self.n_classes = n_classes
        self.enc_channels = enc_channels
        self.dec_channels = dec_channels
        c0 = enc_channels[0]
        self.stem1 = SparseConv(c_in, c0, 3, 1, rng, name="stem1")
        self.stem2 = SparseConv(c0, c0, 3, 1, rng, name="stem2")
        self.down_convs: list[SparseConv] = []
        self.enc_blocks: list[list[ResidualBlock]] = []
        prev = c0
        for i, c in enumerate(enc_channels):
            self.down_convs.append(
                SparseConv(prev, c, 2, 2, rng, name=f"enc{i}.down")
            )
            self.enc_blocks.append(
                [
                    ResidualBlock(c, c, rng, name=f"enc{i}.block{b}")
                    for b in range(blocks_per_stage)
                ]
            )
            prev = c
        self.up_convs: list[SparseConvTranspose] = []
        self.dec_blocks: list[list[ResidualBlock]] = []
        # Skip widths seen by decoder stage j (deepest first): the encoder
        # outputs one level up, ending at the stem width.
        skip_channels = [*enc_channels[:-1][::-1], c0]
        for j, c in enumerate(dec_channels):
            self.up_convs.append(
                SparseConvTranspose(prev, c, 2, rng, name=f"dec{j}.up")
            )
            stage_in = c + skip_channels[j]
            blocks = [ResidualBlock(stage_in, c, rng, name=f"dec{j}.block0")]
            blocks += [
                ResidualBlock(c, c, rng, name=f"dec{j}.block{b}")
                for b in range(1, blocks_per_stage)
            ]
            self.dec_blocks.append(blocks)
            prev = c
        self.head = Linear(prev, n_classes, rng, relu=False, bn=False, name="head")

    def prepare_input(self, cloud: PointCloud, voxel_size: float) -> SparseTensor:
        """Voxelize a raw cloud and attach the standard input features.

        Features are ``(occupancy, normalized xyz)`` — a stand-in for the
        intensity/color channels real datasets carry (same width, same
        dense-matmul workload).
        """
        tensor = cloud.voxelize(voxel_size)
        coords = tensor.coords.astype(np.float64)
        span = np.maximum(coords.max(axis=0) - coords.min(axis=0), 1.0)
        normalized = (coords - coords.min(axis=0)) / span
        features = np.concatenate(
            [np.ones((tensor.n, 1)), normalized], axis=1
        )[:, : self.c_in]
        if features.shape[1] < self.c_in:
            pad = np.zeros((tensor.n, self.c_in - features.shape[1]))
            features = np.concatenate([features, pad], axis=1)
        return tensor.with_features(features)

    def __call__(self, tensor: SparseTensor, trace: Trace | None = None) -> np.ndarray:
        if tensor.channels != self.c_in:
            raise ValueError(
                f"expected {self.c_in} input channels, got {tensor.channels}"
            )
        # Kernel maps are shared across same-stride layers within a forward
        # pass (MinkowskiEngine's coordinate-manager behaviour): maps are
        # computed once per downsampling and reused by every submanifold
        # conv at that stride, including decoder stages on skip clouds.
        map_cache: dict = {}
        x = self.stem1(tensor, trace, map_cache)
        x = self.stem2(x, trace, map_cache)
        skips = [x]
        for down, blocks in zip(self.down_convs, self.enc_blocks):
            x = down(x, trace, map_cache)
            for block in blocks:
                x = block(x, trace, map_cache)
            skips.append(x)
        skips.pop()  # deepest level is the current x, not a skip
        for up, blocks in zip(self.up_convs, self.dec_blocks):
            skip = skips.pop()
            x = up(x, skip, trace, map_cache)
            x = x.with_features(concat_channels(x.features, skip.features))
            for block in blocks:
                x = block(x, trace, map_cache)
        return self.head(x.features, trace)


class MinkowskiUNetIndoor(MinkowskiUNet):
    notation = "MinkNet(i)"


class MinkowskiUNetOutdoor(MinkowskiUNet):
    notation = "MinkNet(o)"


def mini_minkunet(
    n_classes: int = 13, seed: int = 0, weightless: bool = False
) -> MinkowskiUNet:
    """Mini-MinkowskiUNet (Fig. 16): shallower and narrower for edge co-design."""
    model = MinkowskiUNet(
        n_classes=n_classes,
        c_in=4,
        enc_channels=(8, 16, 32),
        dec_channels=(32, 16, 16),
        blocks_per_stage=1,
        seed=seed,
        weightless=weightless,
    )
    model.notation = "Mini-MinkowskiUNet"
    return model
