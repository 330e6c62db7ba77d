"""SparseConv layers (MinkowskiNet-style) with trace recording.

A sparse convolution (paper Table 1, SparseConv-based row) is:

1. output-cloud construction by coordinate quantization (stride > 1 only),
2. kernel mapping — find maps ``(p, q, w_delta)``,
3. per-weight gather -> matmul -> scatter-accumulate of features.

:class:`SparseConv` implements the encoder ops (submanifold when stride=1,
strided downsampling otherwise); :class:`SparseConvTranspose` the generative
upsampling of U-Net decoders, whose maps are the transpose relation
``quantize(q) == p`` expressed through explicit offsets.
"""

from __future__ import annotations

import numpy as np

from ..mapping.kernel_map import kernel_map_mergesort
from ..mapping.maps import MapTable
from ..pointcloud.cloud import SparseTensor
from ..pointcloud.coords import kernel_offsets
from . import functional as F
from .ghost import GhostFeatures, is_ghost
from .trace import LayerKind, LayerSpec, Trace

__all__ = ["SparseConv", "SparseConvTranspose", "sparse_conv_apply"]


def sparse_conv_apply(
    in_features: np.ndarray,
    weights: np.ndarray,
    maps: MapTable,
    n_out: int,
    name: str = "sparse_conv",
) -> np.ndarray:
    """Execute the matmul portion of a sparse conv given maps.

    ``weights`` has shape ``(kernel_volume, c_in, c_out)``.  Iterates the
    "gather by weight" groups (paper Fig. 4) and scatter-accumulates partial
    sums — the functional reference both for PointAcc's fetch-on-demand flow
    and the GPU's gather-matmul-scatter flow (identical arithmetic).
    ``name`` labels the layer in errors.
    """
    if weights.ndim != 3:
        raise ValueError(f"weights must be (K, c_in, c_out), got {weights.shape}")
    if weights.shape[0] < maps.kernel_volume:
        raise ValueError(
            f"{weights.shape[0]} weight slices < kernel volume {maps.kernel_volume}"
        )
    c_out = weights.shape[2]
    if is_ghost(in_features):
        # Geometry-only: the maps (already built) are the product; the
        # gather-matmul-scatter would only produce values nothing reads.
        return GhostFeatures(n_out, c_out)
    if is_ghost(weights):
        raise ValueError(f"{name}: a weightless layer cannot compute real features")
    out = np.zeros((n_out, c_out), dtype=np.float64)
    for w_idx, in_idx, out_idx in maps.per_weight():
        psum = in_features[in_idx] @ weights[w_idx]
        np.add.at(out, out_idx, psum)
    return out


def _map_key(tensor: SparseTensor, out_tensor: SparseTensor, kernel_size: int) -> tuple:
    """Per-forward map-sharing key: the identity of both coordinate arrays,
    plus the kernel size and both strides, which fix the offsets.  Strided
    and submanifold convs have ``in stride <= out stride`` and transposed
    convs ``in stride > out stride``, so their keys never meet."""
    return (
        id(tensor.coords),
        id(out_tensor.coords),
        kernel_size,
        tensor.tensor_stride,
        out_tensor.tensor_stride,
    )


def _shared_maps(
    map_cache: dict | None,
    tensor: SparseTensor,
    out_tensor: SparseTensor,
    kernel_size: int,
    build,
) -> tuple[MapTable, bool]:
    """``(maps, cached)``: the maps an earlier conv of this forward built for
    these two clouds, else ``build()``'s, stored for the convs after it.

    Convs over the same clouds share maps (MinkowskiEngine's
    coordinate-manager behaviour; the paper computes maps "every time
    downsampling the point cloud", i.e. once per stride level).  Clouds
    pass from conv to conv as the same arrays, so identity finds them; each
    entry holds both arrays, so no id in a live key can be recycled.
    """
    if map_cache is None:
        return build(), False
    key = _map_key(tensor, out_tensor, kernel_size)
    entry = map_cache.get(key)
    if entry is not None:
        return entry[2], True
    maps = build()
    map_cache[key] = (tensor.coords, out_tensor.coords, maps)
    return maps, False


class _SparseConvBase:
    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel_volume: int,
        rng: np.random.Generator,
        relu: bool,
        bn: bool,
        name: str,
    ) -> None:
        self.c_in = c_in
        self.c_out = c_out
        self.relu = relu
        self.bn = bn
        self.name = name
        scale = float(np.sqrt(2.0 / (c_in * kernel_volume)))
        self.weights = rng.normal(scale=scale, size=(kernel_volume, c_in, c_out))
        if bn:
            self.bn_gamma = rng.normal(loc=1.0, scale=0.05, size=c_out)
            self.bn_beta = rng.normal(scale=0.05, size=c_out)
            self.bn_mean = rng.normal(scale=0.05, size=c_out)
            self.bn_var = np.abs(rng.normal(loc=1.0, scale=0.05, size=c_out))

    def _postprocess(self, out: np.ndarray) -> np.ndarray:
        if is_ghost(out):
            return out  # BN/ReLU are elementwise: shape (and trace) unchanged
        if self.bn:
            out = F.batch_norm(
                out, self.bn_mean, self.bn_var, self.bn_gamma, self.bn_beta
            )
        if self.relu:
            out = F.relu(out)
        return out

    def _record_conv(
        self, trace: Trace | None, maps: MapTable, n_in: int, n_out: int
    ) -> None:
        if trace is None:
            return
        trace.record(
            LayerSpec(
                name=f"{self.name}.gather",
                kind=LayerKind.GATHER,
                n_in=n_in,
                n_out=n_out,
                c_in=self.c_in,
                n_maps=maps.n_maps,
                kernel_volume=maps.kernel_volume,
            )
        )
        trace.record(
            LayerSpec(
                name=self.name,
                kind=LayerKind.SPARSE_CONV,
                n_in=n_in,
                n_out=n_out,
                c_in=self.c_in,
                c_out=self.c_out,
                rows=maps.n_maps,
                n_maps=maps.n_maps,
                kernel_volume=maps.kernel_volume,
                # Carried so the MMU cache model can replay the exact
                # fetch-on-demand request stream (params is non-hashed).
                params={"maps": maps},
            )
        )
        trace.record(
            LayerSpec(
                name=f"{self.name}.scatter",
                kind=LayerKind.SCATTER,
                n_in=n_in,
                n_out=n_out,
                c_out=self.c_out,
                n_maps=maps.n_maps,
                kernel_volume=maps.kernel_volume,
            )
        )


class SparseConv(_SparseConvBase):
    """Submanifold (stride=1) or strided sparse convolution.

    With ``stride == 1`` outputs sit exactly on the input cloud (the
    submanifold constraint: "nonzero points never dilate").  With
    ``stride > 1`` the output cloud is the quantized input cloud and the
    kernel covers ``{0..kernel_size-1}`` input-stride steps per axis.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel_size: int = 3,
        stride: int = 1,
        rng: np.random.Generator | None = None,
        relu: bool = True,
        bn: bool = True,
        name: str = "sparseconv",
        ndim: int = 3,
    ) -> None:
        if stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {stride}")
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.kernel_size = kernel_size
        self.stride = stride
        self.ndim = ndim
        kernel_volume = kernel_size**ndim
        super().__init__(c_in, c_out, kernel_volume, rng, relu, bn, name)

    def build_maps(self, tensor: SparseTensor, out_tensor: SparseTensor) -> MapTable:
        offsets = kernel_offsets(self.kernel_size, self.ndim) * tensor.tensor_stride
        return kernel_map_mergesort(tensor.coords, out_tensor.coords, offsets=offsets)

    def __call__(
        self,
        tensor: SparseTensor,
        trace: Trace | None = None,
        map_cache: dict | None = None,
    ) -> SparseTensor:
        if tensor.channels != self.c_in:
            raise ValueError(
                f"{self.name}: expected {self.c_in} channels, got {tensor.channels}"
            )
        if self.stride == 1:
            out_tensor = tensor.with_features(None)
        else:
            out_tensor = tensor.downsample(self.stride)
            if trace is not None:
                trace.record(
                    LayerSpec(
                        name=f"{self.name}.quantize",
                        kind=LayerKind.MAP_QUANT,
                        n_in=tensor.n,
                        n_out=out_tensor.n,
                        rows=tensor.n,
                    )
                )
        maps, cached = _shared_maps(
            map_cache, tensor, out_tensor, self.kernel_size,
            lambda: self.build_maps(tensor, out_tensor),
        )
        if trace is not None:
            trace.record(
                LayerSpec(
                    name=f"{self.name}.kmap",
                    kind=LayerKind.MAP_KERNEL,
                    n_in=tensor.n,
                    n_out=out_tensor.n,
                    rows=tensor.n,
                    n_maps=maps.n_maps,
                    kernel_volume=maps.kernel_volume,
                    params={"cached": cached},
                )
            )
        self._record_conv(trace, maps, tensor.n, out_tensor.n)
        out = sparse_conv_apply(
            tensor.features, self.weights, maps, out_tensor.n, self.name
        )
        return out_tensor.with_features(self._postprocess(out))


class SparseConvTranspose(_SparseConvBase):
    """Generative transposed conv: upsample a coarse tensor onto a fine cloud.

    The decoder half of MinkowskiUNet.  The output cloud is supplied by the
    caller (the encoder skip connection at the target stride); maps satisfy
    ``p = q + delta`` with ``delta`` in ``{-(k-1)..0}^D`` fine-stride steps —
    the transpose of the matching strided conv.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel_size: int = 2,
        rng: np.random.Generator | None = None,
        relu: bool = True,
        bn: bool = True,
        name: str = "sparseconv_t",
        ndim: int = 3,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self.kernel_size = kernel_size
        self.ndim = ndim
        kernel_volume = kernel_size**ndim
        super().__init__(c_in, c_out, kernel_volume, rng, relu, bn, name)

    @staticmethod
    def _check_upsamples(tensor: SparseTensor, out_tensor: SparseTensor) -> None:
        if out_tensor.tensor_stride >= tensor.tensor_stride:
            raise ValueError(
                "transpose conv upsamples: output stride must be finer "
                f"({out_tensor.tensor_stride} >= {tensor.tensor_stride})"
            )

    def build_maps(self, tensor: SparseTensor, out_tensor: SparseTensor) -> MapTable:
        self._check_upsamples(tensor, out_tensor)
        offsets = -kernel_offsets(self.kernel_size, self.ndim) * out_tensor.tensor_stride
        return kernel_map_mergesort(tensor.coords, out_tensor.coords, offsets=offsets)

    def _twin_maps(
        self, map_cache: dict | None, tensor: SparseTensor, out_tensor: SparseTensor
    ) -> MapTable:
        """The maps of this conv's strided twin, transposed, if this forward
        ran the twin: the same-kernel strided conv that built this coarse
        cloud from this fine one.  Its rows ``p - delta == q`` are this
        conv's rows ``q + delta == p`` with input and output swapped, in
        the same order (a translation preserves key order), so
        :meth:`build_maps` would only recompute them."""
        twin = None
        if map_cache is not None:
            twin = map_cache.get(_map_key(out_tensor, tensor, self.kernel_size))
        if twin is None:
            return self.build_maps(tensor, out_tensor)
        maps = twin[2]
        return MapTable(maps.out_idx, maps.in_idx, maps.weight_idx, maps.kernel_volume)

    def __call__(
        self,
        tensor: SparseTensor,
        out_cloud: SparseTensor,
        trace: Trace | None = None,
        map_cache: dict | None = None,
    ) -> SparseTensor:
        if tensor.channels != self.c_in:
            raise ValueError(
                f"{self.name}: expected {self.c_in} channels, got {tensor.channels}"
            )
        out_tensor = out_cloud.with_features(None)
        # Checked before any lookup: it is what keeps this conv's keys
        # apart from those of same-stride convs.
        self._check_upsamples(tensor, out_tensor)
        # A map taken from the twin is still one the modelled MPU computes
        # (``cached`` stays False); only the host skips recomputing it.
        maps, cached = _shared_maps(
            map_cache, tensor, out_tensor, self.kernel_size,
            lambda: self._twin_maps(map_cache, tensor, out_tensor),
        )
        if trace is not None:
            trace.record(
                LayerSpec(
                    name=f"{self.name}.kmap",
                    kind=LayerKind.MAP_KERNEL,
                    n_in=tensor.n,
                    n_out=out_tensor.n,
                    rows=tensor.n,
                    n_maps=maps.n_maps,
                    kernel_volume=maps.kernel_volume,
                    params={"cached": cached},
                )
            )
        self._record_conv(trace, maps, tensor.n, out_tensor.n)
        out = sparse_conv_apply(
            tensor.features, self.weights, maps, out_tensor.n, self.name
        )
        return out_tensor.with_features(self._postprocess(out))
