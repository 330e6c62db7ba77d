"""Layer classes: stateful modules that compute and record trace specs.

Weights are seeded-random (inference only; see DESIGN.md on the accuracy
substitution) and initialized once at construction, from the parameter
source :func:`new_param_rng` returns — shape tokens for a weightless model
(:mod:`repro.nn.ghost`).  Every ``forward`` both computes real features
with numpy and, when a :class:`~repro.nn.trace.Trace` is supplied, records
:class:`~repro.nn.trace.LayerSpec`s describing the work.

BatchNorm + ReLU are folded into :class:`Linear` (one DENSE_MM spec per
layer), matching how every platform in the paper executes them fused with
the matmul.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .ghost import GhostFeatures, GhostParamSource, is_ghost
from .trace import LayerKind, LayerSpec, Trace

__all__ = ["Linear", "SharedMLP", "new_param_rng"]


def new_param_rng(
    seed: int = 0, weightless: bool = False
) -> np.random.Generator | GhostParamSource:
    """The parameter source for weight init across the model zoo.

    A seeded RNG, or with ``weightless`` a source of shape tokens: layers
    draw from either the same way, so a weightless model has every shape
    of the seeded one and no parameter values.
    """
    if weightless:
        return GhostParamSource()
    return np.random.default_rng(seed)


class Linear:
    """Pointwise fully-connected layer with optional folded BN + ReLU.

    Operates on ``(rows, c_in)`` matrices; in point-cloud networks the row
    dimension is points (FC / 1x1-conv) or gathered map entries (the
    shared-MLP inside a PointNet++ set-abstraction module).
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        rng: np.random.Generator,
        relu: bool = True,
        bn: bool = True,
        name: str = "linear",
    ) -> None:
        if c_in < 1 or c_out < 1:
            raise ValueError(f"invalid channel sizes ({c_in}, {c_out})")
        self.c_in = c_in
        self.c_out = c_out
        self.relu = relu
        self.bn = bn
        self.name = name
        scale = float(np.sqrt(2.0 / c_in))
        self.weight = rng.normal(scale=scale, size=(c_in, c_out))
        self.bias = rng.normal(scale=0.01, size=c_out)
        if bn:
            # Inference-mode BN statistics (seeded, fixed).
            self.bn_gamma = rng.normal(loc=1.0, scale=0.05, size=c_out)
            self.bn_beta = rng.normal(scale=0.05, size=c_out)
            self.bn_mean = rng.normal(scale=0.05, size=c_out)
            self.bn_var = np.abs(rng.normal(loc=1.0, scale=0.05, size=c_out))

    def __call__(self, x: np.ndarray, trace: Trace | None = None) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.c_in:
            raise ValueError(
                f"{self.name}: expected (rows, {self.c_in}), got {x.shape}"
            )
        if is_ghost(x):
            # Geometry-only execution: same checks, same trace record (below),
            # no arithmetic — the record is all a backend ever consumes.
            y = GhostFeatures(len(x), self.c_out)
        elif is_ghost(self.weight):
            raise ValueError(
                f"{self.name}: a weightless layer cannot compute real features"
            )
        else:
            y = F.linear(x, self.weight, self.bias)
            if self.bn:
                y = F.batch_norm(
                    y, self.bn_mean, self.bn_var, self.bn_gamma, self.bn_beta
                )
            if self.relu:
                y = F.relu(y)
        if trace is not None:
            rows = len(x)
            trace.record(
                LayerSpec(
                    name=self.name,
                    kind=LayerKind.DENSE_MM,
                    n_in=rows,
                    n_out=rows,
                    c_in=self.c_in,
                    c_out=self.c_out,
                    rows=rows,
                    fusible=True,
                )
            )
        return y


class SharedMLP:
    """A stack of :class:`Linear` layers applied pointwise (shared weights).

    The workhorse of PointNet-family models: ``channels`` lists the output
    width of each layer.  ``final_relu=False`` drops BN+ReLU on the last
    layer (classifier heads).
    """

    def __init__(
        self,
        c_in: int,
        channels: list[int],
        rng: np.random.Generator,
        final_relu: bool = True,
        name: str = "mlp",
    ) -> None:
        if not channels:
            raise ValueError("SharedMLP needs at least one output channel size")
        self.name = name
        self.layers: list[Linear] = []
        prev = c_in
        for i, c_out in enumerate(channels):
            last = i == len(channels) - 1
            use_act = final_relu or not last
            self.layers.append(
                Linear(
                    prev,
                    c_out,
                    rng,
                    relu=use_act,
                    bn=use_act,
                    name=f"{name}.{i}",
                )
            )
            prev = c_out

    @property
    def c_in(self) -> int:
        return self.layers[0].c_in

    @property
    def c_out(self) -> int:
        return self.layers[-1].c_out

    def __call__(self, x: np.ndarray, trace: Trace | None = None) -> np.ndarray:
        for layer in self.layers:
            x = layer(x, trace)
        return x
