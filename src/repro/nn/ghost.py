"""Shape-only array stand-in for geometry-only model execution.

A network whose mapping operations read *coordinates* only — feature
values never influence which maps exist — has a layer trace (and
therefore every backend report) that is a pure function of geometry.  The
benchmark registry declares this per network
(:attr:`~repro.nn.models.registry.Benchmark.coords_only_mapping`): the
SparseConv models and PointNet++(c), (ps) and (s).  PointNet, DGCNN (whose
dynamic graph runs kNN on features) and F-PointNet++ (whose frustum masks
threshold logits) are not declared and always compute real features.
When a declared frame only needs a trace, running the dense matmuls is
wasted work: most of a MinkNet trace build and about half of a
PointNet++(s) stream frame.

:class:`GhostFeatures` is a shape token that flows through the network in
place of a real array.  As features, a ``(rows, channels)`` ghost: layers
that see it still perform every shape/channel check and still record
exactly the same :class:`~repro.nn.trace.LayerSpec`s — they just skip the
arithmetic and emit a new ghost of the correct output shape.  Mapping
operations (kernel maps, FPS, ball query, kNN) still run on the real
coordinates.  As parameters, a ghost of the weight's shape: a
geometry-only model is built *weightless*, drawing every parameter from
:class:`GhostParamSource` instead of an RNG (no layer code changes — a
layer draws from whatever source it is given), because no geometry-only
forward ever reads a weight value.  A weightless layer refuses real
features.  The property suite (``tests/properties/test_prop_stream.py``)
proves reports from geometry-only runs on weightless models are
bit-identical to full functional runs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GhostFeatures", "GhostParamSource", "is_ghost", "concat_channels"]


class GhostFeatures:
    """An array reduced to its shape: ``(rows, channels)`` for features,
    any shape for a weightless parameter.

    Mimics just enough of the ndarray surface (``shape``, ``ndim``,
    ``len``, ``abs``, ``reshape``) for the layer-level checks, parameter
    construction and trace records to run unchanged.
    """

    __slots__ = ("shape",)

    def __init__(self, *shape: int) -> None:
        self.shape = tuple(int(n) for n in shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __abs__(self) -> "GhostFeatures":
        return self  # elementwise: same shape; tokens are immutable

    def reshape(self, *shape: int) -> "GhostFeatures":
        """Same size, new shape; one dimension may be ``-1`` (inferred).

        The point models' ``x.reshape(1, -1)`` / ``y.reshape(-1)``; there
        is deliberately no ``__getitem__``, which would make numpy treat a
        ghost as a sequence (``np.abs`` would then build an object array).
        """
        size = math.prod(self.shape)
        known = math.prod(n for n in shape if n != -1)
        new = tuple(size // max(known, 1) if n == -1 else n for n in shape)
        if math.prod(new) != size:
            raise ValueError(f"cannot reshape ghost {self.shape} to {shape}")
        return GhostFeatures(*new)

    def __add__(self, other):
        """Residual adds: shapes must agree, the sum is again a ghost."""
        if is_ghost(other) or isinstance(other, np.ndarray):
            if tuple(other.shape) != self.shape:
                raise ValueError(
                    f"ghost add shape mismatch: {self.shape} vs {other.shape}"
                )
            return GhostFeatures(*self.shape)
        return NotImplemented

    __radd__ = __add__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GhostFeatures{self.shape}"


class GhostParamSource:
    """The parameter source of a weightless model: each draw is a ghost of
    the requested shape, so no parameter array is ever allocated."""

    def normal(self, loc=0.0, scale=1.0, size=None) -> GhostFeatures:
        return GhostFeatures(*np.atleast_1d(size))


def is_ghost(x) -> bool:
    """True when ``x`` is a shape-only stand-in."""
    return isinstance(x, GhostFeatures)


def concat_channels(*parts):
    """Channel-wise concat of ``(rows, channels)`` blocks that tolerates
    ghosts (row counts must match)."""
    if any(is_ghost(p) for p in parts):
        rows = [len(p) for p in parts]
        if len(set(rows)) != 1:
            raise ValueError(f"concat row mismatch: {rows}")
        return GhostFeatures(rows[0], sum(p.shape[1] for p in parts))
    return np.concatenate(parts, axis=1)
