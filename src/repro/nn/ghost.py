"""Shape-only array stand-in for geometry-only model execution.

For every model family in the paper except DGCNN's dynamic graph, mapping
operations consume *coordinates* only — feature values never influence
which maps exist, so the layer trace (and therefore every backend report)
is a pure function of geometry.  The streaming subsystem exploits this:
when a frame only needs a trace, running the dense matmuls is wasted work
that dominates wall clock (profiling puts SparseConv feature math at ~90%
of a MinkNet trace build).

:class:`GhostFeatures` is a shape token that flows through the network in
place of a real array.  As features, a ``(rows, channels)`` ghost: layers
that see it still perform every shape/channel check and still record
exactly the same :class:`~repro.nn.trace.LayerSpec`s — they just skip the
arithmetic and emit a new ghost of the correct output shape.  As
parameters, a ghost of the weight's shape: a geometry-only SparseConv
model is built *weightless*, drawing every parameter from
:class:`GhostParamSource` instead of an RNG (no layer code changes — a
layer draws from whatever source it is given), because no geometry-only
forward ever reads a weight value.  A weightless layer refuses real
features.  The property suite (``tests/properties/test_prop_stream.py``)
proves reports from geometry-only runs on weightless models are
bit-identical to full functional runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GhostFeatures", "GhostParamSource", "is_ghost", "concat_channels"]


class GhostFeatures:
    """An array reduced to its shape: ``(rows, channels)`` for features,
    any shape for a weightless parameter.

    Mimics just enough of the ndarray surface (``shape``, ``ndim``,
    ``len``, ``abs``) for the layer-level checks, parameter construction
    and trace records to run unchanged.
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


def concat_channels(a, b):
    """Channel-wise concat that tolerates ghosts (both sides must match)."""
    if is_ghost(a) or is_ghost(b):
        if len(a) != len(b):
            raise ValueError(
                f"concat row mismatch: {len(a)} vs {len(b)}"
            )
        return GhostFeatures(len(a), a.shape[1] + b.shape[1])
    return np.concatenate([a, b], axis=1)
