"""Shared numpy forward kernels for the graph and graph-free paths.

Every kernel here is used twice: by the :class:`~repro.nn.tensor.Tensor`
autograd ops (which wrap it with a backward closure) and by the
graph-free ``Module.forward_array`` inference path.  Keeping a single
implementation is what makes the fast path *numerically identical* to
the training path — there is no second formula to drift.

All kernels are dtype-preserving: they compute in whatever float dtype
the inputs carry (float64 by default, float32 in fast mode — see
:func:`repro.nn.tensor.set_default_dtype`).  Each takes an optional
``out=`` array, which a replayed training step (:mod:`repro.nn.compile`)
passes to refresh a node in place; the result is the same either way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["linear_forward", "relu_forward", "sigmoid_forward"]


def linear_forward(x, weight, bias, out=None):
    """Fused affine kernel ``x @ weight + bias`` with one allocation.

    The bias add happens in place on the matmul output, so the fused op
    allocates a single array where the ``matmul`` + ``add`` chain
    allocated two (and none when ``out`` is given).
    """
    out = np.matmul(x, weight, out)
    out += bias
    return out


def relu_forward(x, out=None):
    """``max(x, 0)`` elementwise."""
    return np.maximum(x, 0.0, out=out)


def sigmoid_forward(x, out=None):
    """Numerically stable logistic sigmoid.

    Both branches share ``e = exp(-|x|)``, which cannot overflow:
    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` below.  Inputs are
    clipped to ±500 first (the result saturates long before); NaN stays
    NaN.
    """
    e = np.exp(-np.abs(np.clip(x, -500, 500)))
    denom = 1.0 + e
    if out is None:
        return np.where(x >= 0, 1.0 / denom, e / denom)
    np.divide(e, denom, out=out)
    np.divide(1.0, denom, out=out, where=x >= 0)
    return out
