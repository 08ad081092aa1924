"""Weight initialisation schemes for :mod:`repro.nn` layers.

All initialisers take an explicit ``numpy.random.Generator`` so every model
in the reproduction is fully seedable (the experiment harness threads one
RNG through dataset generation, model init and training).
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "he_uniform", "zeros"]


def xavier_uniform(rng, fan_in, fan_out):
    """Glorot/Xavier uniform initialisation, suited to sigmoid/tanh heads.

    Samples from ``U(-a, a)`` with ``a = sqrt(6 / (fan_in + fan_out))``.
    """
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def he_uniform(rng, fan_in, fan_out):
    """He/Kaiming uniform initialisation, suited to ReLU layers.

    Samples from ``U(-a, a)`` with ``a = sqrt(6 / fan_in)``.
    """
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def zeros(shape):
    """All-zero array, used for biases."""
    return np.zeros(shape)
