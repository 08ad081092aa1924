"""The historical logistic-sigmoid kernel, kept as a parity reference.

``repro.nn.functional.sigmoid_forward`` used to evaluate ``exp`` on both
branches of its ``where``; in float32 the unused branch overflowed (and
warned) for ``|x| >~ 89``.  The current kernel shares one
``exp(-|x|)``; ``tests/nn/test_sigmoid.py`` pins it byte for byte
against this formula.
"""

import numpy as np


def sigmoid_ref(x):
    """The two-branch formula (may warn on overflow in its unused branch)."""
    clipped = np.clip(x, -500, 500)
    return np.where(x >= 0,
                    1.0 / (1.0 + np.exp(-clipped)),
                    np.exp(clipped) / (1.0 + np.exp(clipped)))
