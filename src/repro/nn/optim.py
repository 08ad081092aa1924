"""First-order optimisers for :mod:`repro.nn` modules.

``SGD`` (with optional momentum) and ``Adam`` cover everything the paper
trains: the black-box classifier, the CF-VAE (Table III uses plain SGD
learning rates of 0.1/0.2) and the gradient-based baselines.

Both keep their state (momentum, Adam moments) in one flat float64
buffer each and make one fused elementwise update per step over all
parameters' gradients gathered end to end.  The formula is the textbook
per-parameter one, so the result is bit-identical to updating tensor by
tensor.  Parameters are updated in place (``p.data -= ...``): a module
whose weights are bound to external arrays stays bound, and a read-only
binding (e.g. a numpy view with ``writeable=False``) raises instead of being
silently replaced by a private copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]

_ALL = slice(None)


def check_writeable(parameter):
    """Raise ``ValueError`` if ``parameter`` cannot be updated in place."""
    if not parameter.data.flags.writeable:
        raise ValueError(
            "cannot update a read-only parameter in place; it is "
            "bound to a read-only view (e.g. shared serving weights)")


class Optimizer:
    """Base optimiser bound to a list of parameter tensors.

    The parameters are laid end to end in flat state buffers: parameter
    ``i`` owns elements ``_ends[i - 1]:_ends[i]`` of each.
    """

    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self._ends = np.cumsum([p.data.size for p in self.parameters]).tolist()

    def _state(self):
        """A zeroed flat state buffer."""
        return np.zeros(self._ends[-1])

    def _gather(self):
        """``(live, grad, index)`` over the parameters holding a gradient.

        ``grad`` is their gradients raveled end to end and ``index``
        selects their elements of a state buffer: ``_ALL`` when every
        parameter has a gradient, else an index array, so a parameter
        without one keeps its state untouched.  None when no parameter
        has a gradient.
        """
        live, spans = [], []
        start = 0
        for parameter, end in zip(self.parameters, self._ends):
            if parameter.grad is not None:
                check_writeable(parameter)
                live.append(parameter)
                spans.append((start, end))
            start = end
        if not live:
            return None
        grad = np.concatenate([np.ravel(p.grad) for p in live])
        if len(live) == len(self.parameters):
            return live, grad, _ALL
        return live, grad, np.concatenate([np.arange(a, b) for a, b in spans])

    @staticmethod
    def _apply(live, update):
        """``p.data -= update`` for each live parameter's slice, in place."""
        offset = 0
        for parameter in live:
            size = parameter.data.size
            parameter.data -= update[offset:offset + size].reshape(parameter.data.shape)
            offset += size

    def zero_grad(self):
        """Clear gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self):
        """Apply one update; subclasses must override."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, parameters, lr, momentum=0.0):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity = self._state()

    def step(self):
        gathered = self._gather()
        if gathered is None:
            return
        live, grad, index = gathered
        if self.momentum:
            velocity = self._velocity[index]
            velocity *= self.momentum
            velocity += grad
            if index is not _ALL:
                self._velocity[index] = velocity
            update = velocity
        else:
            update = grad
        self._apply(live, self.lr * update)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self._step_count = 0
        self._first_moment = self._state()
        self._second_moment = self._state()

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        gathered = self._gather()
        if gathered is None:
            return
        live, grad, index = gathered
        m, v = self._first_moment[index], self._second_moment[index]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        if index is not _ALL:
            self._first_moment[index] = m
            self._second_moment[index] = v
        m_hat = m / bias1
        v_hat = v / bias2
        self._apply(live, self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
