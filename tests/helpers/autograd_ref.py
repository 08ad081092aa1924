"""The historical autograd tape and per-parameter optimisers, as a parity reference.

``repro.nn`` runs a cheaper tape than it used to: leaves-only ``.grad``,
no gradients for frozen or constant operands, ``_make`` building nodes
directly, and one fused flat-buffer optimizer update.  Every one of those
changes is meant to leave training bit-identical.  This module keeps the
replaced implementations verbatim so ``tests/nn/test_tape_parity.py`` can
train once with them and once with the library and compare every bit:

* :func:`backward_ref` — the ``id()``-keyed DFS backward that wrote
  ``.grad`` on every visited node, interior ones included;
* :func:`make_ref` — node construction through ``Tensor.__init__``;
* :func:`sgd_step_ref` / :func:`adam_step_ref` — one update per parameter
  tensor, rebinding ``parameter.data`` to a fresh array;
* :func:`reference_tape` — a context manager swapping all four in, with
  every compiled training step held eager (:func:`eager_steps`): the
  historical tape rebuilt the graph every step.

:func:`eager_steps` alone makes every :class:`repro.nn.CompiledStep`
refuse its trace, so a loop runs the eager tape through the library's
own fallback — the reference the compiled-step parity tests pin replays
against.

The optimiser references keep their own per-parameter state on the
instance (``_ref_state``), created on first use, so they never read the
library's flat buffers.
"""

import contextlib

import numpy as np

from repro.nn import SGD, Adam, Tensor, is_grad_enabled
from repro.nn.compile import REFUSALS, StepTrace


def backward_ref(self, grad=None):
    """``Tensor.backward`` as it was: every visited node keeps a ``.grad``."""
    if not self.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not require grad")
    if grad is None:
        if self.data.size != 1:
            raise RuntimeError("grad must be provided for non-scalar outputs")
        grad = np.ones_like(self.data)
    else:
        grad = np.asarray(grad, dtype=self.data.dtype)

    order = []
    visited = set()
    stack = [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads = {id(self): grad}
    owned = set()
    for node in reversed(order):
        key = id(node)
        node_grad = grads.pop(key, None)
        owned.discard(key)
        if node_grad is None:
            continue
        if node.grad is None:
            node.grad = node_grad.copy()
        else:
            np.add(node.grad, node_grad, out=node.grad)
        if node._backward is None:
            continue
        for parent, parent_grad in node._backward(node_grad):
            if not parent.requires_grad:
                continue
            parent_key = id(parent)
            if parent_key not in grads:
                grads[parent_key] = parent_grad
            elif parent_key in owned:
                np.add(grads[parent_key], parent_grad, out=grads[parent_key])
            else:
                grads[parent_key] = grads[parent_key] + parent_grad
                owned.add(parent_key)


def make_ref(data, parents, backward, kernel=None, args=()):
    """``Tensor._make`` as it was: every node goes through ``__init__``
    (the reference tape never traces, so ``kernel``/``args`` go unused)."""
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)


def _state(optimizer, slots):
    state = getattr(optimizer, "_ref_state", None)
    if state is None:
        state = optimizer._ref_state = [
            [np.zeros_like(p.data) for p in optimizer.parameters] for _ in range(slots)]
    return state


def sgd_step_ref(self):
    """``SGD.step`` as it was: one update per parameter tensor."""
    (velocities,) = _state(self, 1)
    for parameter, velocity in zip(self.parameters, velocities):
        if parameter.grad is None:
            continue
        if self.momentum:
            velocity *= self.momentum
            velocity += parameter.grad
            update = velocity
        else:
            update = parameter.grad
        parameter.data = parameter.data - self.lr * update


def adam_step_ref(self):
    """``Adam.step`` as it was: one update per parameter tensor."""
    first, second = _state(self, 2)
    self._step_count += 1
    bias1 = 1.0 - self.beta1 ** self._step_count
    bias2 = 1.0 - self.beta2 ** self._step_count
    for parameter, m, v in zip(self.parameters, first, second):
        if parameter.grad is None:
            continue
        grad = parameter.grad
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@contextlib.contextmanager
def eager_steps():
    """Make every compiled step refuse its trace inside the block (loops run eager)."""
    original = StepTrace.__init__

    def refusing(self, inputs):
        original(self, inputs)
        self.refuse("held eager by tests.helpers.autograd_ref.eager_steps")

    saved = dict(REFUSALS)
    StepTrace.__init__ = refusing
    try:
        yield
    finally:
        StepTrace.__init__ = original
        REFUSALS.clear()
        REFUSALS.update(saved)


@contextlib.contextmanager
def reference_tape():
    """Run the block on the historical tape and optimisers, eagerly, then restore."""
    swaps = [
        (Tensor, "backward", backward_ref),
        (Tensor, "_make", staticmethod(make_ref)),
        (SGD, "step", sgd_step_ref),
        (Adam, "step", adam_step_ref),
    ]
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in swaps]
    try:
        for owner, name, replacement in swaps:
            setattr(owner, name, replacement)
        with eager_steps():
            yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
