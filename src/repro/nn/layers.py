"""Neural-network layers built on the :mod:`repro.nn.tensor` autograd.

Provides the module system (parameter discovery, train/eval modes,
state-dict serialisation hooks) plus the layers the paper's models need:
``Linear``, ``ReLU``, ``Dropout`` and the
``Sequential`` container.
"""

from __future__ import annotations

import threading

import numpy as np

from . import functional
from .init import he_uniform, xavier_uniform, zeros
from .tensor import Tensor, as_tensor, host, linear, no_grad

__all__ = ["Module", "Linear", "ReLU", "Dropout", "Sequential"]

_MODE_LOCK = threading.Lock()


class Module:
    """Base class for all layers and models.

    Subclasses register parameters by assigning :class:`Tensor` attributes
    with ``requires_grad=True`` and register children by assigning
    :class:`Module` attributes.  Both are discovered automatically.

    :meth:`eval` skips its walk when nothing can have left eval mode
    since the last one: every ``training`` assignment and every
    attribute holding a module, list or tuple bumps the class-wide
    :attr:`_mode_epoch`, and a walk stamps its root with the epoch it
    started at.  A list mutated in place after assignment (an
    ``append`` to ``Sequential.layers``) is not seen; assign a new list.
    """

    #: Bumped (under a lock) by anything that can put a module of some
    #: tree back in training mode or graft one into a tree.
    _mode_epoch = 0

    def __init__(self):
        self.training = True

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name == "training" or isinstance(value, (Module, list, tuple)):
            with _MODE_LOCK:
                Module._mode_epoch += 1

    def forward(self, x):
        """Compute the layer output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, x):
        return self.forward(as_tensor(x))

    def forward_array(self, x):
        """Graph-free forward: plain ndarray in, plain ndarray out.

        The fast inference path — no :class:`Tensor` node is allocated
        anywhere.  Layers override this with a pure-numpy twin of
        :meth:`forward` built on the same :mod:`repro.nn.functional`
        kernels, so the result is numerically identical to
        ``forward(...).data`` under ``no_grad``.  The default falls back
        to exactly that graph path for modules without an override.
        """
        with no_grad():
            return self.forward(as_tensor(x)).data

    # -- parameter / child discovery ----------------------------------
    def named_parameters(self, prefix="", include_frozen=False):
        """Yield ``(name, tensor)`` pairs for every trainable parameter.

        With ``include_frozen=True`` parameters whose ``requires_grad``
        was switched off (e.g. a classifier frozen inside a loss) are
        yielded too — serialisation must see the full parameter set even
        when the optimiser must not.
        """
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Tensor) and (value.requires_grad or include_frozen):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(
                    prefix=f"{name}.", include_frozen=include_frozen)
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(
                            prefix=f"{name}.{index}.", include_frozen=include_frozen)

    def parameters(self):
        """Return the list of trainable parameter tensors."""
        return [tensor for _, tensor in self.named_parameters()]

    def children(self):
        """Yield direct child modules."""
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self):
        """Yield this module and every descendant."""
        yield self
        for child in self.children():
            yield from child.modules()

    # -- modes ----------------------------------------------------------
    def train(self):
        """Switch this module and all children into training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self):
        """Switch this module and all children into evaluation mode.

        Returns at once when this module's last walk started at the
        current :attr:`_mode_epoch`: its whole tree is still in eval mode.
        """
        epoch = Module._mode_epoch
        if self.__dict__.get("_eval_epoch") == epoch:
            return self
        for module in self.modules():
            # a switch *into* eval mode cannot stale any stamp: no bump
            module.__dict__["training"] = False
        self.__dict__["_eval_epoch"] = epoch
        return self

    def zero_grad(self):
        """Reset the gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- serialisation ----------------------------------------------------
    def state_dict(self):
        """Return a name -> ndarray copy of all parameters (incl. frozen)."""
        return {name: tensor.data.copy()
                for name, tensor in self.named_parameters(include_frozen=True)}

    def load_state_dict(self, state):
        """Load parameters from :meth:`state_dict` output (strict by name)."""
        parameters = dict(self.named_parameters(include_frozen=True))
        missing = set(parameters) - set(state)
        unexpected = set(state) - set(parameters)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, value in state.items():
            target = parameters[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != target.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {target.data.shape}")
            target.data = value.copy()


class Linear(Module):
    """Affine transform ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    rng:
        Seeded generator used for weight init.
    init:
        ``"he"`` (default, for ReLU stacks) or ``"xavier"`` (for
        sigmoid/tanh heads).
    """

    def __init__(self, in_features, out_features, rng, init="he"):
        super().__init__()
        if init == "he":
            weights = he_uniform(rng, in_features, out_features)
        elif init == "xavier":
            weights = xavier_uniform(rng, in_features, out_features)
        else:
            raise ValueError(f"unknown init scheme: {init!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(weights, requires_grad=True)
        self.bias = Tensor(zeros(out_features), requires_grad=True)

    def forward(self, x):
        return linear(x, self.weight, self.bias)

    def forward_array(self, x):
        x = np.asarray(x)
        if x.dtype.type is not np.float64:
            x = x.astype(np.float64)
        return functional.linear_forward(x, self.weight.data, self.bias.data)

    def __repr__(self):
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x):
        return x.relu()

    def forward_array(self, x):
        return functional.relu_forward(x)

    def __repr__(self):
        return "ReLU()"


class Dropout(Module):
    """Inverted dropout.

    During training each unit is zeroed with probability ``p`` and the
    survivors are scaled by ``1 / (1 - p)`` so the expected activation is
    unchanged; at eval time the layer is the identity.  The paper applies
    30% dropout to every VAE layer (Table II).
    """

    def __init__(self, p, rng):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = rng

    def _mask(self, shape):
        keep = 1.0 - self.p
        return (self._rng.random(shape) < keep) / keep

    def forward(self, x):
        if not self.training or self.p == 0.0:
            return x
        return x * host(self._mask, x.shape)

    def forward_array(self, x):
        if not self.training or self.p == 0.0:
            return x
        return x * self._mask(np.shape(x))

    def __repr__(self):
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def forward_array(self, x):
        for layer in self.layers:
            x = layer.forward_array(x)
        return x

    def __getitem__(self, index):
        return self.layers[index]

    def __len__(self):
        return len(self.layers)

    def __repr__(self):
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"
