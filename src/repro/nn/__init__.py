"""Minimal neural-network substrate (numpy reverse-mode autograd).

The paper implements its models in a deep-learning framework; this package
replaces that dependency with a from-scratch engine: :class:`Tensor`
autograd, layer modules, losses, optimisers and serialisation.
"""

from . import functional
from .compile import CompiledStep
from .init import he_uniform, xavier_uniform, zeros
from .layers import Dropout, Linear, Module, ReLU, Sequential, Sigmoid, Tanh
from .losses import (
    bce_with_logits,
    cross_entropy,
    gaussian_kl,
    hinge_loss,
    l1_loss,
    logsumexp,
    mse_loss,
    softmax,
)
from .optim import SGD, Adam, Optimizer
from .serialize import load_state, save_state
from .tensor import (
    Tensor,
    as_tensor,
    dtype_scope,
    get_default_dtype,
    host,
    is_grad_enabled,
    linear,
    no_grad,
    set_default_dtype,
)
from .training_utils import (
    CosineDecay,
    EarlyStopping,
    StepDecay,
    TrainingDivergedError,
    check_finite_loss,
    clip_grad_norm,
)

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "linear", "functional", "host", "CompiledStep",
    "get_default_dtype", "set_default_dtype", "dtype_scope",
    "Module", "Linear", "ReLU", "Sigmoid", "Tanh", "Dropout", "Sequential",
    "bce_with_logits", "cross_entropy", "hinge_loss", "l1_loss", "mse_loss",
    "gaussian_kl", "logsumexp", "softmax",
    "Optimizer", "SGD", "Adam",
    "save_state", "load_state",
    "he_uniform", "xavier_uniform", "zeros",
    "TrainingDivergedError", "check_finite_loss",
    "clip_grad_norm", "StepDecay", "CosineDecay", "EarlyStopping",
]
