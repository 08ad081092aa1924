"""Reconstruction training for the conditional VAE.

The paper's CF-VAE training (validity + proximity + feasibility +
sparsity) lives in :mod:`repro.core.generator`.  This module provides the
plain data-fidelity objective — reconstruction + KL — that the REVISE and
C-CHVAE baselines need (both search the latent space of an ordinary VAE)
and that is also useful for warm-starting the CF model.

Inside a :func:`warm_start_memo` scope a call whose inputs were already
trained in that scope is answered from the scope's memo instead of
training again (see the function's docstring).
"""

from __future__ import annotations

import contextvars
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..nn import (
    Adam,
    CompiledStep,
    check_finite_loss,
    gaussian_kl,
    mse_loss,
)
from ..nn.optim import check_writeable
from ..utils.validation import check_2d, check_loop_sizes

__all__ = ["train_reconstruction_vae", "warm_start_memo"]

#: The memo of the innermost open :func:`warm_start_memo` scope, or None.
_MEMO = contextvars.ContextVar("warm_start_memo", default=None)


@contextmanager
def warm_start_memo(store):
    """Memoise :func:`train_reconstruction_vae` into the dict ``store``.

    Inside the block (in this thread or task) a call is keyed on the
    content of everything its result depends on: ``x`` and ``labels``,
    every parameter, the state of ``rng`` and of every generator the
    module tree holds (and which layers share one), the module structure
    and ``epochs``/``lr``/``batch_size``/``beta``.  A miss trains as usual
    and stores the post-training weights, generator states and history
    under that key; a hit restores them in place and returns a copy of
    the history, bit-identical to training again.  ``store`` is owned by
    the caller (an :class:`~repro.experiments.ExperimentContext` holds
    one), so entries live exactly as long as it does.
    """
    token = _MEMO.set(store)
    try:
        yield store
    finally:
        _MEMO.reset(token)


@dataclass
class _WarmStart:
    """One memoised call: its post-training state and how often it was reused."""

    weights: list
    generator_states: list
    history: list
    hits: int = 0


#: Mode bookkeeping of :class:`repro.nn.Module` (the train/eval flag and
#: the eval-walk stamp): it varies between otherwise identical calls, so
#: it stays out of the memo key.
_MODE_ATTRS = ("training", "_eval_epoch")


def _generators(vae, rng):
    """Distinct generators in first-seen order (``rng`` first) and, per
    module, which of them each of its generator attributes holds."""
    generators, slots, layout = [rng], {id(rng): 0}, []
    for module in vae.modules():
        entry = [type(module).__qualname__]
        for attr, value in vars(module).items():
            if isinstance(value, np.random.Generator):
                slot = slots.setdefault(id(value), len(generators))
                if slot == len(generators):
                    generators.append(value)
                entry.append((attr, slot))
            elif attr not in _MODE_ATTRS and isinstance(value, (bool, int, float, str)):
                entry.append((attr, value))
        layout.append(entry)
    return generators, layout


def _key(vae, x, labels, generators, layout, epochs, lr, batch_size, beta):
    """SHA-256 over every input :func:`train_reconstruction_vae` reads."""
    sha = hashlib.sha256()

    def add(array):
        sha.update(repr((array.dtype.str, array.shape)).encode())
        sha.update(np.ascontiguousarray(array).data)

    add(x)
    add(labels)
    for name, parameter in vae.named_parameters(include_frozen=True):
        sha.update(repr((name, parameter.requires_grad)).encode())
        add(parameter.data)
    for generator in generators:
        sha.update(repr(generator.bit_generator.state).encode())
    sha.update(repr(layout).encode())
    sha.update(repr((int(epochs), float(lr), int(batch_size), type(beta).__name__,
                     float(beta))).encode())
    return sha.hexdigest()


def _restore(vae, entry, generators):
    """Put a memoised call's post-training state back into ``vae``."""
    parameters = vae.parameters()  # the ones the optimiser would update
    for parameter in parameters:
        check_writeable(parameter)  # before any state changes
    for parameter, weights in zip(parameters, entry.weights):
        np.copyto(parameter.data, weights)
    for generator, state in zip(generators, entry.generator_states):
        generator.bit_generator.state = state
    vae.eval()
    entry.hits += 1
    return list(entry.history)


def train_reconstruction_vae(vae, x, labels, epochs=30, lr=1e-3, batch_size=256,
                             rng=None, beta=0.5, verbose=False):
    """Fit ``vae`` to reconstruct ``x`` conditioned on ``labels``.

    Loss per batch: ``MSE(x_hat, x) + beta * KL(q(z|x) || N(0, I))``.
    Returns the per-epoch loss history; raises
    :class:`~repro.nn.TrainingDivergedError` at the first non-finite loss
    and ``ValueError`` unless ``epochs`` is an int >= 0 and ``batch_size``
    an int >= 1.  Inside a :func:`warm_start_memo` scope a repeat of a
    call already trained there restores its result instead of training.
    """
    check_loop_sizes(epochs, batch_size)
    x = check_2d(x, "x")
    labels = np.asarray(labels, dtype=np.float64)
    if len(labels) != len(x):
        raise ValueError(f"labels ({len(labels)}) and x ({len(x)}) row counts differ")
    rng = rng or np.random.default_rng(0)

    memo = _MEMO.get()
    if memo is not None:
        generators, layout = _generators(vae, rng)
        key = _key(vae, x, labels, generators, layout, epochs, lr, batch_size, beta)
        entry = memo.get(key)
        if entry is not None:
            history = _restore(vae, entry, generators)
            if verbose:
                for value in history:
                    print(f"vae loss {value:.5f}")
            return history

    def step(x_batch, labels_batch):
        reconstruction, mu, log_var, _ = vae(x_batch, labels_batch)
        return mse_loss(reconstruction, x_batch) + gaussian_kl(mu, log_var) * beta

    optimizer = Adam(vae.parameters(), lr=lr)
    vae.train()
    history = []
    n_rows = len(x)
    with CompiledStep(step, (x, labels), name="train_reconstruction_vae") as compiled:
        for epoch in range(epochs):
            order = rng.permutation(n_rows)
            losses = []
            for start in range(0, n_rows, batch_size):
                batch = order[start:start + batch_size]
                optimizer.zero_grad()
                loss = compiled(batch)
                value = check_finite_loss(
                    loss.item(), "train_reconstruction_vae", epoch, len(losses))
                loss.backward()
                optimizer.step()
                losses.append(value)
            history.append(float(np.mean(losses)))
            if verbose:
                print(f"vae loss {history[-1]:.5f}")
    vae.eval()
    if memo is not None:
        memo[key] = _WarmStart(
            weights=[p.data.copy() for p in vae.parameters()],
            generator_states=[g.bit_generator.state for g in generators],
            history=list(history),
        )
    return history
