"""Compiled feasibility kernel: one fused pass over every constraint.

The paper evaluates causality (constraint satisfaction) *jointly* with
sparsity and density over candidate counterfactuals, yet the seed code
evaluated it piecemeal: ``ConstraintSet.satisfied`` iterated Python-level
over member constraints, the Table IV metrics rebuilt one constraint set
per kind and re-evaluated overlapping constraints, and the candidate
sweep materialised ``np.repeat(x, n_candidates)`` just to feed those
per-constraint calls.

``CompiledConstraintSet`` lowers a :class:`repro.constraints.ConstraintSet`
once into flat index/weight arrays and then answers every feasibility
question in a single vectorized pass:

* the full ``(n_cf, k)`` per-constraint satisfaction mask,
* the row-wise AND (the paper's feasibility flag),
* per-constraint and subset (unary/binary kind) satisfaction rates,

and it evaluates *tiled* candidate sweeps — ``n * m`` counterfactual rows
against ``n`` input rows — by broadcasting input-side terms instead of
materialising the repeated input matrix.  Internally the mask is stored
transposed (``(k, n_cf)``, one contiguous row per constraint) so the
AND-reduction and every rate are contiguous-memory operations.

Bit-parity contract: the mask equals ``ConstraintSet.satisfied_matrix``
(the per-constraint loop, kept as the parity reference) element for
element on every registry dataset; ``tests/engine/test_kernel_parity.py``
enforces this property-style.  Constraint types without a registered
lowering fall back to their own ``satisfied`` method inside the same
pass, so compilation never changes semantics.
"""

from __future__ import annotations

import numpy as np

from ..constraints.base import ConstraintSet
from ..constraints.binary import OrdinalImplicationConstraint
from ..constraints.immutables import ImmutablesRespected
from ..constraints.unary import MonotonicIncreaseConstraint

__all__ = ["CompiledConstraintSet", "FeasibilityReport"]


class FeasibilityReport:
    """Everything one kernel pass knows about a batch's feasibility.

    Parameters
    ----------
    mask_t:
        Transposed ``(k, n_cf)`` satisfaction matrix — one contiguous
        row per constraint, in set order.
    names:
        Constraint names, aligned with the rows of ``mask_t``.
    """

    def __init__(self, mask_t, names):
        self.mask_t = mask_t
        self.names = tuple(names)
        self._satisfied = None

    @property
    def mask(self):
        """``(n_cf, k)`` satisfaction matrix (a transpose view)."""
        return self.mask_t.T

    @property
    def satisfied(self):
        """Row-wise AND over all constraints (the paper's feasibility flag)."""
        if self._satisfied is None:
            self._satisfied = _and_rows(self.mask_t)
        return self._satisfied

    @property
    def rate(self):
        """Fraction of rows satisfying every constraint (1.0 when empty)."""
        return _bool_rate(self.satisfied)

    @property
    def per_constraint_rates(self):
        """``{constraint name: satisfaction rate}`` from the mask rows."""
        if self.mask_t.shape[1] == 0:
            return {name: 1.0 for name in self.names}
        return {name: _bool_rate(row) for name, row in zip(self.names, self.mask_t)}

    def subset_satisfied(self, indices):
        """Row-wise AND over a subset of constraints.

        Always returns a fresh array — callers (e.g. ``CFBatchResult``
        flags) may mutate it without corrupting the cached
        :attr:`satisfied`.
        """
        indices = list(indices)
        if indices == list(range(len(self.names))):
            return self.satisfied.copy()
        if len(indices) == 1:
            return self.mask_t[indices[0]].copy()
        return _and_rows(self.mask_t[indices])

    def subset_rate(self, indices):
        """AND-rate over a subset of constraints (e.g. one catalog kind)."""
        indices = list(indices)
        if not indices:
            return 1.0
        if indices == list(range(len(self.names))):
            return _bool_rate(self.satisfied)
        if len(indices) == 1:  # no copy for single-constraint kinds
            return _bool_rate(self.mask_t[indices[0]])
        return _bool_rate(_and_rows(self.mask_t[indices]))


def _bool_rate(flags):
    """Mean of a boolean vector via ``count_nonzero`` (identical value).

    ``np.mean`` on booleans accumulates 0.0/1.0 exactly (integer sums
    stay exact in float64), so ``count / n`` is the same float — just
    several times faster on serving-sized vectors.
    """
    n = flags.shape[-1] if flags.ndim else 1
    if n == 0:
        return 1.0
    return float(np.count_nonzero(flags) / n)


def _and_rows(mask_t):
    """AND a ``(k, n_cf)`` mask down its rows (contiguous reductions)."""
    k, n_cf = mask_t.shape
    if k == 0:
        return np.ones(n_cf, dtype=bool)
    flags = mask_t[0].copy()
    for row in mask_t[1:]:
        flags &= row
    return flags


class _MonotonicTerm:
    """All monotonic-increase constraints of a set, one slot each."""

    def __init__(self, slots, constraints):
        self.entries = [(slot, c.column, c.tolerance) for slot, c in zip(slots, constraints)]

    def evaluate(self, x, x_cf, n, m, mask_t):
        # identical elementwise ops to MonotonicIncreaseConstraint.satisfied:
        # x_cf[:, col] >= x[:, col] - tol, with the input side broadcast
        # over the m candidates of each row
        for slot, column, tolerance in self.entries:
            lower = x[:, column] - tolerance
            if m == 1:
                np.greater_equal(x_cf[:, column], lower, out=mask_t[slot])
            else:
                np.greater_equal(
                    x_cf[:, column].reshape(n, m),
                    lower[:, None],
                    out=mask_t[slot].reshape(n, m),
                )


class _OrdinalTerm:
    """One ordinal-implication ("cause up => effect up") constraint."""

    def __init__(self, slot, constraint):
        self.slot = slot
        self.categorical = constraint._cause_is_categorical
        if self.categorical:
            self.block = constraint._cause_block
            self.weights = constraint._rank_weights
        else:
            self.cause_column = constraint._cause_column
        self.effect_column = constraint._effect_column
        self.tolerance = constraint.tolerance

    def _cause_values(self, rows):
        if self.categorical:
            return rows[:, self.block] @ self.weights
        return rows[:, self.cause_column]

    def evaluate(self, x, x_cf, n, m, mask_t):
        tol = self.tolerance
        cause_after = self._cause_values(x_cf)
        effect_after = x_cf[:, self.effect_column]
        if m == 1:
            dc = cause_after - self._cause_values(x)
            de = effect_after - x[:, self.effect_column]
        else:
            # input-side terms computed once per input row, broadcast over m
            dc = cause_after.reshape(n, m) - self._cause_values(x)[:, None]
            de = effect_after.reshape(n, m) - x[:, self.effect_column][:, None]
        # equivalent to OrdinalImplicationConstraint.satisfied's case split:
        # cause up needs effect strictly up, cause unchanged needs effect
        # non-decreasing, cause down is vacuously satisfied
        ok = (de > tol) | ((dc <= tol) & (de >= -tol)) | (dc < -tol)
        mask_t[self.slot] = ok.reshape(-1)


class _ImmutableTerm:
    """One immutables-respected audit constraint (max drift per row)."""

    def __init__(self, slot, constraint):
        self.slot = slot
        self.columns = np.flatnonzero(constraint.mask)
        self.tolerance = constraint.tolerance

    def evaluate(self, x, x_cf, n, m, mask_t):
        if len(self.columns) == 0:
            mask_t[self.slot] = True
            return
        after = x_cf[:, self.columns]
        before = x[:, self.columns]
        if m == 1:
            drift = np.abs(after - before)
            mask_t[self.slot] = (drift <= self.tolerance).all(axis=1)
        else:
            drift = np.abs(after.reshape(n, m, -1) - before[:, None, :])
            mask_t[self.slot] = (drift <= self.tolerance).all(axis=2).reshape(-1)


class _OpaqueTerm:
    """Fallback for constraint types without a registered lowering."""

    def __init__(self, slot, constraint):
        self.slot = slot
        self.constraint = constraint

    def evaluate(self, x, x_cf, n, m, mask_t):
        inputs = x if m == 1 else np.repeat(x, m, axis=0)
        mask_t[self.slot] = self.constraint.satisfied(inputs, x_cf)


def _lower(constraints):
    """Group/lower constraints into evaluation terms with mask slots."""
    terms = []
    monotonic = [
        (i, c) for i, c in enumerate(constraints) if type(c) is MonotonicIncreaseConstraint
    ]
    if monotonic:
        terms.append(_MonotonicTerm([i for i, _ in monotonic], [c for _, c in monotonic]))
    for i, constraint in enumerate(constraints):
        if type(constraint) is MonotonicIncreaseConstraint:
            continue
        if type(constraint) is OrdinalImplicationConstraint:
            terms.append(_OrdinalTerm(i, constraint))
        elif type(constraint) is ImmutablesRespected:
            terms.append(_ImmutableTerm(i, constraint))
        else:
            terms.append(_OpaqueTerm(i, constraint))
    return terms


class CompiledConstraintSet:
    """A :class:`ConstraintSet` lowered into one vectorized evaluator.

    Build it through :meth:`ConstraintSet.compile`; evaluation then runs
    in a single fused pass with no per-constraint Python dispatch, no
    per-call constraint rebuilding, and no materialised input repetition
    for candidate sweeps.
    """

    def __init__(self, constraint_set):
        if not isinstance(constraint_set, ConstraintSet):
            constraint_set = ConstraintSet(constraint_set)
        self.source = constraint_set
        self.constraints = constraint_set.constraints
        self.names = tuple(c.name for c in self.constraints)
        self._terms = _lower(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def __repr__(self):
        return f"CompiledConstraintSet(k={len(self)}, names={list(self.names)})"

    def index_of(self, name):
        """Mask-column index of the constraint called ``name``."""
        return self.names.index(name)

    # -- evaluation ---------------------------------------------------------
    @staticmethod
    def _tiling(x, x_cf):
        """Validate shapes; returns ``(x, x_cf, n, m)`` with ``n_cf = n * m``."""
        x = np.asarray(x)
        x_cf = np.asarray(x_cf)
        n, n_cf = len(x), len(x_cf)
        if n == n_cf:
            return x, x_cf, n, 1
        if n == 0 or n_cf % n != 0:
            raise ValueError(
                f"x_cf rows ({n_cf}) must equal or be a multiple of x rows "
                f"({n}) for tiled evaluation"
            )
        return x, x_cf, n, n_cf // n

    def _mask_t(self, x, x_cf):
        x, x_cf, n, m = self._tiling(x, x_cf)
        mask_t = np.empty((len(self.constraints), len(x_cf)), dtype=bool)
        for term in self._terms:
            term.evaluate(x, x_cf, n, m, mask_t)
        return mask_t

    def satisfied_matrix(self, x, x_cf):
        """Fused ``(n_cf, k)`` satisfaction mask.

        ``x_cf`` may hold one counterfactual per input row or a tiled
        candidate sweep (``np.repeat`` layout: candidate rows
        ``i*m .. (i+1)*m - 1`` belong to input row ``i``) — the kernel
        broadcasts input-side terms instead of requiring the caller to
        repeat ``x``.  Bit-identical to
        :meth:`ConstraintSet.satisfied_matrix` on the repeated inputs.
        """
        return self._mask_t(x, x_cf).T

    def satisfied(self, x, x_cf):
        """Row-wise AND over all constraints (drop-in for the loop path)."""
        return _and_rows(self._mask_t(x, x_cf))

    def satisfaction_rate(self, x, x_cf):
        """Fraction of rows satisfying every constraint."""
        if not self.constraints:
            return 1.0
        flags = self.satisfied(x, x_cf)
        return float(flags.mean()) if flags.size else 1.0

    def evaluate(self, x, x_cf):
        """One pass, everything: mask, AND-flags and rates as a report."""
        return FeasibilityReport(self._mask_t(x, x_cf), self.names)
