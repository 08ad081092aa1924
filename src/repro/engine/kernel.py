"""Feasibility evaluation: every constraint of a set in one pass over a batch.

The paper scores causality (constraint satisfaction) jointly with
sparsity and density over candidate counterfactuals.
``CompiledConstraintSet`` wraps a :class:`repro.constraints.ConstraintSet`
and answers every feasibility question about a batch from one
``(k, n_cf)`` satisfaction mask:

* the full ``(n_cf, k)`` per-constraint satisfaction mask,
* the row-wise AND (the paper's feasibility flag),
* per-constraint and subset (unary/binary kind) satisfaction rates.

Each mask row is its constraint's own ``satisfied`` on aligned rows —
the only implementation of each predicate — so any
:class:`~repro.constraints.base.Constraint` subclass is evaluated the
same way.  A *tiled* candidate sweep (``n * m`` counterfactual rows
against ``n`` input rows, ``np.repeat`` layout) repeats the inputs once
per call and feeds that one matrix to every member.  The mask is stored
transposed (one contiguous row per constraint) so the AND-reduction and
every rate are contiguous-memory operations.
"""

from __future__ import annotations

import numpy as np

from ..constraints.base import ConstraintSet

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


class CompiledConstraintSet:
    """A :class:`ConstraintSet` evaluated into one ``(k, n_cf)`` mask per call.

    Build it through :meth:`ConstraintSet.compile`.  Every evaluation
    method runs :meth:`_mask_t`, the one loop over member constraints;
    ``ConstraintSet.satisfied``, ``satisfied_matrix`` and
    ``satisfaction_rate`` answer through it too.
    """

    def __init__(self, constraint_set):
        if not isinstance(constraint_set, ConstraintSet):
            constraint_set = ConstraintSet(constraint_set)
        self.source = constraint_set
        self.constraints = constraint_set.constraints
        self.names = tuple(c.name for c in self.constraints)

    def __len__(self):
        return len(self.constraints)

    def __repr__(self):
        return f"CompiledConstraintSet(k={len(self)}, names={list(self.names)})"

    def index_of(self, name):
        """Mask-column index of the constraint called ``name``."""
        return self.names.index(name)

    # -- evaluation ---------------------------------------------------------
    def _mask_t(self, x, x_cf):
        """``(k, n_cf)`` mask: row ``j`` is member ``j``'s ``satisfied``.

        ``x_cf`` holds one row per input row, or ``m`` candidates per
        input row in ``np.repeat`` layout; the inputs are then repeated
        once for every member.
        """
        x = np.asarray(x)
        x_cf = np.asarray(x_cf)
        n, n_cf = len(x), len(x_cf)
        if n != n_cf:
            if n == 0 or n_cf % n != 0:
                raise ValueError(
                    f"x_cf rows ({n_cf}) must equal or be a multiple of x rows "
                    f"({n}) for tiled evaluation"
                )
            x = np.repeat(x, n_cf // n, axis=0)
        mask_t = np.empty((len(self.constraints), n_cf), dtype=bool)
        for row, constraint in zip(mask_t, self.constraints):
            row[:] = constraint.satisfied(x, x_cf)
        return mask_t

    def satisfied_matrix(self, x, x_cf):
        """``(n_cf, k)`` satisfaction mask; column ``j`` is member ``j``.

        ``x_cf`` may hold one counterfactual per input row or a tiled
        candidate sweep (``np.repeat`` layout: candidate rows
        ``i*m .. (i+1)*m - 1`` belong to input row ``i``).
        """
        return self._mask_t(x, x_cf).T

    def satisfied(self, x, x_cf):
        """Row-wise AND over all constraints (the paper's feasibility flag)."""
        return _and_rows(self._mask_t(x, x_cf))

    def satisfaction_rate(self, x, x_cf):
        """Fraction of rows satisfying every constraint (1.0 when empty)."""
        if not self.constraints:
            return 1.0
        flags = self.satisfied(x, x_cf)
        return float(flags.mean()) if flags.size else 1.0

    def evaluate(self, x, x_cf):
        """One pass, everything: mask, AND-flags and rates as a report."""
        return FeasibilityReport(self._mask_t(x, x_cf), self.names)
