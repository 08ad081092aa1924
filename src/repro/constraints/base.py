"""Causal-constraint interface.

A constraint judges pairs ``(x, x_cf)`` in *encoded* space and plays two
roles in the paper:

1. **Evaluation** — :meth:`Constraint.satisfied` returns a boolean per
   row; the feasibility score of Section IV-D is the satisfied
   percentage.
2. **Learning** — :meth:`Constraint.penalty` returns a differentiable
   scalar that is zero exactly when every row satisfies the constraint;
   it is added to the four-part training loss (Section III-C).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Constraint", "ConstraintSet"]


class Constraint(ABC):
    """One logical causal constraint over encoded feature matrices."""

    #: Human-readable identifier used in reports.
    name = "constraint"

    @abstractmethod
    def satisfied(self, x, x_cf):
        """Boolean array: does each row of ``x_cf`` satisfy the constraint?

        Both arguments are encoded matrices of identical shape.
        """

    @abstractmethod
    def penalty(self, x, x_cf):
        """Differentiable scalar :class:`repro.nn.Tensor` penalty.

        ``x`` is a plain ndarray (the fixed input); ``x_cf`` is a Tensor
        so gradients flow into the generator.  Must be non-negative and
        zero when :meth:`satisfied` holds everywhere.

        Inside a compiled training step (:mod:`repro.nn.compile`) this
        runs on the first two batches of each shape only; later batches
        replay what it recorded without calling it.  Follow the trace
        contract of :mod:`repro.nn.tensor`: compute every array and every
        Python number derived from ``x`` or ``x_cf.data`` through
        :func:`repro.nn.host`.  A fresh array, or a number that differs
        between the first two batches, refuses the step and the fit runs
        eager; a number or branch that first changes on a later batch is
        not detected, and the replay keeps the traced one.
        """

    def satisfaction_rate(self, x, x_cf):
        """Fraction of rows satisfying the constraint (the paper's score / 100).

        Uses ``flags.size`` rather than ``len(flags)`` so 2-D masks (e.g. a
        per-column drift matrix) and 0-row inputs behave consistently: an
        empty evaluation is vacuously satisfied.
        """
        flags = np.asarray(self.satisfied(x, x_cf))
        return float(np.mean(flags)) if flags.size else 1.0

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class ConstraintSet:
    """A collection of constraints evaluated and penalised together."""

    def __init__(self, constraints):
        self.constraints = tuple(constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def satisfied(self, x, x_cf):
        """Row-wise AND over all member constraints, one flag per row of ``x_cf``."""
        return self.compile().satisfied(x, x_cf)

    def satisfied_matrix(self, x, x_cf):
        """Per-constraint ``(n, k)`` mask; column ``j`` is ``constraints[j].satisfied``."""
        return self.compile().satisfied_matrix(x, x_cf)

    def satisfaction_rate(self, x, x_cf):
        """Fraction of rows satisfying *every* constraint."""
        return self.compile().satisfaction_rate(x, x_cf)

    def compile(self):
        """The set as a :class:`repro.engine.CompiledConstraintSet`.

        It holds the one loop over member constraints: each mask row is
        that member's ``satisfied``.  Beyond aligned rows it evaluates
        tiled candidate sweeps (``n * m`` counterfactual rows against
        ``n`` inputs, ``np.repeat`` layout) and returns the full mask,
        the row-wise AND and per-constraint rates from one pass.
        """
        from ..engine.kernel import CompiledConstraintSet

        return CompiledConstraintSet(self)

    def penalty(self, x, x_cf):
        """Sum of member penalties (Tensor scalar, 0 when all satisfied)."""
        from ..nn import Tensor

        total = Tensor(0.0)
        for constraint in self.constraints:
            total = total + constraint.penalty(x, x_cf)
        return total
