"""Batch-first engine runner shared by every strategy and the serving layer.

Before the engine existed, the evaluation plumbing around counterfactual
generation was forked three ways: ``core/explainer.py`` ran its own
project/predict/feasibility loop, every baseline re-implemented immutable
projection and validity checks inside ``BaseCFExplainer``, and the
serving layer only knew how to drive the core path.  ``EngineRunner``
hosts that plumbing exactly once, and :class:`~repro.engine.plan.ExplainPlan`
is its one implementation — :meth:`EngineRunner.run` replays the
strategy's compiled plan:

1. ask a :class:`~repro.engine.strategy.CFStrategy` for raw candidates,
2. project immutable attributes for the whole ``(n, m, d)`` batch in one
   broadcast assignment,
3. causally repair the projected batch in one ``repair_batch`` pass when
   the runner hosts a fitted :class:`repro.causal.CausalModel`,
4. run ONE black-box validity call and ONE compiled-kernel feasibility
   pass over all candidates,
5. select a winner per row (closest valid & feasible, mirroring the
   serving policy — or the Figure 3 proximity+density score when the
   runner hosts a fitted :class:`repro.density.DensityModel`) and
6. optionally score the batch into a Table IV :class:`MethodReport`
   (including the density and causal-plausibility columns when the
   matching models are hosted).

Outputs are bit-identical to the pre-engine per-method paths — the
parity tests in ``tests/engine/`` hold the line against a staged
reference kept in ``tests/helpers/parity.py`` — and a runner without a
density model runs the exact pre-density code path.
"""

from __future__ import annotations

import numpy as np

from ..constraints import ConstraintSet, ImmutableProjector, build_constraints
from ..utils.validation import check_positive
from .kernel import CompiledConstraintSet, FeasibilityReport

__all__ = ["EngineRunner"]


class EngineRunner:
    """Shared propose -> project -> validate -> select -> score pipeline.

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder`.
    blackbox:
        Trained classifier (validity checks).
    constraints:
        Constraint set defining feasibility.  Defaults to the *union*
        catalog set for the encoder's dataset (the binary-kind set, which
        contains the unary constraints), so one kernel pass can answer
        both Table IV feasibility columns.  A
        :class:`CompiledConstraintSet` is accepted directly.
    density:
        Optional *fitted* :class:`repro.density.DensityModel`.  When
        hosted, every strategy's multi-candidate batches are selected by
        the Figure 3 standardized proximity+density score (one tiled
        density query for the whole sweep), per-row density costs appear
        in the run diagnostics, and :meth:`evaluate` fills the Table IV
        density column.  ``None`` (the default) keeps the historical
        closest-L1 selection bit for bit.
    density_weight:
        Trade-off ``lambda`` of the density-aware selection score; a
        finite value > 0 (a negative one would invert Figure 3 and prefer
        sparse regions, and NaN would make every score NaN).
    causal:
        Optional *fitted* :class:`repro.causal.CausalModel`.  When
        hosted, every strategy's candidate batches are causally repaired
        between immutable projection and the feasibility kernel (ONE
        batched ``repair_batch`` pass for the whole ``(n, m, d)``
        sweep), per-row causal inconsistency costs appear in the run
        diagnostics, and :meth:`evaluate` fills the Table IV
        ``causal_plausibility`` column.  ``None`` (the default) keeps
        the historical pipeline bit for bit.
    ensemble:
        Optional trained :class:`repro.models.BlackBoxEnsemble`.  When
        hosted, every candidate sweep is additionally scored against all
        K member models in ONE fused pass
        (:meth:`~repro.models.BlackBoxEnsemble.agreement`), a robust
        pool (valid & feasible & quorum-robust) is prepended to the
        selection cascade, per-row cross-model agreement appears in the
        run diagnostics, and :meth:`evaluate` fills the Table IV
        ``cross_model_validity`` / ``robust_validity`` columns.
        ``None`` (the default) keeps the single-model pipeline bit for
        bit.
    robust_quorum:
        Fraction of ensemble members that must classify a candidate as
        its desired class for it to count as robust (default 0.5).
    """

    def __init__(
        self,
        encoder,
        blackbox,
        constraints=None,
        density=None,
        density_weight=1.0,
        causal=None,
        ensemble=None,
        robust_quorum=0.5,
    ):
        self.encoder = encoder
        self.blackbox = blackbox
        if constraints is None:
            constraints = build_constraints(encoder, "binary")
        if isinstance(constraints, CompiledConstraintSet):
            self.kernel = constraints
        else:
            if not isinstance(constraints, ConstraintSet):
                constraints = ConstraintSet(constraints)
            self.kernel = constraints.compile()
        self.projector = ImmutableProjector(encoder)
        self.density = density
        self.density_weight = check_positive(density_weight, "density_weight")
        self.causal = causal
        self.ensemble = ensemble
        if not 0.0 < float(robust_quorum) <= 1.0:
            raise ValueError(
                f"robust_quorum must be in (0, 1], got {robust_quorum}")
        self.robust_quorum = float(robust_quorum)
        #: ``(strategy, plan)`` single-slot memo behind
        #: :meth:`plan_for`.
        self._plan_memo = None

    # -- constraint bookkeeping ---------------------------------------------
    def flag_indices(self, strategy):
        """Mask columns defining a strategy's own feasibility flags.

        Strategies trained against a specific constraint set (the core
        method, Mahajan) are flagged against exactly that set; everything
        else is flagged against the full kernel.
        """
        constraints = getattr(strategy, "constraints", None)
        if constraints is None:
            return list(range(len(self.kernel)))
        try:
            return [self.kernel.index_of(c.name) for c in constraints]
        except ValueError:
            return list(range(len(self.kernel)))

    # -- compiled plans -----------------------------------------------------
    def compile(self, strategy):
        """Trace the fixed chain for ``strategy`` into a fresh :class:`ExplainPlan`.

        The plan resolves the constraint flag columns once, then replays
        the whole pipeline as one whole-batch pass per
        :meth:`ExplainPlan.execute` call.
        """
        from .plan import ExplainPlan

        return ExplainPlan(self, strategy)

    # -- core pipeline ------------------------------------------------------
    def project(self, x, candidates):
        """Immutable projection over a full ``(n, m, d)`` candidate batch."""
        return self.projector.project(x, candidates)

    def plan_for(self, strategy):
        """The memoised :class:`ExplainPlan` for ``strategy``.

        A single-slot memo keyed on the strategy's identity: serving the
        same strategy again replays the plan compiled for it, while a
        different strategy compiles afresh and replaces the slot — so
        the runner never holds more than one plan (and one strategy)
        alive.
        """
        memo = self._plan_memo
        if memo is not None and memo[0] is strategy:
            return memo[1]
        plan = self.compile(strategy)
        self._plan_memo = (strategy, plan)
        return plan

    def run(self, strategy, x, desired=None, return_diagnostics=False, plan=None):
        """Explain ``x`` with ``strategy``; returns a :class:`CFBatchResult`.

        Replays the strategy's compiled :class:`ExplainPlan`
        (:meth:`plan_for`): one strategy proposal, one broadcast
        projection, one validity call, one fused feasibility pass —
        regardless of how many candidates per row the strategy proposed.
        Multi-candidate batches are reduced to one counterfactual per
        row by the serving selection policy: closest by L1 among valid &
        feasible, then valid-only, then the first (deterministic)
        candidate.

        ``plan`` replays an explicitly compiled plan (from
        :meth:`compile`) instead; ``strategy``
        may then be ``None`` (the plan carries its own) but must
        otherwise be the compiled strategy.
        """
        if plan is None:
            plan = self.plan_for(strategy)
        elif plan.runner is not self:
            raise ValueError("plan was compiled against a different runner")
        elif strategy is not None and plan.strategy is not strategy:
            raise ValueError("plan was compiled for a different strategy instance")
        return plan.execute(x, desired, return_diagnostics=return_diagnostics)

    # -- Table IV scoring ---------------------------------------------------
    def evaluate(
        self,
        strategy,
        x,
        desired=None,
        stats=None,
        x_train=None,
        report_kinds=("unary", "binary"),
        method_name=None,
        plan=None,
    ):
        """Fit-free evaluation: one engine run scored as a Table IV row.

        Produces the exact :class:`repro.metrics.MethodReport` the
        pre-engine harness computed — validity, per-kind feasibility,
        proximity and sparsity — reusing the run's own predict call and
        kernel pass instead of re-evaluating the scored rows.  A hosted
        density model additionally fills the report's
        ``mean_knn_distance`` column from the run's own density scores.
        ``plan`` scores through an explicitly compiled
        :class:`ExplainPlan` instead of the strategy's memoised one.
        """
        from ..metrics import evaluate_counterfactuals

        result, diagnostics = self.run(
            strategy, x, desired, return_diagnostics=True, plan=plan)
        report = diagnostics["report"]
        m = diagnostics["n_candidates"]
        if m > 1:
            # keep only each row's selected candidate from the sweep mask
            selected = np.arange(len(result.x)) * m + diagnostics["chosen"]
            report = FeasibilityReport(report.mask_t[:, selected], report.names)
        return evaluate_counterfactuals(
            method_name or strategy.name,
            result.x,
            result.x_cf,
            result.desired,
            self.blackbox,
            self.encoder,
            stats=stats,
            x_train=x_train,
            report_kinds=report_kinds,
            feasibility_report=report,
            predicted=result.predicted,
            density_scores=diagnostics.get("row_density"),
            causal_scores=diagnostics.get("row_causal"),
            cross_model_scores=diagnostics.get("row_cross_validity"),
            robust_flags=diagnostics.get("row_robust"),
        )


def standardize_rows(values):
    """Standardise each row of ``values`` to zero mean and unit spread.

    A near-constant row (spread below 1e-12) becomes all zeros, so it
    cannot sway the Figure 3 score.  Row by row this is exactly the
    historical per-candidate-set math (``tests/helpers/loops.py``).
    """
    mean = values.mean(axis=1, keepdims=True)
    spread = values.std(axis=1, keepdims=True)
    degenerate = spread < 1e-12
    return np.where(degenerate, 0.0, (values - mean) / np.where(degenerate, 1.0, spread))


def argmax_by_pools(scores, pools):
    """Per-row argmax of ``scores`` under a preference-ordered pool cascade.

    ``pools`` is an iterable of ``(n, m)`` boolean masks in preference
    order; each row picks the highest-scoring candidate inside its first
    non-empty pool (an all-ones fallback pool is appended).  Equivalent
    to ``pool[np.argmax(scores[pool])]`` applied row by row — including
    the first-occurrence tie-break.
    """
    stack = np.stack([*pools, np.ones(scores.shape, dtype=bool)])
    first = stack.any(axis=2).argmax(axis=0)
    pool = stack[first, np.arange(len(scores))]
    return np.argmax(np.where(pool, scores, -np.inf), axis=1)


def _selection_pools(valid, feasible, robust=None):
    """The serving preference cascade, optionally led by a robust pool.

    Without an ensemble the pools are the historical pair (valid &
    feasible, then valid).  A hosted ensemble prepends candidates that
    additionally clear the robustness quorum, so a quorum-robust
    counterfactual wins whenever one exists while rows without any fall
    back to exactly the single-model choice.
    """
    pools = (valid & feasible, valid)
    if robust is None:
        return pools
    return (valid & feasible & robust,) + pools


def _select_candidates(x, candidates, valid, feasible, robust=None):
    """Vectorized per-row candidate choice (the serving policy).

    Preference order: valid & feasible (& quorum-robust first, when an
    ensemble is hosted), then valid, then candidate 0 (the deterministic
    decode).  Within a pool the candidate closest to the input by L1
    distance wins.
    """
    distances = np.abs(candidates - x[:, None, :]).sum(axis=2)
    first = np.zeros(distances.shape, dtype=bool)
    first[:, 0] = True
    return argmax_by_pools(-distances, _selection_pools(valid, feasible, robust) + (first,))


def _select_candidates_density(x, candidates, valid, feasible, density, weight,
                               robust=None):
    """Vectorized per-row choice under the Figure 3 proximity+density score.

    Same pool cascade as :func:`_select_candidates` (robust when hosted,
    valid & feasible, then valid), but within a pool the winner
    maximises the standardized ``-proximity - weight * density``
    combination instead of pure closeness, and a row with no valid
    candidate takes the best score over all of them.
    ``repro.core.DensityCFSelector`` is a wrapper over this selection.
    """
    proximity = np.abs(candidates - x[:, None, :]).sum(axis=2)
    scores = -standardize_rows(proximity) - weight * standardize_rows(density)
    return argmax_by_pools(scores, _selection_pools(valid, feasible, robust))
