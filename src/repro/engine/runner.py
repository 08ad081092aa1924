"""Batch-first engine runner shared by every strategy and the serving layer.

Before the engine existed, the evaluation plumbing around counterfactual
generation was forked three ways: ``core/explainer.py`` ran its own
project/predict/feasibility loop, every baseline re-implemented immutable
projection and validity checks inside ``BaseCFExplainer``, and the
serving layer only knew how to drive the core path.  ``EngineRunner``
hosts that plumbing exactly once, and :meth:`EngineRunner.run` is the
one way to turn rows into counterfactuals — the explain chain:

1. ask a :class:`~repro.engine.strategy.CFStrategy` for raw candidates,
2. project immutable attributes for the whole ``(n, m, d)`` batch in one
   broadcast assignment,
3. causally repair the projected batch in one ``repair_batch`` pass when
   the runner hosts a fitted :class:`repro.causal.CausalModel`,
4. run ONE black-box validity call and ONE feasibility pass
   (:class:`CompiledConstraintSet`) over all candidates,
5. select a winner per row (closest valid & feasible, mirroring the
   serving policy — or the Figure 3 proximity+density score when the
   runner hosts a fitted :class:`repro.density.DensityModel`) and
6. optionally score the batch into a Table IV :class:`MethodReport`
   (including the density and causal-plausibility columns when the
   matching models are hosted).

Rows are validated once, at the chain's entry; every inner stage runs
in trusted mode (``repair_batch(validate=False)``).  Outputs are
bit-identical to the historical stage-by-stage chain — the parity tests
in ``tests/engine/`` hold the line against a staged reference kept in
``tests/helpers/parity.py`` — and a runner without a density model runs
the exact pre-density code path.
"""

from __future__ import annotations

import numpy as np

from ..constraints import ImmutableProjector, build_constraints
from ..core.result import CFBatchResult
from ..utils.validation import check_encoded_rows, check_positive
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
        both Table IV feasibility columns.
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
        self.kernel = CompiledConstraintSet(constraints)
        self.projector = ImmutableProjector(encoder)
        self.density = density
        self.density_weight = check_positive(density_weight, "density_weight")
        self.causal = causal
        self.ensemble = ensemble
        if not 0.0 < float(robust_quorum) <= 1.0:
            raise ValueError(
                f"robust_quorum must be in (0, 1], got {robust_quorum}")
        self.robust_quorum = float(robust_quorum)

    # -- constraint bookkeeping ---------------------------------------------
    def flag_indices(self, strategy):
        """Mask columns defining a strategy's own feasibility flags.

        A strategy trained against a specific constraint set (the core
        method, Mahajan) is flagged against exactly that set; everything
        else is flagged against the full kernel.  Raises ``ValueError`` when
        the strategy's set holds a constraint the kernel does not, since
        no flag of this runner could answer for it.
        """
        constraints = getattr(strategy, "constraints", None)
        if constraints is None:
            return list(range(len(self.kernel)))
        missing = [c.name for c in constraints if c.name not in self.kernel.names]
        if missing:
            raise ValueError(
                f"strategy {strategy.name!r} is flagged against constraints the "
                f"runner does not evaluate: {missing}; build the runner with "
                f"constraints=... including them")
        return [self.kernel.index_of(c.name) for c in constraints]

    # -- core pipeline ------------------------------------------------------
    def project(self, x, candidates):
        """Immutable projection over a full ``(n, m, d)`` candidate batch."""
        return self.projector.project(x, candidates)

    def run(self, strategy, x, desired=None, return_diagnostics=False):
        """Explain ``x`` with ``strategy``; returns a :class:`CFBatchResult`.

        One strategy proposal, then one pass over the whole ``(n, m, d)``
        candidate sweep: one broadcast projection, one causal repair (when
        hosted), one validity call, one fused feasibility pass —
        regardless of how many candidates per row the strategy proposed.
        Multi-candidate batches are reduced to one counterfactual per
        row by the serving selection policy: closest by L1 among valid &
        feasible, then valid-only, then the first (deterministic)
        candidate.  Feasibility flags come from the strategy's own
        constraint columns (:meth:`flag_indices`).

        With ``return_diagnostics`` it also returns a dict: the sweep's
        feasibility report, chosen indices, usable and valid counts and
        the hosted models' per-row scores.  The runner keeps no
        per-call state, so threads may share one.
        """
        x = check_encoded_rows(x, self.encoder, "x")
        flag_indices = self.flag_indices(strategy)
        batch = strategy.propose(x, desired)
        x, desired = batch.x, batch.desired
        n, m, d = batch.candidates.shape

        cand = self.project(x, batch.candidates)
        row_causal = None
        if self.causal is not None:
            repaired = self.causal.repair_batch(x, cand, validate=False)
            if return_diagnostics:
                row_causal = np.abs(repaired - cand).sum(axis=2)
            cand = repaired
        flat = cand.reshape(n * m, d)

        predicted = self.blackbox.predict(flat)
        report = self.kernel.evaluate(x, flat)
        flags = report.subset_satisfied(flag_indices)
        valid = predicted == np.repeat(desired, m)

        density = None
        if self.density is not None and m > 1:
            density = self.density.score_tiled(cand)

        cross = robust = None
        if self.ensemble is not None:
            cross = self.ensemble.agreement(flat, np.repeat(desired, m)).reshape(n, m)
            robust = cross >= self.robust_quorum

        rows = np.arange(n)
        if m == 1:
            x_cf = cand[:, 0, :]
            chosen = np.zeros(n, dtype=int)
            row_predicted, row_feasible = predicted, flags
        else:
            valid2d, flags2d = valid.reshape(n, m), flags.reshape(n, m)
            if density is None:
                chosen = _select_candidates(x, cand, valid2d, flags2d, robust=robust)
            else:
                chosen = _select_candidates_density(
                    x, cand, valid2d, flags2d, density, self.density_weight, robust=robust
                )
            x_cf = cand[rows, chosen]
            row_predicted = predicted.reshape(n, m)[rows, chosen]
            row_feasible = flags.reshape(n, m)[rows, chosen]

        result = CFBatchResult(
            x=x,
            x_cf=x_cf,
            desired=desired,
            predicted=row_predicted,
            valid=row_predicted == desired,
            feasible=row_feasible,
            encoder=self.encoder,
        )
        if not return_diagnostics:
            return result

        diagnostics = {
            "report": report,
            "chosen": chosen,
            "n_candidates": m,
            "n_usable": (valid & flags).reshape(n, m).sum(axis=1),
            "n_valid": valid.reshape(n, m).sum(axis=1),
            "candidate_validity": float(valid.mean()) if valid.size else 0.0,
        }
        if self.density is not None:
            if density is not None:
                diagnostics["row_density"] = density[rows, chosen]
            else:
                # m == 1: score the selected rows in one full-batch query
                diagnostics["row_density"] = self.density.score(x_cf)
        if row_causal is not None:
            diagnostics["row_causal"] = row_causal[rows, chosen]
        if self.ensemble is not None:
            # candidate_robustness averages the *full sweep*, not the
            # selected rows
            sweep = robust.reshape(-1)
            diagnostics["row_cross_validity"] = cross[rows, chosen]
            diagnostics["row_robust"] = robust[rows, chosen]
            diagnostics["candidate_robustness"] = float(sweep.mean()) if sweep.size else 0.0
        return result, diagnostics

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
    ):
        """Fit-free evaluation: one engine run scored as a Table IV row.

        Produces the exact :class:`repro.metrics.MethodReport` the
        pre-engine harness computed — validity, per-kind feasibility,
        proximity and sparsity — reusing the run's own predict call and
        kernel pass instead of re-evaluating the scored rows.  A hosted
        density model additionally fills the report's
        ``mean_knn_distance`` column from the run's own density scores.
        """
        from ..metrics import evaluate_counterfactuals

        result, diagnostics = self.run(strategy, x, desired, return_diagnostics=True)
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

    The mean and spread are the ufunc reductions ``values.mean`` and
    ``values.std`` run for float rows (numpy's ``_methods._mean`` and
    ``_var``), sharing the centred values, so the bits are the same.
    """
    width = values.shape[1]
    centred = values - np.add.reduce(values, axis=1, keepdims=True) / width
    spread = np.sqrt(np.add.reduce(centred * centred, axis=1, keepdims=True) / width)
    degenerate = spread < 1e-12
    return np.where(degenerate, 0.0, centred / np.where(degenerate, 1.0, spread))


def argmax_by_pools(scores, pools):
    """Per-row argmax of ``scores`` under a preference-ordered pool cascade.

    ``pools`` is an iterable of ``(n, m)`` boolean masks in preference
    order; each row picks the highest-scoring candidate inside its first
    non-empty pool (an all-ones fallback pool is appended).  Equivalent
    to ``pool[np.argmax(scores[pool])]`` applied row by row — including
    the first-occurrence tie-break.
    """
    pool = True  # the fallback: every candidate
    for mask in reversed(tuple(pools)):
        pool = np.where(np.logical_or.reduce(mask, axis=1, keepdims=True), mask, pool)
    return np.where(pool, scores, -np.inf).argmax(axis=1)


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
    distances = np.add.reduce(np.abs(candidates - x[:, None, :]), axis=2)
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
    proximity = np.add.reduce(np.abs(candidates - x[:, None, :]), axis=2)
    scores = -standardize_rows(proximity) - weight * standardize_rows(density)
    return argmax_by_pools(scores, _selection_pools(valid, feasible, robust))
