"""Per-method evaluation bundle — one Table IV row.

``evaluate_counterfactuals`` computes all five Section IV-D metrics for a
batch of counterfactuals against both constraint models, producing the
:class:`MethodReport` the experiment harness assembles into the Table IV
reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constraints import build_constraints
from .proximity import ProximityStats, categorical_proximity, continuous_proximity
from .scores import feasibility_score, sparsity_score, validity_score

__all__ = ["MethodReport", "evaluate_counterfactuals"]


@dataclass(frozen=True)
class MethodReport:
    """All Table IV columns for one method on one dataset.

    ``feasibility_unary`` / ``feasibility_binary`` may be None when the
    method row reports only one constraint model (as the paper does for
    Mahajan et al. and its own two model variants).
    ``mean_knn_distance`` is the density column — the mean region-
    sparsity cost of the selected counterfactuals under the engine's
    density model (mean feasible-reference k-NN distance for the default
    estimator) — and is None when no density model was hosted, so the
    paper's original seven-column table is unchanged.
    ``causal_plausibility`` is the causal column — the percentage of
    rows whose *raw* (pre-repair) selected counterfactual was already
    consistent with the engine's hosted
    :class:`repro.causal.CausalModel` (repair distance at most
    ``CAUSAL_TOLERANCE``) — and is likewise None when no causal model
    was hosted.
    ``cross_model_validity`` / ``robust_validity`` are the robustness
    columns under a hosted :class:`repro.models.BlackBoxEnsemble`:
    the mean percentage of ensemble members the selected counterfactuals
    flip, and the percentage of rows whose member agreement clears the
    runner's quorum.  Both are None when no ensemble was hosted, so the
    single-model table is unchanged.
    """

    method: str
    validity: float
    feasibility_unary: float
    feasibility_binary: float
    continuous_proximity: float
    categorical_proximity: float
    sparsity: float
    n_instances: int = 0
    mean_knn_distance: float = None
    causal_plausibility: float = None
    cross_model_validity: float = None
    robust_validity: float = None

    def as_row(self):
        """Cells in the paper's Table IV column order."""
        return [self.method, self.validity, self.feasibility_unary,
                self.feasibility_binary, self.continuous_proximity,
                self.categorical_proximity, self.sparsity]


def evaluate_counterfactuals(method_name, x, x_cf, desired, blackbox, encoder,
                             stats=None, x_train=None, report_kinds=("unary", "binary"),
                             feasibility_report=None, predicted=None,
                             density_scores=None, causal_scores=None,
                             cross_model_scores=None, robust_flags=None):
    """Compute the full metric bundle for one method's counterfactuals.

    Parameters
    ----------
    method_name:
        Row label.
    x, x_cf:
        Encoded inputs and their counterfactuals.
    desired:
        Desired class per row.
    blackbox:
        Classifier for the validity column.
    encoder:
        Dataset encoder (drives proximity/sparsity feature typing).
    stats:
        Fitted :class:`ProximityStats`; built from ``x_train`` when None.
    x_train:
        Training matrix used to fit ``stats`` if not supplied.
    report_kinds:
        Which feasibility columns to fill; others become None.
    feasibility_report:
        Optional precomputed :class:`repro.engine.FeasibilityReport`
        whose rows align with ``x_cf`` (the engine runner passes the
        report of the run being scored): a requested kind whose
        constraints are all in the report is answered from it without
        re-evaluating anything.  Kinds the report does not cover — or
        every kind, when no report is given — are evaluated afresh with
        ``ConstraintSet.satisfaction_rate``.  Rates are identical either
        way.
    predicted:
        Optional precomputed black-box classes of ``x_cf``; skips the
        validity-column predict call.
    density_scores:
        Optional per-row density costs of ``x_cf`` under a fitted
        :class:`repro.density.DensityModel` (the engine runner passes
        the scores of the run being evaluated); their mean fills the
        report's ``mean_knn_distance`` column.
    causal_scores:
        Optional per-row causal repair distances under a fitted
        :class:`repro.causal.CausalModel` (the engine runner passes the
        pre-repair distances of the run being evaluated); the fraction
        at most ``CAUSAL_TOLERANCE`` fills the report's
        ``causal_plausibility`` column as a percentage.
    cross_model_scores:
        Optional per-row member-agreement fractions in ``[0, 1]`` under
        a hosted :class:`repro.models.BlackBoxEnsemble` (the engine
        runner passes the agreement of the selected candidates); their
        mean fills ``cross_model_validity`` as a percentage.
    robust_flags:
        Optional per-row booleans marking rows whose agreement cleared
        the runner's quorum; their mean fills ``robust_validity`` as a
        percentage.
    """
    x = np.asarray(x)
    x_cf = np.asarray(x_cf)
    if stats is None:
        if x_train is None:
            raise ValueError("provide either fitted stats or x_train")
        stats = ProximityStats(encoder).fit(x_train)

    names = [] if feasibility_report is None else list(feasibility_report.names)
    feasibility = {}
    for kind in ("unary", "binary"):
        if kind not in report_kinds:
            feasibility[kind] = None
            continue
        members = build_constraints(encoder, kind)
        if all(c.name in names for c in members):
            indices = [names.index(c.name) for c in members]
            feasibility[kind] = feasibility_report.subset_rate(indices) * 100.0
        else:
            feasibility[kind] = feasibility_score(members, x, x_cf)

    if predicted is None:
        validity = validity_score(blackbox, x_cf, desired)
    else:
        # identical semantics to validity_score, minus the predict call
        desired_classes = np.asarray(desired, dtype=int)
        validity = float((np.asarray(predicted) == desired_classes).mean() * 100.0) \
            if len(desired_classes) else 0.0

    return MethodReport(
        method=method_name,
        validity=validity,
        feasibility_unary=feasibility["unary"],
        feasibility_binary=feasibility["binary"],
        continuous_proximity=continuous_proximity(x, x_cf, encoder, stats),
        categorical_proximity=categorical_proximity(x, x_cf, encoder),
        sparsity=sparsity_score(x, x_cf, encoder),
        n_instances=len(x),
        mean_knn_distance=(
            None if density_scores is None
            else float(np.mean(density_scores))),
        causal_plausibility=_causal_plausibility(causal_scores),
        cross_model_validity=_percentage(cross_model_scores),
        robust_validity=_percentage(robust_flags),
    )


def _percentage(values):
    """Mean of per-row scores/flags as a percentage, or None when absent."""
    if values is None:
        return None
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(values.mean() * 100.0)


def _causal_plausibility(causal_scores):
    """Percentage of rows whose repair distance is within tolerance."""
    from ..causal import CAUSAL_TOLERANCE

    if causal_scores is None:
        return None
    scores = np.asarray(causal_scores, dtype=np.float64)
    if scores.size == 0:
        return 0.0
    return float((scores <= CAUSAL_TOLERANCE).mean() * 100.0)
