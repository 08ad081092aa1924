"""Compiled explain plans: the one implementation of the row -> CF chain.

The pipeline — propose, immutable projection, causal repair, validity,
feasibility mask, density scoring, robust scoring, selection — is
*traced* once at compile time against a fixed ``(runner, strategy)``
pair (following the drjit loop-recording idea) and replayed as one
whole-batch pass.  :meth:`repro.engine.EngineRunner.run`, ``evaluate``,
``FeasibleCFExplainer.explain`` and every serving path replay a plan;
there is no second, staged implementation:

* the constraint flag columns are resolved once
  (``runner.flag_indices``) instead of per call,
* schema validation runs once at plan entry; every inner stage runs in
  trusted mode (``repair_batch(validate=False)``, no re-encoding or
  re-checking between stages),
* projection, causal repair, the validity call and the constraint-mask
  evaluation each run once over the full ``(n, m, d)`` sweep in
  float64, which keeps the replay **bit-identical** to the historical
  stage-by-stage chain (the parity suite pins every strategy on every
  registry dataset against the staged reference in
  ``tests/helpers/parity.py``).

Every stage calls the exact projector/causal/kernel/selection code the
runner hosts, orchestrated once instead of per request.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..core.result import CFBatchResult
from .runner import _select_candidates, _select_candidates_density

__all__ = ["ExplainPlan", "PlanStage"]


@dataclass(frozen=True)
class PlanStage:
    """One traced pipeline stage: a name and a human-readable detail."""

    name: str
    detail: str


class ExplainPlan:
    """A traced, replayable explain pipeline for one (runner, strategy) pair.

    Build one through :meth:`repro.engine.EngineRunner.compile`.  The
    plan records the fixed stage chain the runner's hosted-model
    configuration implies (:attr:`stages`), precompiles the per-strategy
    constraint flag columns, and then replays the chain for any number
    of :meth:`execute` calls.

    Parameters
    ----------
    runner:
        The :class:`~repro.engine.runner.EngineRunner` whose chain is
        traced (encoder, kernel and hosted models are read from it).
    strategy:
        Fitted :class:`~repro.engine.strategy.CFStrategy` the plan
        proposes through.  The flag columns are resolved against this
        strategy at compile time, so re-pointing its constraint set
        after compiling requires recompiling.
    """

    def __init__(self, runner, strategy):
        self.runner = runner
        self.strategy = strategy
        self._flag_indices = list(runner.flag_indices(strategy))
        self.stages = self._trace()

    # -- trace ---------------------------------------------------------------
    def _trace(self):
        """Record the fixed stage chain the runner configuration implies."""
        runner = self.runner
        stages = [
            PlanStage("propose", type(self.strategy).__name__),
            PlanStage("project", "broadcast immutable projection"),
        ]
        if runner.causal is not None:
            verb = "repair" if runner.causal_repair else "score"
            stages.append(PlanStage("causal", f"{type(runner.causal).__name__} ({verb})"))
        stages.append(PlanStage("predict", "black-box validity"))
        stages.append(
            PlanStage(
                "feasibility",
                f"{len(runner.kernel)} constraints, {len(self._flag_indices)} flagged",
            )
        )
        if runner.density is not None:
            stages.append(PlanStage("density", type(runner.density).__name__))
        if runner.ensemble is not None:
            stages.append(
                PlanStage(
                    "robust",
                    f"K={runner.ensemble.n_members} @ q={runner.robust_quorum}",
                )
            )
        detail = "proximity+density score" if runner.density is not None else "closest-L1"
        stages.append(PlanStage("select", detail))
        return tuple(stages)

    # -- identity ------------------------------------------------------------
    def describe(self):
        """JSON-able identity dict; the basis of :meth:`fingerprint`."""
        runner = self.runner
        return {
            "strategy": self.strategy.fingerprint(),
            "stages": [[stage.name, stage.detail] for stage in self.stages],
            "flag_indices": list(self._flag_indices),
            "constraints": list(self.runner.kernel.names),
            "density": None if runner.density is None else runner.density.fingerprint(),
            "density_weight": runner.density_weight,
            "causal": None if runner.causal is None else runner.causal.fingerprint(),
            "causal_repair": runner.causal_repair,
            "ensemble": None if runner.ensemble is None else runner.ensemble.fingerprint(),
            "robust_quorum": runner.robust_quorum,
        }

    def fingerprint(self):
        """Deterministic hash of the traced chain (its :meth:`describe` dict)."""
        canonical = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __repr__(self):
        chain = " -> ".join(stage.name for stage in self.stages)
        return f"ExplainPlan({chain})"

    # -- replay --------------------------------------------------------------
    def execute(self, x, desired=None, return_diagnostics=False):
        """Replay the traced chain; the body behind ``EngineRunner.run``.

        One proposal, then one pass over the whole ``(n, m, d)``
        candidate sweep.  Returns a :class:`CFBatchResult` (and, when
        asked, the diagnostics dict: feasibility report, chosen indices,
        usable and valid counts and the hosted models' per-row scores).
        """
        from ..utils.validation import check_encoded_rows

        runner = self.runner
        x = check_encoded_rows(x, runner.encoder, "x")
        batch = self.strategy.propose(x, desired)
        x, desired = batch.x, batch.desired
        n, m, d = batch.candidates.shape

        cand = runner.project(x, batch.candidates)
        row_causal = None
        if runner.causal is not None and (runner.causal_repair or return_diagnostics):
            repaired = runner.causal.repair_batch(x, cand, validate=False)
            if return_diagnostics:
                row_causal = np.abs(repaired - cand).sum(axis=2)
            if runner.causal_repair:
                cand = repaired
        flat = cand.reshape(n * m, d)

        predicted = runner.blackbox.predict(flat)
        report = runner.kernel.evaluate(x, flat)
        flags = report.subset_satisfied(self._flag_indices)
        valid = predicted == np.repeat(desired, m)

        density = None
        if runner.density is not None and m > 1:
            density = runner.density.score_tiled(cand)

        cross = robust = None
        if runner.ensemble is not None:
            cross = runner.ensemble.agreement(flat, np.repeat(desired, m)).reshape(n, m)
            robust = cross >= runner.robust_quorum

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
                    x, cand, valid2d, flags2d, density, runner.density_weight, robust=robust
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
            encoder=runner.encoder,
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
        if runner.density is not None:
            if density is not None:
                diagnostics["row_density"] = density[rows, chosen]
            else:
                # m == 1: score the selected rows in one full-batch query
                diagnostics["row_density"] = runner.density.score(x_cf)
        if row_causal is not None:
            diagnostics["row_causal"] = row_causal[rows, chosen]
        if runner.ensemble is not None:
            # candidate_robustness averages the *full sweep*, not the
            # selected rows
            sweep = robust.reshape(-1)
            diagnostics["row_cross_validity"] = cross[rows, chosen]
            diagnostics["row_robust"] = robust[rows, chosen]
            diagnostics["candidate_robustness"] = float(sweep.mean()) if sweep.size else 0.0
        return result, diagnostics

    # -- Table IV scoring ----------------------------------------------------
    def evaluate(self, x, desired=None, **kwargs):
        """Table IV scoring through this plan; see ``EngineRunner.evaluate``."""
        return self.runner.evaluate(self.strategy, x, desired, plan=self, **kwargs)
