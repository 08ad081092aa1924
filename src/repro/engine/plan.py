"""Compiled explain plans: the one implementation of the row -> CF chain.

The pipeline — propose, immutable projection, causal repair, validity,
feasibility mask, density scoring, robust scoring, selection — is
*traced* once at compile time against a fixed ``(runner, strategy)``
pair (following the drjit loop-recording idea) and replayed as a single
sweep over candidate tiles.  :meth:`repro.engine.EngineRunner.run`,
``evaluate``, ``FeasibleCFExplainer.explain`` and every serving path
replay a plan; there is no second, staged implementation:

* the constraint flag columns are resolved once
  (``runner.flag_indices``) instead of per call,
* schema validation runs once at plan entry; every inner stage runs in
  trusted mode (``repair_batch(validate=False)``, no re-encoding or
  re-checking between stages),
* projection, causal repair, the validity call and the constraint-mask
  evaluation are fused into one pass per candidate tile, with each
  tile's sweep reduced to per-row outputs before the next tile starts —
  a tiled backend therefore never materialises the full ``(n, m, d)``
  intermediates,
* the backend seam (:mod:`repro.engine.backends`) decides tiling and
  the predict dtype: the default ``"numpy"`` backend replays the whole
  batch in one float64 tile and is **bit-identical** to the historical
  stage-by-stage chain (the parity suite pins every strategy on every
  registry dataset against the staged reference in
  ``tests/helpers/parity.py``); the ``"float32"`` backend streams
  contiguous tiles with a float32 validity GEMM and is pinned on hard
  outputs.

Every stage calls the exact projector/causal/kernel/selection code the
runner hosts, orchestrated once instead of per request.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..core.result import CFBatchResult
from .kernel import FeasibilityReport
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
    constraint flag columns, lets the backend prepare once (e.g. clone
    the classifier to float32), and then replays the chain for any
    number of :meth:`execute` calls.

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
    backend:
        Backend name or :class:`~repro.engine.backends.PlanBackend`
        instance (default ``"numpy"``).
    """

    def __init__(self, runner, strategy, backend="numpy"):
        from .backends import get_backend

        self.runner = runner
        self.strategy = strategy
        self.backend = get_backend(backend)
        self._flag_indices = list(runner.flag_indices(strategy))
        self._backend_state = self.backend.prepare(runner)
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
        stages.append(PlanStage("predict", f"{self.backend.name} validity"))
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
            "backend": self.backend.describe(),
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
        """Deterministic hash of the traced chain, for serving cache keys."""
        canonical = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __repr__(self):
        chain = " -> ".join(stage.name for stage in self.stages)
        return f"ExplainPlan({chain}; backend={self.backend.name})"

    # -- replay --------------------------------------------------------------
    def execute(self, x, desired=None, return_diagnostics=False):
        """Replay the traced chain; the body behind ``EngineRunner.run``.

        One proposal, then one fused sweep over the backend's candidate
        tiles.  Returns a :class:`CFBatchResult` (and, when asked, the
        diagnostics dict: feasibility report, chosen indices, usable
        counts and the hosted models' per-row scores).
        """
        from ..utils.validation import check_encoded_rows

        runner = self.runner
        x = check_encoded_rows(x, runner.encoder, "x")
        batch = self.strategy.propose(x, desired)
        x, desired = batch.x, batch.desired
        n, m, d = batch.candidates.shape

        run_causal = runner.causal is not None and (runner.causal_repair or return_diagnostics)
        x_cf = np.empty((n, d))
        chosen = np.zeros(n, dtype=int)
        row_predicted = np.empty(n, dtype=int)
        row_feasible = np.empty(n, dtype=bool)
        masks, valids, flag_parts = [], [], []
        causal_parts, cross_parts, robust_parts, robust_sweeps, density_rows = [], [], [], [], []

        for tile in self.backend.tiles(n, m, d):
            t_x, t_desired = x[tile], desired[tile]
            tn = len(t_x)
            cand = runner.project(t_x, batch.candidates[tile])
            t_causal = None
            if run_causal:
                repaired = runner.causal.repair_batch(t_x, cand, validate=False)
                if return_diagnostics:
                    t_causal = np.abs(repaired - cand).sum(axis=2)
                if runner.causal_repair:
                    cand = repaired
            flat = cand.reshape(tn * m, d)

            predicted = self.backend.predict(self._backend_state, runner.blackbox, flat)
            report = runner.kernel.evaluate(t_x, flat)
            flags = report.subset_satisfied(self._flag_indices)
            valid = predicted == np.repeat(t_desired, m)

            t_density = None
            if runner.density is not None and m > 1:
                t_density = runner.density.score_tiled(cand)

            t_cross = t_robust = None
            if runner.ensemble is not None:
                t_cross = runner.ensemble.agreement(flat, np.repeat(t_desired, m)).reshape(tn, m)
                t_robust = t_cross >= runner.robust_quorum

            if m == 1:
                t_x_cf = cand[:, 0, :]
                t_chosen = np.zeros(tn, dtype=int)
                t_row_predicted, t_row_feasible = predicted, flags
            else:
                valid2d, flags2d = valid.reshape(tn, m), flags.reshape(tn, m)
                if t_density is None:
                    t_chosen = _select_candidates(t_x, cand, valid2d, flags2d, robust=t_robust)
                else:
                    t_chosen = _select_candidates_density(
                        t_x, cand, valid2d, flags2d, t_density, runner.density_weight,
                        robust=t_robust,
                    )
                rows = np.arange(tn)
                t_x_cf = cand[rows, t_chosen]
                t_row_predicted = predicted.reshape(tn, m)[rows, t_chosen]
                t_row_feasible = flags.reshape(tn, m)[rows, t_chosen]

            x_cf[tile] = t_x_cf
            chosen[tile] = t_chosen
            row_predicted[tile] = t_row_predicted
            row_feasible[tile] = t_row_feasible
            if return_diagnostics:
                names = report.names
                masks.append(report.mask_t)
                valids.append(valid)
                flag_parts.append(flags)
                if t_causal is not None:
                    causal_parts.append(t_causal[np.arange(tn), t_chosen])
                if t_density is not None:
                    density_rows.append(t_density[np.arange(tn), t_chosen])
                if t_cross is not None:
                    rows = np.arange(tn)
                    cross_parts.append(t_cross[rows, t_chosen])
                    robust_parts.append(t_robust[rows, t_chosen])
                    robust_sweeps.append(t_robust.reshape(-1))

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

        valid_all = np.concatenate(valids)
        flags_all = np.concatenate(flag_parts)
        diagnostics = {
            "report": FeasibilityReport(np.concatenate(masks, axis=1), names),
            "chosen": chosen,
            "n_candidates": m,
            "n_usable": (valid_all & flags_all).reshape(n, m).sum(axis=1),
            "candidate_validity": float(valid_all.mean()) if valid_all.size else 0.0,
        }
        if runner.density is not None:
            if density_rows:
                diagnostics["row_density"] = np.concatenate(density_rows)
            else:
                # m == 1: score the selected rows in one full-batch query
                diagnostics["row_density"] = runner.density.score(x_cf)
        if causal_parts:
            diagnostics["row_causal"] = np.concatenate(causal_parts)
        if runner.ensemble is not None:
            # candidate_robustness averages the *full sweep*, not the
            # selected rows
            sweep = np.concatenate(robust_sweeps) if robust_sweeps else np.empty(0, dtype=bool)
            diagnostics["row_cross_validity"] = np.concatenate(cross_parts)
            diagnostics["row_robust"] = np.concatenate(robust_parts)
            diagnostics["candidate_robustness"] = float(sweep.mean()) if sweep.size else 0.0
        return result, diagnostics

    # -- Table IV scoring ----------------------------------------------------
    def evaluate(self, x, desired=None, **kwargs):
        """Table IV scoring through this plan; see ``EngineRunner.evaluate``."""
        return self.runner.evaluate(self.strategy, x, desired, plan=self, **kwargs)
