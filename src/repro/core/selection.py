"""Density-aware counterfactual selection (the paper's Figure 3).

The paper's third theme — *density* — argues that among several feasible
counterfactuals one should pick an example that is (a) close to the
input and (b) inside a dense region of other feasible examples, rejecting
both infeasible candidates and feasible outliers ("a much more demanding
way of getting the loan").

:class:`DensityCFSelector` makes that story executable: it fits a
density model on a feasible reference population and picks, per row,
the candidate that is both close and dense, through the engine runner's
Figure 3 selection over the CF-VAE's latent-perturbation sweep
(``CoreCFStrategy(n_candidates=m)``, the mechanism of Section III-C).
"""

from __future__ import annotations

import warnings

from ..density import KnnDensity
from ..utils.validation import check_2d, check_encoded_rows, check_positive

__all__ = ["DensityCFSelector"]


class DensityCFSelector:
    """Pick counterfactuals that are close *and* in dense feasible regions.

    A wrapper over :class:`repro.engine.EngineRunner`'s Figure 3 density
    selection; ``density_model`` defaults to ``KnnDensity(k_neighbors)``.
    """

    def __init__(self, explainer, density_weight=1.0, k_neighbors=10, density_model=None):
        self.explainer = explainer
        self.density_weight = check_positive(density_weight, "density_weight")
        self.k_neighbors = int(k_neighbors)
        self.density_model = density_model

    def fit_reference(self, x_reference, desired=None):
        """Fit the density model on the valid & feasible CFs of ``x_reference``.

        Wrong-width rows and an empty population raise; one below the k-NN k warns.
        """
        x_reference = check_encoded_rows(x_reference, self.explainer.encoder, "x_reference")
        result = self.explainer.explain(x_reference, desired)
        keep = result.valid & result.feasible
        n_keep = int(keep.sum())
        if n_keep == 0:
            raise ValueError("no valid & feasible reference examples were generated; "
                             "provide more reference rows or relax the constraints")
        if self.density_model is None:
            self.density_model = KnnDensity(k_neighbors=self.k_neighbors)
        model_k = getattr(self.density_model, "k_neighbors", None)  # a KDE has no k
        if model_k is not None and n_keep < model_k:
            warnings.warn(f"only {n_keep} feasible reference examples for k_neighbors="
                          f"{model_k}; density scores will use k={n_keep}", stacklevel=2)
        self.density_model.fit(result.x_cf[keep])
        return self

    @property
    def n_reference(self):
        """Size of the feasible reference population."""
        return 0 if self.density_model is None else self.density_model.n_reference

    def density_score(self, candidates):
        """The estimator's region-sparsity cost (lower = denser)."""
        if self.n_reference == 0:
            raise RuntimeError("selector has no reference; call fit_reference()")
        return self.density_model.score(check_2d(candidates, "candidates"))

    def explain(self, x, n_candidates=20, desired=None, rng=None):
        """``(x_cf, [{"chosen", "n_usable", "n_valid"} per row])`` for ``x``."""
        from ..engine import EngineRunner

        if self.n_reference == 0:
            raise RuntimeError("selector has no reference; call fit_reference()")
        explainer = self.explainer
        runner = EngineRunner(explainer.encoder, explainer.blackbox,
                              constraints=explainer.compiled_constraints,
                              density=self.density_model, density_weight=self.density_weight)
        strategy = explainer.as_strategy(n_candidates=n_candidates, rng=rng)
        result, diagnostics = runner.run(strategy, x, desired, return_diagnostics=True)
        keys = ("chosen", "n_usable", "n_valid")
        return result.x_cf, [{key: int(diagnostics[key][i]) for key in keys}
                             for i in range(len(result.x_cf))]
