"""Density-aware counterfactual selection (the paper's Figure 3).

The paper's third theme — *density* — argues that among several feasible
counterfactuals one should pick an example that is (a) close to the
input and (b) inside a dense region of other feasible examples, rejecting
both infeasible candidates and feasible outliers ("a much more demanding
way of getting the loan").

This module makes that story executable:

* :func:`generate_candidates` draws a diverse candidate set per input by
  perturbing the CF-VAE's latent code (the mechanism of Section III-C).
* :class:`DensityCFSelector` fits a density model on a feasible
  reference population and picks, per row, the candidate that is both
  close and dense, through the engine runner's Figure 3 selection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..density import KnnDensity
from ..utils.validation import check_2d, check_encoded_rows, check_positive, resolve_desired

__all__ = ["CandidateSet", "generate_candidates", "DensityCFSelector",
           "candidate_noise_defaults", "perturb_latents"]


def candidate_noise_defaults(explainer, noise_scale=None, rng=None):
    """Shared latent-noise defaults for candidate sweeps.

    One definition of the diversity stream — the ``seed + 500`` rng and
    the ``max(latent_noise, 0.05)`` floor — used by both
    :func:`generate_candidates` and the engine's diverse
    ``CoreCFStrategy`` so the two can never drift apart.
    """
    rng = rng or np.random.default_rng(explainer.seed + 500)
    if noise_scale is None:
        noise_scale = max(explainer.generator.config.latent_noise, 0.05)
    return noise_scale, rng


def perturb_latents(mu, n_candidates, noise_scale, rng):
    """Perturbed latent grid: per row, candidate 0 is the zero-noise decode.

    Noise for every row is drawn in a single generator call in row-major
    order, so the grid is identical to sampling each row sequentially.
    Returns the ``(n_rows * n_candidates, latent_dim)`` stack in
    ``np.repeat`` order.
    """
    n_rows, latent_dim = mu.shape
    noise = rng.normal(0.0, noise_scale, size=(n_rows, n_candidates, latent_dim))
    noise[:, 0, :] = 0.0  # always include the deterministic candidate
    return (mu[:, None, :] + noise).reshape(n_rows * n_candidates, latent_dim)


@dataclass
class CandidateSet:
    """Candidate counterfactuals for a single input row.

    Attributes
    ----------
    x:
        The input row, shape (d,).
    candidates:
        Candidate counterfactuals, shape (n, d).
    valid:
        Black-box reaches the desired class, per candidate.
    feasible:
        Causal constraints satisfied, per candidate.
    """

    x: np.ndarray
    candidates: np.ndarray
    valid: np.ndarray
    feasible: np.ndarray

    def __len__(self):
        return len(self.candidates)

    @property
    def usable_mask(self):
        """Valid AND feasible candidates (the paper's acceptance set)."""
        return self.valid & self.feasible


def generate_candidates(explainer, x, n_candidates=20, noise_scale=None,
                        desired=None, rng=None):
    """Draw diverse counterfactual candidates via latent perturbation.

    For each row of ``x`` the trained generator is sampled
    ``n_candidates`` times with Gaussian latent noise — the "perturbed
    the output of the encoder" step of Section III-C used as a diversity
    mechanism.  Returns a list of :class:`CandidateSet`, one per row.

    Fully vectorized: all ``n_rows * n_candidates`` latents decode in one
    batched pass through the graph-free VAE path, followed by ONE
    black-box validity call and ONE fused feasibility pass through the
    compiled constraint kernel.  Immutable projection and feasibility
    both evaluate *tiled* — input-side terms broadcast over the
    candidates — so the repeated input matrix is never materialised.
    The noise for every row is drawn in a single generator call in
    row-major order, so the output is identical to sampling each row
    sequentially (the per-row reference in ``tests/helpers/loops.py``).
    """
    x, n_candidates, rng, noise_scale, desired = _candidate_args(
        explainer, x, n_candidates, noise_scale, desired, rng)
    generator = explainer.generator
    vae = generator.vae
    vae.eval()
    mu, _ = vae.encode_array(x, desired)

    n_rows = len(mu)
    z = perturb_latents(mu, n_candidates, noise_scale, rng)
    labels = np.repeat(np.asarray(desired, dtype=np.float64), n_candidates)
    decoded = vae.decode_latent(z, labels)
    decoded = generator.projector.project(
        x, decoded.reshape(n_rows, n_candidates, -1)).reshape(len(z), -1)

    valid = explainer.blackbox.predict(decoded) == np.repeat(desired, n_candidates)
    feasible = _feasibility_kernel(explainer).satisfied(x, decoded)

    sets = []
    for i in range(n_rows):
        rows = slice(i * n_candidates, (i + 1) * n_candidates)
        sets.append(CandidateSet(
            x=x[i],
            candidates=decoded[rows],
            valid=valid[rows],
            feasible=feasible[rows],
        ))
    return sets


def _feasibility_kernel(explainer):
    """The explainer's compiled constraint kernel (compiled once, cached)."""
    kernel = getattr(explainer, "compiled_constraints", None)
    if kernel is None:
        kernel = explainer.constraints.compile()
    return kernel


def _candidate_args(explainer, x, n_candidates, noise_scale, desired, rng):
    """Validation and defaults shared by every candidate generator."""
    if explainer.generator is None:
        raise RuntimeError("explainer is not fitted; call fit() first")
    x = check_2d(x, "x")
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    noise_scale, rng = candidate_noise_defaults(explainer, noise_scale, rng)
    desired = resolve_desired(explainer.blackbox, x, desired)
    return x, n_candidates, rng, noise_scale, desired


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
