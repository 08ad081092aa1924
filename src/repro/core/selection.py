"""Density-aware counterfactual selection (the paper's Figure 3).

The paper's third theme — *density* — argues that among several feasible
counterfactuals one should pick an example that is (a) close to the
input and (b) inside a dense region of other feasible examples, rejecting
both infeasible candidates and feasible outliers ("a much more demanding
way of getting the loan").

This module makes that story executable:

* :func:`generate_candidates` draws a diverse candidate set per input by
  perturbing the CF-VAE's latent code (the mechanism of Section III-C).
* :class:`DensityCFSelector` scores each candidate by proximity and by
  the local density of feasible examples around it (mean k-NN distance
  to a feasible reference population), then picks the best.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..density import KnnDensity
from ..utils.validation import check_2d, check_encoded_rows, check_positive, resolve_desired

__all__ = ["CandidateSet", "generate_candidates", "DensityCFSelector",
           "candidate_noise_defaults", "perturb_latents",
           "standardize_rows", "argmax_by_pools"]


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
    sequentially (``_generate_candidates_loop``, the per-row reference
    kept for the parity test in
    ``tests/core/test_selection_vectorized.py``).
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
    """Shared validation/defaults for the vectorized and loop generators."""
    if explainer.generator is None:
        raise RuntimeError("explainer is not fitted; call fit() first")
    x = check_2d(x, "x")
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    noise_scale, rng = candidate_noise_defaults(explainer, noise_scale, rng)
    desired = resolve_desired(explainer.blackbox, x, desired)
    return x, n_candidates, rng, noise_scale, desired


def _generate_candidates_loop(explainer, x, n_candidates=20, noise_scale=None,
                              desired=None, rng=None):
    """Per-row reference implementation of :func:`generate_candidates`.

    This is the original (pre-vectorization) loop, kept as the ground
    truth the batched path must reproduce exactly: same rng consumption
    order, same per-row decode/validity/feasibility semantics.  Only the
    parity tests should call it.
    """
    x, n_candidates, rng, noise_scale, desired = _candidate_args(
        explainer, x, n_candidates, noise_scale, desired, rng)
    generator = explainer.generator
    vae = generator.vae
    vae.eval()
    mu, _ = vae.encode_array(x, desired)

    sets = []
    for i in range(len(x)):
        noise = rng.normal(0.0, noise_scale,
                           size=(n_candidates, mu.shape[1]))
        noise[0] = 0.0
        z = mu[i][None, :] + noise
        labels = np.full(n_candidates, desired[i], dtype=np.float64)
        decoded = vae.decode_latent(z, labels)
        inputs = np.repeat(x[i][None, :], n_candidates, axis=0)
        decoded = generator.projector.project(inputs, decoded)
        sets.append(CandidateSet(
            x=x[i],
            candidates=decoded,
            valid=explainer.blackbox.predict(decoded) == desired[i],
            feasible=explainer.constraints.satisfied(inputs, decoded),
        ))
    return sets


def standardize_rows(values):
    """Row-wise :meth:`DensityCFSelector._standardize`: zero near-constant rows.

    Each row of ``values`` is standardised independently with exactly the
    per-candidate-set math of the scalar helper, so the batched selection
    path reproduces the per-row loop bit for bit.
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
    n = len(scores)
    chosen = np.zeros(n, dtype=int)
    remaining = np.ones(n, dtype=bool)
    for pool in (*pools, np.ones(scores.shape, dtype=bool)):
        hit = remaining & pool.any(axis=1)
        if hit.any():
            masked = np.where(pool[hit], scores[hit], -np.inf)
            chosen[hit] = np.argmax(masked, axis=1)
            remaining &= ~hit
    return chosen


class DensityCFSelector:
    """Pick counterfactuals that are close *and* in dense feasible regions.

    Parameters
    ----------
    explainer:
        A fitted :class:`repro.core.FeasibleCFExplainer`.
    density_weight:
        Trade-off ``lambda`` between proximity and density: the score of a
        candidate ``c`` for input ``x`` is
        ``-||c - x||_1 - lambda * density(c)`` where ``density`` is the
        estimator's region-sparsity cost (mean feasible-reference k-NN
        distance by default).
    k_neighbors:
        Number of reference neighbours in the default k-NN estimate.
    density_model:
        Optional :class:`repro.density.DensityModel` to score with
        (fitted by :meth:`fit_reference` on the feasible reference
        population).  Defaults to :class:`repro.density.KnnDensity`,
        which reproduces the historical selector bit for bit.
    """

    def __init__(self, explainer, density_weight=1.0, k_neighbors=10,
                 density_model=None):
        self.explainer = explainer
        self.density_weight = check_positive(density_weight, "density_weight")
        self.k_neighbors = int(k_neighbors)
        self.density_model = density_model

    def fit_reference(self, x_reference, desired=None):
        """Build the feasible-example reference population.

        Generates counterfactuals for ``x_reference``, keeps the valid &
        feasible ones and fits the density estimator on them.  A
        population smaller than ``k_neighbors`` degrades gracefully (the
        k-NN estimator clamps k at query time) with a warning; an empty
        one raises.  Wrong-width reference rows raise
        :class:`repro.utils.validation.SchemaMismatchError` before any
        generation runs.  Returns ``self``.
        """
        x_reference = check_encoded_rows(
            x_reference, self.explainer.encoder, "x_reference")
        result = self.explainer.explain(x_reference, desired)
        keep = result.valid & result.feasible
        n_keep = int(keep.sum())
        if n_keep == 0:
            raise ValueError(
                "no valid & feasible reference examples were generated; "
                "provide more reference rows or relax the constraints")
        if self.density_model is None:
            self.density_model = KnnDensity(k_neighbors=self.k_neighbors)
        # the clamping claim only holds for k-NN-backed estimators; a
        # KDE has no k and its scores are unaffected by the population
        # being small
        model_k = getattr(self.density_model, "k_neighbors", None)
        if model_k is not None and n_keep < model_k:
            warnings.warn(
                f"only {n_keep} feasible reference examples for "
                f"k_neighbors={model_k}; density scores will use "
                f"k={n_keep}", stacklevel=2)
        self.density_model.fit(result.x_cf[keep])
        return self

    @property
    def n_reference(self):
        """Size of the feasible reference population."""
        return 0 if self.density_model is None else self.density_model.n_reference

    @property
    def _reference(self):
        """The fitted reference matrix (None before ``fit_reference``)."""
        return getattr(self.density_model, "reference_", None)

    def density_score(self, candidates):
        """The estimator's region-sparsity cost (lower = denser)."""
        if self.n_reference == 0:
            raise RuntimeError("selector has no reference; call fit_reference()")
        candidates = check_2d(candidates, "candidates")
        return self.density_model.score(candidates)

    @staticmethod
    def _standardize(values):
        spread = values.std()
        if spread < 1e-12:
            return np.zeros_like(values)
        return (values - values.mean()) / spread

    def score(self, candidate_set):
        """Combined score per candidate (higher is better).

        Proximity and region-sparsity are standardised within the
        candidate set so ``density_weight`` is a genuine trade-off knob
        rather than a unit conversion.
        """
        proximity = np.abs(
            candidate_set.candidates - candidate_set.x[None, :]).sum(axis=1)
        sparsity_of_region = self.density_score(candidate_set.candidates)
        return (-self._standardize(proximity)
                - self.density_weight * self._standardize(sparsity_of_region))

    def select(self, candidate_set):
        """Choose the best candidate index per the Figure 3 policy.

        Preference order: valid & feasible candidates; then valid-only;
        then any.  Within the preferred pool the combined
        proximity+density score decides.
        """
        scores = self.score(candidate_set)
        for mask in (candidate_set.usable_mask, candidate_set.valid,
                     np.ones(len(candidate_set), dtype=bool)):
            if mask.any():
                pool = np.flatnonzero(mask)
                return int(pool[np.argmax(scores[pool])])
        raise RuntimeError("empty candidate set")  # pragma: no cover

    def select_batch(self, candidate_sets):
        """One-pass batched selection over pre-generated candidate sets.

        The whole batch is scored at once: one tiled density query over
        every candidate of every row
        (:meth:`repro.density.DensityModel.score_tiled`), one broadcast
        proximity computation, one row-standardised combined score reused
        for both selection and diagnostics.  Outputs are bit-identical to
        :meth:`_select_loop` (the historical per-row path, which also
        scored every candidate set twice); the perfbench ``density``
        section gates the speedup between the two.
        """
        if self.n_reference == 0:
            raise RuntimeError("selector has no reference; call fit_reference()")

        inputs = np.stack([cs.x for cs in candidate_sets])
        candidates = np.stack([cs.candidates for cs in candidate_sets])
        valid = np.stack([cs.valid for cs in candidate_sets])
        usable = np.stack([cs.usable_mask for cs in candidate_sets])

        proximity = np.abs(candidates - inputs[:, None, :]).sum(axis=2)
        sparsity_of_region = self.density_model.score_tiled(candidates)
        scores = (-standardize_rows(proximity)
                  - self.density_weight * standardize_rows(sparsity_of_region))
        chosen = argmax_by_pools(scores, (usable, valid))

        rows = np.arange(len(candidate_sets))
        x_cf = candidates[rows, chosen]
        diagnostics = [{
            "chosen": int(chosen[i]),
            "n_usable": int(usable[i].sum()),
            "n_valid": int(valid[i].sum()),
            "score": float(scores[i, chosen[i]]),
        } for i in rows]
        return x_cf, diagnostics

    def explain(self, x, n_candidates=20, desired=None, rng=None):
        """Full density-aware explanation for a batch, loop-free.

        Returns ``(x_cf, diagnostics)`` where ``x_cf`` stacks the selected
        counterfactual per row and ``diagnostics`` is a list of dicts with
        the chosen index, candidate counts and score.  Candidate
        generation is one vectorized sweep and selection is one batched
        score pass (:meth:`select_batch`).
        """
        candidate_sets = generate_candidates(
            self.explainer, x, n_candidates=n_candidates, desired=desired,
            rng=rng)
        return self.select_batch(candidate_sets)

    def _select_loop(self, candidate_sets):
        """Per-row reference for :meth:`select_batch`.

        The original (pre-density-layer) selection loop, kept as the
        ground truth the batched path must reproduce exactly — including
        its separate score pass per candidate set for the diagnostics
        (one in :meth:`select`, one for the reported score).  Only the
        parity tests and the perfbench should call it.
        """
        chosen = []
        diagnostics = []
        for candidate_set in candidate_sets:
            index = self.select(candidate_set)
            chosen.append(candidate_set.candidates[index])
            diagnostics.append({
                "chosen": index,
                "n_usable": int(candidate_set.usable_mask.sum()),
                "n_valid": int(candidate_set.valid.sum()),
                "score": float(self.score(candidate_set)[index]),
            })
        return np.array(chosen), diagnostics

    def _explain_loop(self, x, n_candidates=20, desired=None, rng=None):
        """Per-row reference implementation of :meth:`explain`."""
        candidate_sets = generate_candidates(
            self.explainer, x, n_candidates=n_candidates, desired=desired,
            rng=rng)
        return self._select_loop(candidate_sets)
