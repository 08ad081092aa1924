"""Per-row loop references the batched library paths are pinned to.

Each vectorized path in the library replaced a per-row loop.  The loops
live here, as free functions over the library object, and only the
parity tests call them:

* :func:`generate_candidates_loop` — the diverse candidate sweep of
  ``CoreCFStrategy(n_candidates=m)`` through the engine runner (propose,
  project, predict, feasibility) sampled and decoded one row at a time;
  :func:`sweep_candidate_sets` keeps the strategy's batched decode and
  flags each row on its own, for tests that need the runner's bits;
* :func:`select_loop` / :func:`explain_loop` —
  :meth:`repro.core.DensityCFSelector.explain` (the engine runner's
  Figure 3 selection) as the historical selector: one scalar-standardised
  score pass, one pool cascade and a second score pass per row;
* :func:`repair_loop` — :meth:`repro.causal.CausalModel.repair_batch` one
  input row's candidate set at a time;
* :func:`score_tiled_loop` — :meth:`repro.density.DensityModel.score_tiled`
  one backend query per input row;
* :func:`predict_logits_loop` —
  :meth:`repro.models.BlackBoxEnsemble.predict_logits_all` as one
  ``predict_logits`` call per member;
* :func:`binary_search_perplexity_loop` — the t-SNE perplexity search one
  point at a time.
"""

from dataclasses import dataclass

import numpy as np

from repro.density.base import _check_3d
from repro.manifold.tsne import _EPS
from repro.utils.validation import check_2d, check_2d_fast, resolve_desired


@dataclass
class CandidateSet:
    """One input row's candidates with their validity and feasibility flags."""

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


def generate_candidates_loop(explainer, x, n_candidates=20, desired=None, rng=None):
    """Per-row diverse candidate sweep: one :class:`CandidateSet` per row of ``x``.

    Draws the noise stream ``CoreCFStrategy(n_candidates=m)`` consumes
    (``default_rng(seed + 500)``, scale ``max(latent_noise, 0.05)``,
    candidate 0 noise-free) and decodes it one row at a time, then
    projects immutables and flags validity and feasibility
    (per-constraint evaluator) per row.  A per-row decode differs from
    the batched one in the last bits (BLAS blocking varies with shape),
    so candidates agree with the runner's sweep to float tolerance.
    """
    if explainer.generator is None:
        raise RuntimeError("explainer is not fitted; call fit() first")
    x = check_2d(x, "x")
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    rng = rng or np.random.default_rng(explainer.seed + 500)
    noise_scale = max(explainer.generator.config.latent_noise, 0.05)
    desired = resolve_desired(explainer.blackbox, x, desired)
    vae = explainer.generator.vae
    vae.eval()
    mu, _ = vae.encode_array(x, desired)

    sets = []
    for i in range(len(x)):
        noise = rng.normal(0.0, noise_scale, size=(n_candidates, mu.shape[1]))
        noise[0] = 0.0
        labels = np.full(n_candidates, desired[i], dtype=np.float64)
        decoded = vae.decode_latent(mu[i][None, :] + noise, labels)
        sets.append(_candidate_set(explainer, x[i], decoded, desired[i]))
    return sets


def sweep_candidate_sets(explainer, x, n_candidates=20, desired=None, rng=None):
    """The runner's batched sweep split into per-row :class:`CandidateSet` s.

    Candidates come from ``CoreCFStrategy(n_candidates=m).propose`` (one
    batched decode, so bit-identical to what the runner selects from);
    projection, validity and feasibility then run one row at a time.
    """
    batch = explainer.as_strategy(n_candidates=n_candidates, rng=rng).propose(x, desired)
    return [_candidate_set(explainer, batch.x[i], batch.candidates[i], batch.desired[i])
            for i in range(len(batch))]


def _candidate_set(explainer, row, decoded, desired):
    """Project one row's decoded candidates and flag validity and feasibility."""
    inputs = np.repeat(row[None, :], len(decoded), axis=0)
    candidates = explainer.generator.projector.project(inputs, decoded)
    return CandidateSet(
        x=row,
        candidates=candidates,
        valid=explainer.blackbox.predict(candidates) == desired,
        feasible=explainer.constraints.satisfied(inputs, candidates),
    )


def _standardize(values):
    """The historical per-candidate-set standardisation (zero if near-constant)."""
    spread = values.std()
    if spread < 1e-12:
        return np.zeros_like(values)
    return (values - values.mean()) / spread


def score_loop(selector, candidate_set):
    """Combined Figure 3 score per candidate of one set (higher is better)."""
    proximity = np.abs(candidate_set.candidates - candidate_set.x[None, :]).sum(axis=1)
    sparsity_of_region = selector.density_score(candidate_set.candidates)
    return (-_standardize(proximity)
            - selector.density_weight * _standardize(sparsity_of_region))


def _select_one(selector, candidate_set):
    """Best candidate index: valid & feasible, then valid, then any."""
    scores = score_loop(selector, candidate_set)
    for mask in (candidate_set.usable_mask, candidate_set.valid,
                 np.ones(len(candidate_set), dtype=bool)):
        if mask.any():
            pool = np.flatnonzero(mask)
            return int(pool[np.argmax(scores[pool])])
    raise RuntimeError("empty candidate set")


def select_loop(selector, candidate_sets):
    """Per-row Figure 3 selection: one select and one more score pass per row."""
    chosen = []
    diagnostics = []
    for candidate_set in candidate_sets:
        index = _select_one(selector, candidate_set)
        chosen.append(candidate_set.candidates[index])
        diagnostics.append({
            "chosen": index,
            "n_usable": int(candidate_set.usable_mask.sum()),
            "n_valid": int(candidate_set.valid.sum()),
            "score": float(score_loop(selector, candidate_set)[index]),
        })
    return np.array(chosen), diagnostics


def explain_loop(selector, x, n_candidates=20, desired=None, rng=None):
    """Per-row ``selector.explain``: the same candidates, selected by :func:`select_loop`."""
    candidate_sets = sweep_candidate_sets(
        selector.explainer, x, n_candidates=n_candidates, desired=desired, rng=rng)
    return select_loop(selector, candidate_sets)


def repair_loop(model, x, candidates, validate=True):
    """Per-row ``model.repair_batch``: one repair pass per input row's candidates."""
    x, candidates = model._check_batch(x, candidates, validate)
    m = candidates.shape[1]
    rows = [
        model._repair_flat(np.repeat(x[i:i + 1], m, axis=0), candidates[i])
        for i in range(len(x))
    ]
    return np.stack(rows)


def score_tiled_loop(model, candidates):
    """Per-row ``model.score_tiled``: one backend query per input row."""
    candidates = _check_3d(candidates)
    return np.stack([model.score(row_candidates) for row_candidates in candidates])


def predict_logits_loop(ensemble, x):
    """Per-member ``ensemble.predict_logits_all``, shape ``(n, K)``."""
    x = check_2d_fast(x, "x")
    return np.stack([m.predict_logits(x) for m in ensemble.members], axis=1)


def _row_affinities(distances_row, beta):
    """Conditional Gaussian affinities for one point at precision ``beta``."""
    p = np.exp(-distances_row * beta)
    total = p.sum()
    if total <= 0:
        return np.full_like(p, 1.0 / len(p)), 0.0
    p = p / total
    entropy = -np.sum(p * np.log2(p + _EPS))
    return p, entropy


def binary_search_perplexity_loop(distances, perplexity, tol=1e-5, max_iter=50):
    """Per-point t-SNE perplexity search (the scalar original)."""
    n = len(distances)
    target = np.log2(perplexity)
    affinities = np.zeros((n, n))
    for i in range(n):
        row = np.delete(distances[i], i)
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        p = None
        for _ in range(max_iter):
            p, entropy = _row_affinities(row, beta)
            diff = entropy - target
            if abs(diff) < tol:
                break
            if diff > 0:  # entropy too high -> sharpen
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
        affinities[i, np.arange(n) != i] = p
    return affinities
