"""Tests for density-aware counterfactual selection (Figure 3)."""

import numpy as np
import pytest

from repro.core import (
    DensityCFSelector,
    FeasibleCFExplainer,
    fast_config,
    generate_candidates,
)
from repro.data import load_dataset
from repro.engine.runner import _select_candidates, _select_candidates_density


@pytest.fixture(scope="module")
def fitted():
    bundle = load_dataset("adult", n_instances=2500, seed=0)
    x_train, y_train = bundle.split("train")
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=fast_config(epochs=10), seed=0)
    explainer.fit(x_train, y_train)
    x_test, _ = bundle.split("test")
    negatives = x_test[explainer.blackbox.predict(x_test) == 0][:15]
    return bundle, explainer, x_train, negatives


class TestGenerateCandidates:
    def test_requires_fitted_explainer(self, fitted):
        bundle, _, _, negatives = fitted
        unfitted = FeasibleCFExplainer(bundle.encoder, seed=0)
        with pytest.raises(RuntimeError):
            generate_candidates(unfitted, negatives)

    def test_candidate_count_and_shape(self, fitted):
        _, explainer, _, negatives = fitted
        sets = generate_candidates(explainer, negatives, n_candidates=8)
        assert len(sets) == len(negatives)
        for candidate_set in sets:
            assert candidate_set.candidates.shape == (8, negatives.shape[1])
            assert len(candidate_set.valid) == 8
            assert len(candidate_set.feasible) == 8

    def test_first_candidate_is_deterministic(self, fitted):
        _, explainer, _, negatives = fitted
        sets = generate_candidates(explainer, negatives[:3], n_candidates=5)
        deterministic = explainer.explain(negatives[:3]).x_cf
        for i, candidate_set in enumerate(sets):
            np.testing.assert_allclose(candidate_set.candidates[0],
                                       deterministic[i], atol=1e-9)

    def test_candidates_are_diverse(self, fitted):
        _, explainer, _, negatives = fitted
        sets = generate_candidates(explainer, negatives[:2], n_candidates=10,
                                   noise_scale=0.3)
        for candidate_set in sets:
            spread = candidate_set.candidates.std(axis=0).max()
            assert spread > 1e-4

    def test_immutables_projected_in_candidates(self, fitted):
        bundle, explainer, _, negatives = fitted
        sets = generate_candidates(explainer, negatives[:2], n_candidates=6)
        mask = bundle.encoder.immutable_mask()
        for candidate_set in sets:
            np.testing.assert_allclose(
                candidate_set.candidates[:, mask],
                np.repeat(candidate_set.x[None, mask], 6, axis=0))

    def test_rejects_bad_count(self, fitted):
        _, explainer, _, negatives = fitted
        with pytest.raises(ValueError):
            generate_candidates(explainer, negatives, n_candidates=0)


class TestDensityCFSelector:
    def test_requires_reference(self, fitted):
        _, explainer, _, negatives = fitted
        selector = DensityCFSelector(explainer)
        with pytest.raises(RuntimeError):
            selector.density_score(negatives)

    def test_fit_reference_builds_population(self, fitted):
        _, explainer, x_train, _ = fitted
        selector = DensityCFSelector(explainer, k_neighbors=5)
        selector.fit_reference(x_train[:300])
        assert selector.n_reference >= 5

    def test_fit_reference_shrinks_tiny_population(self, fitted):
        _, explainer, x_train, _ = fitted
        selector = DensityCFSelector(explainer, k_neighbors=10_000)
        with pytest.warns(UserWarning, match="feasible reference examples"):
            selector.fit_reference(x_train[:100])
        # degraded gracefully: fitted, with k clamped at query time
        assert 0 < selector.n_reference < 10_000
        scores = selector.density_score(x_train[:5])
        assert scores.shape == (5,)

    def test_density_score_orders_by_closeness(self, fitted):
        _, explainer, x_train, _ = fitted
        selector = DensityCFSelector(explainer, k_neighbors=5)
        selector.fit_reference(x_train[:300])
        reference_point = selector.density_model.reference_[0]
        far_point = reference_point + 5.0
        scores = selector.density_score(
            np.vstack([reference_point, far_point]))
        assert scores[0] < scores[1]

    def test_explain_batch(self, fitted):
        _, explainer, x_train, negatives = fitted
        selector = DensityCFSelector(explainer, k_neighbors=5)
        selector.fit_reference(x_train[:300])
        x_cf, diagnostics = selector.explain(negatives[:5], n_candidates=8)
        assert x_cf.shape == (5, negatives.shape[1])
        assert len(diagnostics) == 5
        for diag in diagnostics:
            assert 0 <= diag["chosen"] < 8
            assert diag["n_usable"] <= diag["n_valid"] <= 8

    def test_density_weight_changes_choice_pressure(self, fitted):
        _, explainer, x_train, negatives = fitted
        proximal = DensityCFSelector(explainer, density_weight=1e-6,
                                     k_neighbors=5).fit_reference(x_train[:300])
        dense = DensityCFSelector(explainer, density_weight=100.0,
                                  k_neighbors=5).fit_reference(x_train[:300])
        x_cf_proximal, _ = proximal.explain(negatives[:8], n_candidates=12)
        x_cf_dense, _ = dense.explain(negatives[:8], n_candidates=12)
        # the dense selector's picks sit in (weakly) denser regions
        assert dense.density_score(x_cf_dense).mean() <= \
            dense.density_score(x_cf_proximal).mean() + 1e-9


# One row, three candidates at L1 distance 0.1, 0.2 and 0.9 from the input,
# with density costs 1, 2 and 3: candidate 2 is the worst under both the
# closest-L1 and the Figure 3 score, so it wins only where a pool forces it.
_X = np.zeros((1, 2))
_CANDIDATES = np.array([[[0.05, 0.05], [0.1, 0.1], [0.45, 0.45]]])
_DENSITY = np.array([[1.0, 2.0, 3.0]])
_ALL = [True, True, True]


def _choose(kind, valid, feasible, robust=None, candidates=_CANDIDATES, density=_DENSITY):
    valid, feasible = np.array([valid]), np.array([feasible])
    robust = None if robust is None else np.array([robust])
    if kind == "l1":
        chosen = _select_candidates(_X, candidates, valid, feasible, robust=robust)
    else:
        chosen = _select_candidates_density(
            _X, candidates, valid, feasible, density, 1.0, robust=robust)
    return int(chosen[0])


@pytest.mark.parametrize("kind", ["l1", "density"])
class TestSelectionCascade:
    """The runner's pool cascade on hand-built masks, under both scores."""

    def test_robust_before_usable(self, kind):
        assert _choose(kind, _ALL, _ALL, robust=[False, False, True]) == 2
        # an empty robust pool falls through to the single-model choice
        assert _choose(kind, _ALL, _ALL, robust=[False, False, False]) == 0

    def test_usable_before_valid(self, kind):
        assert _choose(kind, _ALL, [False, False, True]) == 2

    def test_valid_before_fallback(self, kind):
        assert _choose(kind, [False, False, True], [True, True, False]) == 2

    def test_fallbacks_differ(self, kind):
        # no valid candidate, and candidate 0 is now the farthest and sparsest
        candidates = _CANDIDATES[:, ::-1]
        density = _DENSITY[:, ::-1]
        chosen = _choose(kind, [False] * 3, _ALL, candidates=candidates, density=density)
        # closest-L1 falls back to the deterministic decode; the density
        # score takes the best candidate over all of them
        assert chosen == (0 if kind == "l1" else 2)
