"""Vectorized candidate generation must reproduce the per-row loop.

``generate_candidates`` decodes all ``n_rows * n_candidates`` latents in
one batched pass with a single black-box validity call and a single
constraint feasibility call.  These tests pin it against
``generate_candidates_loop`` — the original per-row reference — given
identically seeded rngs: same candidates, same valid/feasible flags.
"""

import numpy as np
import pytest

from repro.core import FeasibleCFExplainer, fast_config, generate_candidates
from repro.data import load_dataset
from tests.helpers.loops import generate_candidates_loop


@pytest.fixture(scope="module")
def fitted():
    bundle = load_dataset("adult", n_instances=1200, seed=3)
    x_train, y_train = bundle.split("train")
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=fast_config(epochs=4), seed=3)
    explainer.fit(x_train, y_train)
    x_test, _ = bundle.split("test")
    negatives = x_test[explainer.blackbox.predict(x_test) == 0][:9]
    return explainer, negatives


def _pair(explainer, x, **kwargs):
    seed = kwargs.pop("rng_seed", 42)
    vectorized = generate_candidates(
        explainer, x, rng=np.random.default_rng(seed), **kwargs)
    looped = generate_candidates_loop(
        explainer, x, rng=np.random.default_rng(seed), **kwargs)
    return vectorized, looped


class TestVectorizedMatchesLoop:
    def test_candidates_identical(self, fitted):
        explainer, negatives = fitted
        vectorized, looped = _pair(explainer, negatives, n_candidates=12)
        assert len(vectorized) == len(looped) == len(negatives)
        for vec_set, loop_set in zip(vectorized, looped):
            np.testing.assert_array_equal(vec_set.x, loop_set.x)
            np.testing.assert_allclose(vec_set.candidates, loop_set.candidates,
                                       rtol=0, atol=1e-12)

    def test_valid_and_feasible_flags_identical(self, fitted):
        explainer, negatives = fitted
        vectorized, looped = _pair(explainer, negatives, n_candidates=12)
        for vec_set, loop_set in zip(vectorized, looped):
            np.testing.assert_array_equal(vec_set.valid, loop_set.valid)
            np.testing.assert_array_equal(vec_set.feasible, loop_set.feasible)

    def test_explicit_desired_and_noise(self, fitted):
        explainer, negatives = fitted
        desired = np.ones(len(negatives), dtype=int)
        vectorized, looped = _pair(explainer, negatives, n_candidates=7,
                                   noise_scale=0.3, desired=desired)
        for vec_set, loop_set in zip(vectorized, looped):
            np.testing.assert_allclose(vec_set.candidates, loop_set.candidates,
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(vec_set.valid, loop_set.valid)

    def test_single_row(self, fitted):
        explainer, negatives = fitted
        vectorized, looped = _pair(explainer, negatives[:1], n_candidates=5)
        np.testing.assert_allclose(vectorized[0].candidates,
                                   looped[0].candidates, rtol=0, atol=1e-12)

    def test_single_candidate(self, fitted):
        explainer, negatives = fitted
        vectorized, looped = _pair(explainer, negatives[:3], n_candidates=1)
        for vec_set, loop_set in zip(vectorized, looped):
            np.testing.assert_allclose(vec_set.candidates, loop_set.candidates,
                                       rtol=0, atol=1e-12)

    def test_first_candidate_deterministic(self, fitted):
        explainer, negatives = fitted
        sets = generate_candidates(explainer, negatives[:4], n_candidates=6,
                                   rng=np.random.default_rng(0))
        deterministic = explainer.explain(negatives[:4]).x_cf
        for i, candidate_set in enumerate(sets):
            np.testing.assert_allclose(candidate_set.candidates[0],
                                       deterministic[i], atol=1e-9)

    def test_rng_stream_consumed_identically(self, fitted):
        """After generation both rngs are in the same state."""
        explainer, negatives = fitted
        rng_vec = np.random.default_rng(5)
        rng_loop = np.random.default_rng(5)
        generate_candidates(explainer, negatives[:3], n_candidates=4, rng=rng_vec)
        generate_candidates_loop(explainer, negatives[:3], n_candidates=4,
                                 rng=rng_loop)
        assert rng_vec.random() == rng_loop.random()
