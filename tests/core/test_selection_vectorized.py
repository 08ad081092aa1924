"""The diverse core strategy through the runner must reproduce the per-row loop.

``CoreCFStrategy(n_candidates=m)`` decodes all ``n_rows * m`` latents in
one batched pass; the runner then projects the whole sweep, runs a
single black-box validity call and a single kernel feasibility pass,
and picks one candidate per row.  These tests pin that chain against
``generate_candidates_loop`` — the per-row reference, decoding one row
at a time — given identically seeded rngs: the same candidates to float
tolerance (BLAS blocking varies with the decode's batch shape), the
same feasibility flags, valid counts and closest-L1 pick.
"""

import numpy as np
import pytest

from repro.core import FeasibleCFExplainer, fast_config
from repro.data import load_dataset
from tests.helpers.loops import generate_candidates_loop, sweep_candidate_sets
from tests.helpers.parity import pick_candidate


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


def _runner_sweep(explainer, x, n_candidates, desired=None, rng_seed=42):
    """``(projected sweep, run result, diagnostics, flags)`` through the runner."""
    def strategy():
        return explainer.as_strategy(n_candidates=n_candidates,
                                     rng=np.random.default_rng(rng_seed))

    runner = explainer._engine_runner()
    batch = strategy().propose(x, desired)
    sweep = runner.project(batch.x, batch.candidates)
    run = strategy()
    result, diagnostics = runner.run(run, x, desired, return_diagnostics=True)
    flags = diagnostics["report"].subset_satisfied(runner.flag_indices(run))
    return sweep, result, diagnostics, flags.reshape(len(x), n_candidates)


def _assert_matches_loop(explainer, x, n_candidates, desired=None):
    sweep, result, diagnostics, flags = _runner_sweep(explainer, x, n_candidates, desired)
    looped = generate_candidates_loop(
        explainer, x, n_candidates=n_candidates, desired=desired,
        rng=np.random.default_rng(42))
    assert len(looped) == len(x)
    for i, loop_set in enumerate(looped):
        np.testing.assert_array_equal(loop_set.x, x[i])
        np.testing.assert_allclose(sweep[i], loop_set.candidates, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(flags[i], loop_set.feasible)
        assert diagnostics["n_valid"][i] == loop_set.valid.sum()
        assert diagnostics["n_usable"][i] == loop_set.usable_mask.sum()
        index = pick_candidate(loop_set)
        assert diagnostics["chosen"][i] == index
        np.testing.assert_allclose(result.x_cf[i], loop_set.candidates[index],
                                   rtol=0, atol=1e-12)
        assert result.valid[i] == loop_set.valid[index]
    return sweep


class TestVectorizedMatchesLoop:
    def test_candidates_identical(self, fitted):
        explainer, negatives = fitted
        sweep, *_ = _runner_sweep(explainer, negatives, 12)
        looped = generate_candidates_loop(
            explainer, negatives, n_candidates=12, rng=np.random.default_rng(42))
        assert len(looped) == len(negatives)
        for i, loop_set in enumerate(looped):
            np.testing.assert_array_equal(loop_set.x, negatives[i])
            np.testing.assert_allclose(sweep[i], loop_set.candidates, rtol=0, atol=1e-12)

    def test_batched_sweep_sets_are_the_runner_sweep(self, fitted):
        # the bit-identity tests build their candidate sets this way
        explainer, negatives = fitted
        sweep, *_ = _runner_sweep(explainer, negatives, 12)
        sets = sweep_candidate_sets(
            explainer, negatives, n_candidates=12, rng=np.random.default_rng(42))
        for i, candidate_set in enumerate(sets):
            np.testing.assert_array_equal(sweep[i], candidate_set.candidates)

    def test_valid_and_feasible_flags_identical(self, fitted):
        explainer, negatives = fitted
        _assert_matches_loop(explainer, negatives, 12)

    def test_explicit_desired_and_noise(self, fitted):
        # explicit desired classes through the noisy sweep
        explainer, negatives = fitted
        desired = np.ones(len(negatives), dtype=int)
        _assert_matches_loop(explainer, negatives, 7, desired=desired)

    def test_single_row(self, fitted):
        explainer, negatives = fitted
        _assert_matches_loop(explainer, negatives[:1], 5)

    def test_first_candidate_deterministic(self, fitted):
        explainer, negatives = fitted
        sweep = _assert_matches_loop(explainer, negatives[:4], 6)
        deterministic = explainer.explain(negatives[:4]).x_cf
        np.testing.assert_allclose(sweep[:, 0], deterministic, atol=1e-9)

    def test_single_candidate(self, fitted):
        # m == 1 decodes the posterior mean directly: the loop's zero-noise
        # decode agrees to float tolerance
        explainer, negatives = fitted
        sweep, *_ = _runner_sweep(explainer, negatives[:3], 1)
        looped = generate_candidates_loop(
            explainer, negatives[:3], n_candidates=1, rng=np.random.default_rng(42))
        for i, loop_set in enumerate(looped):
            np.testing.assert_allclose(sweep[i], loop_set.candidates, rtol=0, atol=1e-12)

    def test_rng_stream_consumed_identically(self, fitted):
        """After proposing, the strategy's rng and the loop's are in the same state."""
        explainer, negatives = fitted
        rng_vec = np.random.default_rng(5)
        rng_loop = np.random.default_rng(5)
        explainer.as_strategy(n_candidates=4, rng=rng_vec).propose(negatives[:3])
        generate_candidates_loop(explainer, negatives[:3], n_candidates=4, rng=rng_loop)
        assert rng_vec.random() == rng_loop.random()
