"""Tiled vs aligned feasibility evaluation: one predicate per constraint.

``CompiledConstraintSet`` answers a tiled candidate sweep (``n * m``
counterfactual rows against ``n`` inputs) from each member's own
``satisfied``.  The reference here is that same ``satisfied`` on aligned
rows, ``np.repeat(x, m)`` against the candidates: the mask, the AND
flags, the overall, per-constraint and per-kind rates must equal it on
every registry dataset, across noise scales, at exact tolerance
boundaries and on degenerate batches.  Built on the shared
``tests.helpers.parity`` harness.
"""

import numpy as np
import pytest

from repro.constraints import ConstraintSet, ImmutablesRespected, build_constraints
from repro.constraints.base import Constraint
from repro.data import load_dataset
from repro.engine import CandidateBatch, CFStrategy, EngineRunner
from tests.helpers.parity import (
    assert_bit_identical,
    candidate_sweep,
    perturbed,
    registry_bundle_fixture,
)

bundle = registry_bundle_fixture(n_instances=900, seed=1)


def union_set(encoder):
    """Catalog union (binary kind includes unary) plus the immutables audit."""
    members = list(build_constraints(encoder, "binary"))
    members.append(ImmutablesRespected(encoder))
    return ConstraintSet(members)


def aligned_matrix(constraints, inputs, x_cf):
    """``(n_cf, k)`` reference: each member's ``satisfied`` on aligned rows."""
    columns = [np.asarray(c.satisfied(inputs, x_cf), dtype=bool) for c in constraints]
    return np.column_stack(columns) if columns else np.ones((len(x_cf), 0), dtype=bool)


def assert_tiled_matches_aligned(constraints, kernel, x, x_cf, m=1):
    inputs = np.repeat(x, m, axis=0)
    reference = aligned_matrix(constraints, inputs, x_cf)
    assert_bit_identical(
        kernel.satisfied_matrix(x, x_cf), reference, context="satisfied_matrix")
    assert_bit_identical(
        kernel.satisfied(x, x_cf), reference.all(axis=1), context="satisfied")
    assert_bit_identical(
        constraints.satisfied(inputs, x_cf), reference.all(axis=1),
        context="ConstraintSet.satisfied on aligned rows")
    report = kernel.evaluate(x, x_cf)
    assert report.rate == constraints.satisfaction_rate(inputs, x_cf)
    assert_bit_identical(
        report.per_constraint_rates,
        {c.name: c.satisfaction_rate(inputs, x_cf) for c in constraints},
        context="per_constraint_rates")


class TestDatasetParity:
    def test_flat_across_noise_scales(self, bundle):
        constraints = union_set(bundle.encoder)
        kernel = constraints.compile()
        x = bundle.encoded[:80]
        for trial, scale in enumerate((0.0, 1e-7, 1e-3, 0.05, 0.5)):
            rng = np.random.default_rng(100 + trial)
            assert_tiled_matches_aligned(constraints, kernel, x, perturbed(x, rng, scale))

    def test_tiled_sweeps(self, bundle):
        encoder = bundle.encoder
        constraints = union_set(encoder)
        kernel = constraints.compile()
        x = bundle.encoded[:24]
        for m in (1, 2, 5, 16, 24):
            rng = np.random.default_rng(m)
            x_cf = perturbed(x, rng, 0.05, m=m)
            assert_tiled_matches_aligned(constraints, kernel, x, x_cf, m=m)
            report = kernel.evaluate(x, x_cf)
            inputs = np.repeat(x, m, axis=0)
            for kind in ("unary", "binary"):
                members = build_constraints(encoder, kind)
                indices = [kernel.index_of(c.name) for c in members]
                expected = aligned_matrix(members, inputs, x_cf).all(axis=1).mean()
                assert report.subset_rate(indices) == expected

    def test_per_kind_subsets(self, bundle):
        encoder = bundle.encoder
        constraints = union_set(encoder)
        kernel = constraints.compile()
        x = bundle.encoded[:60]
        x_cf = perturbed(x, np.random.default_rng(7), 0.05)
        report = kernel.evaluate(x, x_cf)
        for kind in ("unary", "binary"):
            members = build_constraints(encoder, kind)
            indices = [kernel.index_of(c.name) for c in members]
            flags = aligned_matrix(members, x, x_cf).all(axis=1)
            assert report.subset_rate(indices) == flags.mean()
            np.testing.assert_array_equal(report.subset_satisfied(indices), flags)
            np.testing.assert_array_equal(members.satisfied(x, x_cf), flags)

    def test_exact_tolerance_boundaries(self, bundle):
        """x_cf == x and exact +/- tolerance offsets on constrained columns."""
        constraints = union_set(bundle.encoder)
        kernel = constraints.compile()
        x = bundle.encoded[:40]
        assert_tiled_matches_aligned(constraints, kernel, x, x.copy())
        for offset in (1e-6, -1e-6, 2e-6, -2e-6):
            x_cf = x + offset
            assert_tiled_matches_aligned(constraints, kernel, x, x_cf)
            assert_tiled_matches_aligned(
                constraints, kernel, x, np.repeat(x_cf, 3, axis=0), m=3)

    def test_unary_kind_alone(self, bundle):
        constraints = build_constraints(bundle.encoder, "unary")
        kernel = constraints.compile()
        x = bundle.encoded[:50]
        x_cf = perturbed(x, np.random.default_rng(3), 0.1)
        assert_tiled_matches_aligned(constraints, kernel, x, x_cf)


class _SumProbe(Constraint):
    """A user-defined constraint that only knows aligned rows."""

    name = "probe[sum non-decreasing]"

    def satisfied(self, x, x_cf):
        x, x_cf = np.asarray(x), np.asarray(x_cf)
        assert x.shape == x_cf.shape, "called on non-aligned rows"
        return x_cf.sum(axis=1) >= x.sum(axis=1) - 1e-9

    def penalty(self, x, x_cf):  # pragma: no cover - not used here
        raise NotImplementedError


class _FixedSweep(CFStrategy):
    """Proposes a preset ``(n, m, d)`` candidate tensor, flagged against ``constraints``."""

    name = "fixed_sweep"

    def __init__(self, candidates, constraints):
        self.candidates = candidates
        self.constraints = constraints

    def fit(self, x_train, y_train=None):
        return self

    def propose(self, x, desired=None):
        desired = np.ones(len(x), dtype=int) if desired is None else desired
        return CandidateBatch(x=x, desired=desired, candidates=self.candidates)


class _ThresholdBlackBox:
    """Deterministic stand-in classifier: class 1 when the first column is high."""

    def predict(self, x):
        return (np.asarray(x)[:, 0] > 0.3).astype(int)


class TestFallbackAndDegenerate:
    @pytest.fixture(scope="class")
    def adult(self):
        return load_dataset("adult", n_instances=600, seed=0)

    def test_custom_constraint_in_runner_sweep(self, adult):
        """An m=8 ``EngineRunner.run`` sweep flags a custom type row by row."""
        members = list(build_constraints(adult.encoder, "binary"))
        members.append(_SumProbe())
        constraints = ConstraintSet(members)
        runner = EngineRunner(adult.encoder, _ThresholdBlackBox(), constraints=constraints)
        x = adult.encoded[:30]
        n, m = len(x), 8
        candidates = candidate_sweep(x, np.random.default_rng(5), 0.05, m)
        strategy = _FixedSweep(candidates, constraints)
        result, diagnostics = runner.run(strategy, x, return_diagnostics=True)

        projected = runner.project(x, candidates)
        per_row = np.array([
            [[bool(c.satisfied(x[i:i + 1], projected[i, j:j + 1])[0]) for c in members]
             for j in range(m)]
            for i in range(n)])
        assert_bit_identical(
            diagnostics["report"].mask.reshape(n, m, len(members)), per_row,
            context="sweep mask")
        chosen = diagnostics["chosen"]
        assert_bit_identical(
            result.feasible, per_row[np.arange(n), chosen].all(axis=1),
            context="chosen flags")

    def test_empty_constraint_set(self, adult):
        kernel = ConstraintSet(()).compile()
        x = adult.encoded[:10]
        assert kernel.satisfied_matrix(x, x).shape == (10, 0)
        assert kernel.satisfied(x, x).all()
        assert kernel.satisfaction_rate(x, x) == 1.0
        assert kernel.evaluate(x, x).rate == 1.0

    def test_zero_rows(self, adult):
        constraints = union_set(adult.encoder)
        kernel = constraints.compile()
        empty = adult.encoded[:0]
        assert kernel.satisfied(empty, empty).shape == (0,)
        report = kernel.evaluate(empty, empty)
        assert report.rate == 1.0
        assert all(rate == 1.0 for rate in report.per_constraint_rates.values())
        assert constraints.satisfaction_rate(empty, empty) == 1.0

    def test_single_row(self, adult):
        constraints = union_set(adult.encoder)
        kernel = constraints.compile()
        x = adult.encoded[:1]
        x_cf = perturbed(x, np.random.default_rng(11), 0.05, m=3)
        assert_tiled_matches_aligned(constraints, kernel, x, x_cf, m=3)

    def test_non_multiple_rows_rejected(self, adult):
        kernel = union_set(adult.encoder).compile()
        with pytest.raises(ValueError, match="multiple"):
            kernel.satisfied(adult.encoded[:4], adult.encoded[:10])

    def test_index_of(self, adult):
        kernel = union_set(adult.encoder).compile()
        for i, name in enumerate(kernel.names):
            assert kernel.index_of(name) == i

    def test_all_nan_candidate_is_infeasible(self, adult):
        """Every member, the ordinal implication included, rejects NaN rows."""
        x = adult.encoded[:4]
        x_cf = np.full_like(x, np.nan)
        for constraint in union_set(adult.encoder):
            assert not ConstraintSet([constraint]).satisfied(x, x_cf).any(), constraint
        assert not union_set(adult.encoder).satisfied_matrix(x, x_cf).any()
