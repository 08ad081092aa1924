"""Property-style parity: compiled feasibility kernel vs the loop evaluator.

The compiled kernel must reproduce the per-constraint loop
(``ConstraintSet.satisfied_matrix`` / ``satisfied``) bit for bit — on
every registry dataset, across noise scales, under tiling, at exact
tolerance boundaries and on degenerate batches.  Built on the shared
``tests.helpers.parity`` harness.
"""

import numpy as np
import pytest

from repro.constraints import ConstraintSet, ImmutablesRespected, build_constraints
from repro.constraints.base import Constraint
from repro.data import load_dataset
from tests.helpers.parity import (
    assert_bit_identical,
    perturbed,
    registry_bundle_fixture,
)

bundle = registry_bundle_fixture(n_instances=900, seed=1)


def union_set(encoder):
    """Catalog union (binary kind includes unary) plus the immutables audit."""
    members = list(build_constraints(encoder, "binary"))
    members.append(ImmutablesRespected(encoder))
    return ConstraintSet(members)


def assert_parity(constraints, kernel, x, x_cf, m=1):
    inputs = x if m == 1 else np.repeat(x, m, axis=0)
    assert_bit_identical(
        kernel.satisfied_matrix(x, x_cf),
        constraints.satisfied_matrix(inputs, x_cf),
        context="satisfied_matrix")
    assert_bit_identical(
        kernel.satisfied(x, x_cf), constraints.satisfied(inputs, x_cf),
        context="satisfied")
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
            assert_parity(constraints, kernel, x, perturbed(x, rng, scale))

    def test_tiled_sweeps(self, bundle):
        encoder = bundle.encoder
        constraints = union_set(encoder)
        kernel = constraints.compile()
        x = bundle.encoded[:24]
        for m in (1, 2, 5, 16, 24):
            rng = np.random.default_rng(m)
            x_cf = perturbed(x, rng, 0.05, m=m)
            assert_parity(constraints, kernel, x, x_cf, m=m)
            report = kernel.evaluate(x, x_cf)
            inputs = np.repeat(x, m, axis=0)
            for kind in ("unary", "binary"):
                members = build_constraints(encoder, kind)
                indices = [kernel.index_of(c.name) for c in members]
                assert report.subset_rate(indices) == \
                    members.satisfaction_rate(inputs, x_cf)

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
            assert report.subset_rate(indices) == \
                members.satisfaction_rate(x, x_cf)
            np.testing.assert_array_equal(
                report.subset_satisfied(indices), members.satisfied(x, x_cf))

    def test_exact_tolerance_boundaries(self, bundle):
        """x_cf == x and exact +/- tolerance offsets on constrained columns."""
        constraints = union_set(bundle.encoder)
        kernel = constraints.compile()
        x = bundle.encoded[:40]
        assert_parity(constraints, kernel, x, x.copy())
        for offset in (1e-6, -1e-6, 2e-6, -2e-6):
            x_cf = x + offset
            assert_parity(constraints, kernel, x, x_cf)

    def test_unary_kind_alone(self, bundle):
        constraints = build_constraints(bundle.encoder, "unary")
        kernel = constraints.compile()
        x = bundle.encoded[:50]
        x_cf = perturbed(x, np.random.default_rng(3), 0.1)
        assert_parity(constraints, kernel, x, x_cf)


class _ParityProbe(Constraint):
    """Unlowered constraint type: exercises the opaque fallback."""

    name = "probe[sum non-decreasing]"

    def satisfied(self, x, x_cf):
        return np.asarray(x_cf).sum(axis=1) >= np.asarray(x).sum(axis=1) - 1e-9

    def penalty(self, x, x_cf):  # pragma: no cover - not used here
        raise NotImplementedError


class TestFallbackAndDegenerate:
    @pytest.fixture(scope="class")
    def adult(self):
        return load_dataset("adult", n_instances=600, seed=0)

    def test_opaque_constraint_fallback(self, adult):
        members = list(build_constraints(adult.encoder, "binary"))
        members.append(_ParityProbe())
        constraints = ConstraintSet(members)
        kernel = constraints.compile()
        x = adult.encoded[:30]
        for m in (1, 4):
            x_cf = perturbed(x, np.random.default_rng(5), 0.05, m=m)
            assert_parity(constraints, kernel, x, x_cf, m=m)

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
        assert_parity(constraints, kernel, x, x_cf, m=3)

    def test_non_multiple_rows_rejected(self, adult):
        kernel = union_set(adult.encoder).compile()
        with pytest.raises(ValueError, match="multiple"):
            kernel.satisfied(adult.encoded[:4], adult.encoded[:10])

    def test_index_of(self, adult):
        kernel = union_set(adult.encoder).compile()
        for i, name in enumerate(kernel.names):
            assert kernel.index_of(name) == i
