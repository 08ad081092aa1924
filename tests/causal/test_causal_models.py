"""Unit tests for the causal protocol: abduction, repair semantics,
mining, persistence and the factory."""

import numpy as np
import pytest

from repro.causal import (
    CAUSAL_NAMES,
    MinedCausalModel,
    ScmCausalModel,
    StructuralEquation,
    build_causal,
    causal_from_state,
    fit_causal,
    scm_equations,
)
from repro.constraints import OrdinalImplicationConstraint
from repro.data import EDUCATION_MIN_AGE, load_dataset
from repro.utils.validation import SchemaMismatchError


@pytest.fixture(scope="module")
def adult():
    return load_dataset("adult", n_instances=1200, seed=0)


@pytest.fixture(scope="module")
def law():
    return load_dataset("law_school", n_instances=1200, seed=0)


def encoded_row(bundle, **overrides):
    """One encoded row with raw-value overrides applied via the frame."""
    frame = bundle.encoder.inverse_transform(bundle.encoded[:1])
    columns = {name: frame[name].copy() for name in frame.column_names}
    for name, value in overrides.items():
        columns[name][0] = value
    from repro.data import TabularFrame

    return bundle.encoder.transform(TabularFrame(columns))


class TestEquations:
    def test_every_registry_dataset_has_equations(self):
        for dataset in ("adult", "kdd_census", "law_school"):
            equations = scm_equations(dataset)
            assert len(equations) >= 3
            labels = [eq.label for eq in equations]
            assert len(labels) == len(set(labels))

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError, match="no structural equations"):
            scm_equations("mordor")

    def test_monotone_rejects_predict(self):
        with pytest.raises(ValueError, match="monotone"):
            StructuralEquation("age", ("education",), lambda v: v, mode="monotone")

    def test_additive_requires_predict(self):
        with pytest.raises(ValueError, match="needs predict"):
            StructuralEquation("age", ("education",), None, mode="additive")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            StructuralEquation("age", mode="psychic")

    def test_describe_is_readable(self):
        equation = scm_equations("adult")[0]
        assert "age" in equation.describe()
        assert "floor" in equation.describe()


class TestScmSemantics:
    def test_intervention_never_lowers_age(self, adult):
        # time moves forward: a candidate that acts on education (down to
        # school) must not make the individual younger even though the
        # floor would allow it
        x = encoded_row(adult, age=48.0, education="masters")
        candidate = encoded_row(adult, age=30.0, education="school")
        repaired = adult.encoder.inverse_transform(
            ScmCausalModel(adult.encoder).repair(x, candidate))
        assert repaired["age"][0] >= 48.0 - 1e-6

    def test_hours_follow_occupation_with_abducted_noise(self, adult):
        # moving occupation re-predicts hours but keeps the individual's
        # own residual: the delta matches the equation coefficients
        from repro.data.adult import HOURS_EQUATION

        x = encoded_row(adult, occupation="blue_collar", hours_per_week=45.0)
        candidate = encoded_row(adult, occupation="professional", hours_per_week=45.0)
        repaired = adult.encoder.inverse_transform(
            ScmCausalModel(adult.encoder).repair(x, candidate))
        rank_delta = 4  # blue_collar (0) -> professional (4)
        expected = 45.0 + HOURS_EQUATION["per_occupation_rank"] * rank_delta
        assert repaired["hours_per_week"][0] == pytest.approx(expected, abs=1e-6)

    def test_abduct_recovers_additive_residuals(self, adult):
        model = ScmCausalModel(adult.encoder)
        x = adult.encoded[:50]
        residuals = model.abduct(x)
        assert "hours_per_week<-occupation,gender" in residuals
        assert all(len(values) == 50 for values in residuals.values())
        # the data respects every floor, so floor slack is non-negative
        assert (residuals["age<-education"] >= 0).all()
        # monotone equations carry no noise
        np.testing.assert_array_equal(residuals["age<-self"], np.zeros(50))

    def test_repair_enforces_education_age_floor(self, adult):
        # a candidate that jumps to doctorate at age 20 is repaired to
        # the attainment age — the Mahajan-style causal consistency the
        # paper's Eq. 2 encodes
        x = encoded_row(adult, age=20.0, education="hs_grad")
        candidate = encoded_row(adult, age=20.0, education="doctorate")
        model = ScmCausalModel(adult.encoder)
        repaired = adult.encoder.inverse_transform(model.repair(x, candidate))
        assert repaired["age"][0] >= EDUCATION_MIN_AGE["doctorate"]
        assert model.score(x, candidate)[0] > 0

    def test_equations_validate_against_schema(self, adult):
        with pytest.raises(KeyError, match="not in the schema"):
            ScmCausalModel(adult.encoder, equations=(
                StructuralEquation("mithril", mode="monotone"),))
        with pytest.raises(ValueError, match="immutable"):
            ScmCausalModel(adult.encoder, equations=(
                StructuralEquation("gender", mode="monotone"),))
        with pytest.raises(ValueError, match="categorical"):
            ScmCausalModel(adult.encoder, equations=(
                StructuralEquation("education", mode="monotone"),))


class TestMinedSemantics:
    def test_fit_mines_the_paper_relation_on_law(self, law):
        x_train, y_train = law.split("train")
        model = MinedCausalModel(law.encoder).fit(x_train, y_train)
        pairs = {(cause, effect) for cause, effect, _ in model.relations}
        assert ("tier", "lsat") in pairs

    def test_fit_drops_reverse_duplicate_relations(self, law):
        x_train, _ = law.split("train")
        model = MinedCausalModel(law.encoder).fit(x_train)
        pairs = {(cause, effect) for cause, effect, _ in model.relations}
        assert not any((effect, cause) in pairs for cause, effect in pairs)

    def test_repaired_candidates_satisfy_the_constraint(self, law):
        # the whole point of the monotone repair: the matching
        # OrdinalImplicationConstraint holds on repaired output
        model = MinedCausalModel(law.encoder, relations=[("tier", "lsat", 0.05)])
        constraint = OrdinalImplicationConstraint(
            law.encoder, "tier", "lsat", slope=0.05)
        x = law.encoded[:60]
        rng = np.random.default_rng(0)
        raw = np.clip(x + rng.normal(0.0, 0.2, x.shape), 0.0, 1.0)
        # keep rows with headroom: a repair clamped at the encoded
        # ceiling cannot satisfy a strict increase within the domain
        repaired = model.repair(x, raw)
        headroom = repaired[:, law.encoder.column_of("lsat")] < 1.0
        assert headroom.sum() > 20
        assert constraint.satisfied(x[headroom], repaired[headroom]).all()

    def test_repair_never_leaves_the_encoded_box(self, law):
        # the lift is clamped at the encoded ceiling, so repaired
        # candidates stay inside [0, 1] like every other candidate source
        model = MinedCausalModel(law.encoder, relations=[("tier", "lsat", 0.9)])
        x = law.encoded[:40]
        candidate = x.copy()
        tier_col = law.encoder.column_of("tier")
        candidate[:, tier_col] = 1.0  # maximal cause jump, huge slope
        repaired = model.repair(x, candidate)
        assert repaired[:, law.encoder.column_of("lsat")].max() <= 1.0

    def test_cause_down_is_left_alone(self, law):
        model = MinedCausalModel(law.encoder, relations=[("tier", "lsat", 0.05)])
        x = law.encoded[:20]
        candidate = x.copy()
        tier_col = law.encoder.column_of("tier")
        candidate[:, tier_col] = np.maximum(candidate[:, tier_col] - 0.3, 0.0)
        np.testing.assert_array_equal(model.repair(x, candidate), candidate)

    def test_unfitted_repair_raises(self, law):
        model = MinedCausalModel(law.encoder)
        with pytest.raises(RuntimeError, match="not fitted"):
            model.repair(law.encoded[:2], law.encoded[:2])

    def test_empty_mining_result_is_identity(self, law):
        model = MinedCausalModel(law.encoder, relations=[])
        x = law.encoded[:10]
        candidate = np.clip(x + 0.1, 0.0, 1.0)
        np.testing.assert_array_equal(model.repair(x, candidate), candidate)

    def test_relation_validation(self, law):
        with pytest.raises(ValueError, match="continuous"):
            MinedCausalModel(law.encoder, relations=[("tier", "race", 0.1)])
        with pytest.raises(KeyError, match="not in the schema"):
            MinedCausalModel(law.encoder, relations=[("palantir", "lsat", 0.1)])


class TestPersistence:
    @pytest.mark.parametrize("name", CAUSAL_NAMES)
    def test_state_round_trip_preserves_fingerprint(self, adult, name):
        x_train, y_train = adult.split("train")
        model = fit_causal(name, adult.encoder, x_train, y_train)
        rebuilt = causal_from_state(model.get_state(), adult.encoder)
        assert rebuilt.fingerprint() == model.fingerprint()
        x = adult.encoded[:10]
        sweep = np.clip(
            x[:, None, :]
            + np.random.default_rng(1).normal(0.0, 0.1, (10, 3, x.shape[1])),
            0.0, 1.0)
        np.testing.assert_array_equal(
            rebuilt.repair_batch(x, sweep), model.repair_batch(x, sweep))

    def test_fingerprint_differs_across_models(self, adult):
        x_train, _ = adult.split("train")
        scm = fit_causal("scm", adult.encoder, x_train)
        mined = fit_causal("mined", adult.encoder, x_train)
        assert scm.fingerprint() != mined.fingerprint()

    def test_mined_fingerprint_tracks_relations(self, adult):
        one = MinedCausalModel(adult.encoder, relations=[("education", "age", 0.02)])
        two = MinedCausalModel(adult.encoder, relations=[("education", "age", 0.04)])
        assert one.fingerprint() != two.fingerprint()

    def test_from_state_rejects_wrong_schema(self, adult, law):
        model = ScmCausalModel(adult.encoder)
        with pytest.raises(ValueError, match="schema"):
            causal_from_state(model.get_state(), law.encoder)

    def test_unknown_state_kind_raises(self, adult):
        with pytest.raises(KeyError, match="unknown causal state kind"):
            causal_from_state({"kind": "astrology"}, adult.encoder)

    def test_custom_equation_list_refuses_to_persist(self, adult):
        # from_state rebuilds the dataset defaults, so persisting a
        # custom list would silently load as a different model
        model = ScmCausalModel(
            adult.encoder, equations=(StructuralEquation("age", mode="monotone"),))
        with pytest.raises(ValueError, match="custom equation list"):
            model.get_state()

    def test_custom_equation_model_still_fingerprints(self, adult):
        # an unpersistable model must still be hostable: fingerprint()
        # (used by engine caches and the serving layer) works and is
        # distinct from the dataset-default model's
        custom = ScmCausalModel(
            adult.encoder, equations=(StructuralEquation("age", mode="monotone"),))
        assert custom.fingerprint() != ScmCausalModel(adult.encoder).fingerprint()


class TestFactoryAndValidation:
    def test_build_causal_names(self, adult):
        assert isinstance(build_causal("scm", adult.encoder), ScmCausalModel)
        assert isinstance(build_causal("mined", adult.encoder), MinedCausalModel)
        with pytest.raises(KeyError, match="unknown causal model"):
            build_causal("tarot", adult.encoder)

    @pytest.mark.parametrize("name", CAUSAL_NAMES)
    def test_wrong_width_inputs_raise_schema_error(self, adult, name):
        x_train, _ = adult.split("train")
        model = fit_causal(name, adult.encoder, x_train)
        x = adult.encoded[:4]
        good = np.repeat(x[:, None, :], 2, axis=1)
        with pytest.raises(SchemaMismatchError):
            model.repair_batch(x[:, :-1], good)
        with pytest.raises(SchemaMismatchError):
            model.repair_batch(x, good[:, :, :-1])
        with pytest.raises(ValueError, match="rows"):
            model.repair_batch(x[:2], good)
        with pytest.raises(ValueError, match="tensor"):
            model.repair_batch(x, x)
