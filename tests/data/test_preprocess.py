"""Tests for the invertible TabularEncoder, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DatasetSchema,
    FeatureSpec,
    FeatureType,
    TabularEncoder,
    TabularFrame,
    generate_adult,
    clean,
    ADULT_SCHEMA,
)

TOY_SCHEMA = DatasetSchema(
    name="toy",
    features=(
        FeatureSpec("age", FeatureType.CONTINUOUS, bounds=(18.0, 80.0)),
        FeatureSpec("flag", FeatureType.BINARY, immutable=True),
        FeatureSpec("grade", FeatureType.CATEGORICAL, categories=("low", "mid", "high")),
    ),
    target="y",
)


def toy_frame():
    return TabularFrame({
        "age": np.array([20.0, 50.0, 80.0]),
        "flag": np.array([0.0, 1.0, 1.0]),
        "grade": np.array(["low", "high", "mid"], dtype=object),
    })


class TestEncoderLayout:
    def test_slices_are_contiguous_and_cover(self):
        enc = TabularEncoder(TOY_SCHEMA)
        assert enc.feature_slices["age"] == slice(0, 1)
        assert enc.feature_slices["flag"] == slice(1, 2)
        assert enc.feature_slices["grade"] == slice(2, 5)
        assert enc.n_encoded == 5

    def test_requires_fit_before_transform(self):
        enc = TabularEncoder(TOY_SCHEMA)
        with pytest.raises(RuntimeError):
            enc.transform(toy_frame())
        with pytest.raises(RuntimeError):
            enc.inverse_transform(np.zeros((1, 5)))

    def test_ranges_property(self):
        enc = TabularEncoder(TOY_SCHEMA).fit(toy_frame())
        assert enc.ranges["age"] == (20.0, 80.0)

    def test_constant_column_handled(self):
        frame = TabularFrame({
            "age": np.array([30.0, 30.0]),
            "flag": np.array([0.0, 1.0]),
            "grade": np.array(["low", "low"], dtype=object),
        })
        enc = TabularEncoder(TOY_SCHEMA).fit(frame)
        out = enc.transform(frame)
        assert np.isfinite(out).all()


class TestTransform:
    def test_continuous_minmax(self):
        enc = TabularEncoder(TOY_SCHEMA)
        out = enc.fit_transform(toy_frame())
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_binary_passthrough(self):
        out = TabularEncoder(TOY_SCHEMA).fit_transform(toy_frame())
        np.testing.assert_allclose(out[:, 1], [0.0, 1.0, 1.0])

    def test_onehot_block(self):
        out = TabularEncoder(TOY_SCHEMA).fit_transform(toy_frame())
        np.testing.assert_allclose(out[0, 2:5], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(out[1, 2:5], [0.0, 0.0, 1.0])

    def test_unknown_category_raises(self):
        enc = TabularEncoder(TOY_SCHEMA).fit(toy_frame())
        frame = toy_frame()
        columns = {name: frame[name] for name in frame.column_names}
        columns["grade"] = np.array(["???", "low", "mid"], dtype=object)
        bad = TabularFrame(columns)
        with pytest.raises(ValueError):
            enc.transform(bad)

    def test_values_bounded_01(self):
        frame, labels = generate_adult(2000, seed=0)
        frame, _ = clean(frame, labels)
        out = TabularEncoder(ADULT_SCHEMA).fit_transform(frame)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestInverse:
    def test_roundtrip_exact_categories(self):
        enc = TabularEncoder(TOY_SCHEMA)
        encoded = enc.fit_transform(toy_frame())
        back = enc.inverse_transform(encoded)
        np.testing.assert_array_equal(back["grade"], toy_frame()["grade"])
        np.testing.assert_allclose(back["age"], toy_frame()["age"])
        np.testing.assert_allclose(back["flag"], toy_frame()["flag"])

    def test_inverse_total_on_arbitrary_matrices(self):
        enc = TabularEncoder(TOY_SCHEMA).fit(toy_frame())
        rng = np.random.default_rng(0)
        noisy = rng.normal(0.5, 1.0, size=(10, enc.n_encoded))
        frame = enc.inverse_transform(noisy)
        # continuous clipped to schema bounds
        assert frame["age"].min() >= 18.0 and frame["age"].max() <= 80.0
        # binary thresholded
        assert set(np.unique(frame["flag"])) <= {0.0, 1.0}
        # categorical decoded to valid labels
        assert set(frame["grade"]) <= {"low", "mid", "high"}

    def test_inverse_shape_validation(self):
        enc = TabularEncoder(TOY_SCHEMA).fit(toy_frame())
        with pytest.raises(ValueError):
            enc.inverse_transform(np.zeros((2, 3)))


class TestStructuralMetadata:
    def test_immutable_mask(self):
        enc = TabularEncoder(TOY_SCHEMA)
        np.testing.assert_array_equal(
            enc.immutable_mask(), [False, True, False, False, False])

    def test_column_of_continuous(self):
        enc = TabularEncoder(TOY_SCHEMA)
        assert enc.column_of("age") == 0
        assert enc.column_of("flag") == 1

    def test_column_of_rejects_categorical(self):
        with pytest.raises(ValueError):
            TabularEncoder(TOY_SCHEMA).column_of("grade")

    def test_normalized_value(self):
        enc = TabularEncoder(TOY_SCHEMA).fit(toy_frame())
        assert enc.normalized_value("age", 50.0) == pytest.approx(0.5)

    def test_category_rank_weights(self):
        enc = TabularEncoder(TOY_SCHEMA)
        np.testing.assert_allclose(enc.category_rank_weights("grade"), [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            enc.category_rank_weights("age")


@st.composite
def toy_rows(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    ages = draw(st.lists(
        st.floats(min_value=18.0, max_value=80.0, allow_nan=False),
        min_size=n, max_size=n))
    flags = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    grades = draw(st.lists(
        st.sampled_from(["low", "mid", "high"]), min_size=n, max_size=n))
    return TabularFrame({
        "age": np.array(ages),
        "flag": np.array(flags),
        "grade": np.array(grades, dtype=object),
    })


class TestEncoderProperties:
    @given(toy_rows())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_identity_up_to_range(self, frame):
        enc = TabularEncoder(TOY_SCHEMA).fit(frame)
        back = enc.inverse_transform(enc.transform(frame))
        np.testing.assert_allclose(back["age"], frame["age"], atol=1e-9)
        np.testing.assert_array_equal(back["grade"], frame["grade"])
        np.testing.assert_allclose(back["flag"], frame["flag"])

    @given(toy_rows())
    @settings(max_examples=40, deadline=None)
    def test_onehot_blocks_sum_to_one(self, frame):
        enc = TabularEncoder(TOY_SCHEMA).fit(frame)
        encoded = enc.transform(frame)
        block = encoded[:, enc.feature_slices["grade"]]
        np.testing.assert_allclose(block.sum(axis=1), np.ones(frame.n_rows))

    @given(toy_rows())
    @settings(max_examples=40, deadline=None)
    def test_encoded_within_unit_interval(self, frame):
        enc = TabularEncoder(TOY_SCHEMA).fit(frame)
        encoded = enc.transform(frame)
        assert encoded.min() >= -1e-12
        assert encoded.max() <= 1.0 + 1e-12

