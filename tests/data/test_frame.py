"""Unit tests for the TabularFrame column store."""

import numpy as np
import pytest

from repro.data import TabularFrame


def small_frame():
    return TabularFrame({
        "age": np.array([25.0, 40.0, np.nan]),
        "color": np.array(["red", None, "blue"], dtype=object),
        "flag": np.array([1.0, 0.0, 1.0]),
    })


class TestConstruction:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            TabularFrame({})

    def test_rejects_2d_columns(self):
        with pytest.raises(ValueError):
            TabularFrame({"x": np.zeros((2, 2))})

    def test_rejects_ragged_lengths(self):
        with pytest.raises(ValueError):
            TabularFrame({"a": [1.0, 2.0], "b": [1.0]})

    def test_shape_properties(self):
        frame = small_frame()
        assert frame.n_rows == 3
        assert frame.n_columns == 3
        assert len(frame) == 3
        assert frame.column_names == ("age", "color", "flag")

    def test_contains_and_getitem(self):
        frame = small_frame()
        assert "age" in frame
        assert "height" not in frame
        np.testing.assert_allclose(frame["flag"], [1.0, 0.0, 1.0])
        with pytest.raises(KeyError):
            frame["height"]

    def test_repr(self):
        assert "3 rows" in repr(small_frame())


class TestTransforms:
    def test_take_reorders_rows(self):
        frame = small_frame().take([1, 0])
        np.testing.assert_allclose(frame["flag"], [0.0, 1.0])

    def test_head(self):
        assert small_frame().head(2).n_rows == 2
        assert small_frame().head(10).n_rows == 3


class TestMissing:
    def test_missing_mask_covers_nan_and_none(self):
        mask = small_frame().missing_mask()
        np.testing.assert_array_equal(mask, [False, True, True])

    def test_no_missing_is_noop(self):
        frame = TabularFrame({"a": [1.0, 2.0]})
        assert not frame.missing_mask().any()


class TestRowAccess:
    def test_row_dict(self):
        row = small_frame().row(0)
        assert row["age"] == 25.0
        assert row["color"] == "red"

    def test_row_negative_index(self):
        assert small_frame().row(-1)["color"] == "blue"

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            small_frame().row(5)
