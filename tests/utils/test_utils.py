"""Tests for table rendering and validation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    check_2d,
    check_binary_labels,
    check_positive,
    check_probability,
    format_number,
    render_table,
)
from repro.utils.validation import check_count, resolve_desired


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.50" in text
        assert "-" in lines[-1]  # None cell

    def test_title(self):
        text = render_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_format_number(self):
        assert format_number(None) == "-"
        assert format_number(3) == "3"
        assert format_number(3.14159, digits=3) == "3.142"
        assert format_number(float("nan")) == "-"
        assert format_number("text") == "text"
        assert format_number(True) == "True"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_property_column_alignment(self, values):
        rows = [values, values]
        text = render_table([f"c{i}" for i in range(len(values))], rows)
        lines = text.splitlines()
        assert len({len(line) for line in lines[0:1] + lines[2:]}) == 1


class TestValidation:
    def test_check_2d_accepts_matrix(self):
        out = check_2d([[1.0, 2.0]])
        assert out.shape == (1, 2)

    def test_check_2d_rejects_vector(self):
        with pytest.raises(ValueError):
            check_2d(np.zeros(3))

    def test_check_2d_rejects_empty(self):
        with pytest.raises(ValueError):
            check_2d(np.zeros((0, 3)))

    def test_check_2d_rejects_nan(self):
        with pytest.raises(ValueError):
            check_2d(np.array([[np.nan, 1.0]]))

    def test_check_binary_labels(self):
        out = check_binary_labels([0, 1, 1])
        assert out.dtype == int

    def test_check_binary_labels_rejects_other_values(self):
        with pytest.raises(ValueError):
            check_binary_labels([0, 2])

    def test_check_binary_labels_rejects_2d(self):
        with pytest.raises(ValueError):
            check_binary_labels(np.zeros((2, 2)))

    def test_check_probability(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5)

    def test_check_positive(self):
        assert check_positive(2) == 2.0
        with pytest.raises(ValueError):
            check_positive(0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_check_positive_rejects_non_finite_and_negative(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            check_positive(bad, "weight")

    @pytest.mark.parametrize("bad", [2.5, True, "3", -1])
    def test_check_count_rejects_non_ints(self, bad):
        with pytest.raises(ValueError, match="must be an int >= 0"):
            check_count(bad, "n", 0)

    def test_check_count_accepts_numpy_ints(self):
        assert check_count(np.int64(3), "n", 1) == 3


class _ThresholdBlackBox:
    """Predicts class 1 for rows whose first feature exceeds 0.5."""

    def __init__(self):
        self.calls = 0

    def predict(self, rows):
        self.calls += 1
        return (np.asarray(rows)[:, 0] > 0.5).astype(int)


class TestResolveDesired:
    rows = np.array([[0.9, 0.0], [0.1, 0.0], [0.7, 1.0], [0.2, 1.0]])

    def test_none_flips_every_prediction(self):
        blackbox = _ThresholdBlackBox()
        out = resolve_desired(blackbox, self.rows, None)
        assert out.tolist() == [0, 1, 0, 1]
        assert blackbox.calls == 1

    def test_scalar_broadcasts_without_predicting(self):
        blackbox = _ThresholdBlackBox()
        assert resolve_desired(blackbox, self.rows, 1).tolist() == [1] * 4
        assert resolve_desired(blackbox, self.rows, np.int64(0)).tolist() == [0] * 4
        assert blackbox.calls == 0

    def test_array_passes_through_as_ints(self):
        blackbox = _ThresholdBlackBox()
        out = resolve_desired(blackbox, self.rows, np.array([1.0, 0.0, 1.0, 1.0]))
        assert out.dtype.kind == "i"
        assert out.tolist() == [1, 0, 1, 1]
        assert resolve_desired(blackbox, self.rows, [0, 0, 1, 1]).tolist() == [0, 0, 1, 1]
        assert blackbox.calls == 0

    def test_mixed_list_flips_only_the_none_rows(self):
        blackbox = _ThresholdBlackBox()
        out = resolve_desired(blackbox, self.rows, [None, 0, 1, None])
        assert out.tolist() == [0, 0, 1, 1]
        assert blackbox.calls == 1
        assert resolve_desired(blackbox, self.rows, (None,) * 4).tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("desired", [
        [1, 0],
        np.zeros(5, dtype=int),
        [None, 1],
    ], ids=["short-list", "long-array", "short-mixed"])
    def test_length_mismatch_raises(self, desired):
        with pytest.raises(ValueError, match="row counts differ"):
            resolve_desired(_ThresholdBlackBox(), self.rows, desired)

    def test_matrix_raises(self):
        with pytest.raises(ValueError, match="scalar or 1-D"):
            resolve_desired(_ThresholdBlackBox(), self.rows, np.zeros((4, 1)))

    @pytest.mark.parametrize("bad", [2, -1, 0.7])
    @pytest.mark.parametrize("form", ["scalar", "vector", "mixed"])
    def test_a_class_outside_zero_one_raises(self, form, bad):
        desired = {"scalar": bad, "vector": [0, 1, bad, 1],
                   "mixed": [None, 1, bad, None]}[form]
        with pytest.raises(ValueError, match="desired must contain only 0/1"):
            resolve_desired(_ThresholdBlackBox(), self.rows, desired)
