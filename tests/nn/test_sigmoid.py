"""The logistic-sigmoid kernel: no overflow warnings, byte-identical to its old formula."""

import warnings

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.functional import sigmoid_forward
from tests.helpers.sigmoid_ref import sigmoid_ref

# the one float type of repro.nn
DTYPES = [np.float64]
EDGES = [0.0, -0.0, 88.7, -88.7, 100.0, -100.0, 500.0, -500.0, 501.0, -501.0,
         600.0, -600.0, 745.0, -745.0, np.inf, -np.inf,
         5e-324, -5e-324, 1e-310, -1e-310, 1e-40, -1e-40]


def _inputs(dtype):
    rng = np.random.default_rng(0)
    return [
        rng.standard_normal((233, 29)).astype(dtype) * 30,
        rng.standard_normal(2000).astype(dtype) * 300,
        np.asarray(EDGES, dtype=dtype),
    ]


@pytest.mark.parametrize("dtype", DTYPES)
def test_large_magnitudes_do_not_warn(dtype):
    x = np.array([100.0, -100.0, 600.0, -600.0], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid_forward(x)
        node = Tensor(x).sigmoid()
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, node.data)
    assert out[0] == 1.0 and out[2] == 1.0
    assert 0.0 <= out[3] <= out[1] < 1e-40


@pytest.mark.parametrize("dtype", DTYPES)
def test_bytes_match_the_old_formula(dtype):
    for x in _inputs(dtype):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = sigmoid_ref(x)
        got = sigmoid_forward(x)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        out = np.empty_like(got)
        assert sigmoid_forward(x, out) is out
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_nan_stays_nan(dtype):
    x = np.array([np.nan, 1.0, np.nan], dtype=dtype)
    got = sigmoid_forward(x)
    assert np.isnan(got[[0, 2]]).all() and got[1] == sigmoid_ref(x)[1]
