"""The selection kernels, bit for bit against their numpy formulations."""

import numpy as np
import pytest

from repro.engine.runner import argmax_by_pools, standardize_rows


def standardize_reference(values):
    """The formula as first written: ``values.mean`` and ``values.std``."""
    mean = values.mean(axis=1, keepdims=True)
    spread = values.std(axis=1, keepdims=True)
    degenerate = spread < 1e-12
    return np.where(degenerate, 0.0, (values - mean) / np.where(degenerate, 1.0, spread))


@pytest.mark.parametrize("m", [1, 2, 8, 64])
def test_standardize_rows_matches_mean_and_std(m):
    rng = np.random.default_rng(m)
    for trial in range(20):
        values = rng.normal(size=(13, m)) * 10.0 ** rng.integers(-6, 6)
        values[::4] = rng.normal()  # constant rows
        values[1] = values[1].round(2)  # repeated values
        if m > 1:
            values[2, 0] += 1e-13  # near-constant: spread below the cut
        np.testing.assert_array_equal(standardize_rows(values), standardize_reference(values))
        assert standardize_rows(values).tobytes() == standardize_reference(values).tobytes()


def argmax_reference(scores, pools):
    """Row by row: the best score inside the first non-empty pool."""
    chosen = []
    for i, row in enumerate(scores):
        for mask in [*pools, np.ones(scores.shape, dtype=bool)]:
            if mask[i].any():
                candidates = np.flatnonzero(mask[i])
                chosen.append(candidates[np.argmax(row[candidates])])
                break
    return np.array(chosen)


@pytest.mark.parametrize("n_pools", [0, 1, 2, 3])
def test_argmax_by_pools_matches_the_row_loop(n_pools):
    rng = np.random.default_rng(n_pools)
    for n, m in [(1, 8), (7, 3), (32, 8), (5, 1)]:
        scores = rng.normal(size=(n, m)).round(1)  # ties exercise the tie-break
        pools = tuple(rng.random((n, m)) < share for share in (0.15, 0.4, 0.7)[:n_pools])
        np.testing.assert_array_equal(
            argmax_by_pools(scores, pools), argmax_reference(scores, pools))
