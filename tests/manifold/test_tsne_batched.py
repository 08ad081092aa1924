"""Parity of the batched perplexity search against the scalar loop.

Built on the shared ``tests.helpers.parity`` harness (no dataset
dependence — the search operates on arbitrary distance matrices).
"""

import numpy as np
import pytest

from repro.manifold import TSNE
from repro.manifold.tsne import _binary_search_perplexity, _pairwise_sq_distances
from tests.helpers.loops import binary_search_perplexity_loop
from tests.helpers.parity import assert_batched_matches_loop


def assert_search_parity(distances, perplexity):
    assert_batched_matches_loop(
        _binary_search_perplexity, binary_search_perplexity_loop,
        distances, perplexity, context="perplexity search")


@pytest.mark.parametrize("n,perplexity", [(12, 4.0), (40, 12.0), (90, 30.0)])
def test_batched_search_bit_identical_to_loop(n, perplexity):
    rng = np.random.default_rng(n)
    assert_search_parity(_pairwise_sq_distances(rng.normal(size=(n, 5))), perplexity)


def test_duplicate_points_hit_the_uniform_fallback_identically():
    # clusters of identical points drive some rows to the zero-total
    # fallback; both paths must take it the same way
    x = np.zeros((12, 3))
    x[6:] = 5.0
    assert_search_parity(_pairwise_sq_distances(x), 3.0)


def test_rows_follow_the_scalar_convergence_schedule():
    # mixed scales force rows to converge after different iteration
    # counts, exercising the active-set bookkeeping
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal(size=(20, 4)), rng.normal(size=(20, 4)) * 50.0])
    assert_search_parity(_pairwise_sq_distances(x), 10.0)


def test_full_embedding_unchanged_by_the_batched_search():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(25, 4))
    embedding = TSNE(n_iter=40, seed=0).fit_transform(x)
    assert embedding.shape == (25, 2)
    assert np.isfinite(embedding).all()
