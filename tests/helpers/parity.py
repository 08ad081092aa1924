"""Shared batched-vs-loop parity harness.

Every vectorization PR in this repo keeps the per-row loop it replaced
as a parity reference (``tests.helpers.loops``, or each constraint's own
``satisfied`` on aligned rows for tiled feasibility evaluation) and pins
the batched path bit-identical to it on all registry datasets (tiled
feasibility, the density selector, the t-SNE perplexity search, the
causal repair pass).  The
pattern used to be copy-pasted per test module; this module is the one
home for it:

* :func:`registry_bundle_fixture` — a parametrized module-scoped bundle
  fixture over every registry dataset (assign it to a module-level name
  and pytest picks it up like a locally defined fixture),
* :func:`perturbed` — the standard noisy-candidate generator,
* :func:`assert_bit_identical` — recursive exact equality over arrays,
  dicts, sequences and scalars, with a context label in failures,
* :func:`assert_close` — the float-tolerance variant for matmul-backed
  paths whose BLAS blocking varies with batch shape,
* :func:`assert_batched_matches_loop` — run a batched callable and its
  loop reference on the same inputs and pin the outputs together,
* :func:`staged_run` — the historical stage-by-stage engine chain, the
  reference ``EngineRunner.run`` / ``ExplainPlan.execute`` are pinned to
  (:func:`staged_runner` wraps it as a runner for ``evaluate``),
* :func:`pick_candidate` — the historical per-row serving pick, the
  reference the vectorized runner selection is pinned to.
"""

import numpy as np
import pytest

from repro.data import dataset_names, load_dataset

#: Every registry dataset, in sorted order (stable test ids).
DATASETS = tuple(sorted(dataset_names()))


def registry_bundle_fixture(n_instances=900, seed=1, scope="module"):
    """Build a bundle fixture parametrized over all registry datasets.

    Usage::

        from tests.helpers.parity import registry_bundle_fixture
        bundle = registry_bundle_fixture()

        def test_something(bundle): ...
    """

    @pytest.fixture(scope=scope, params=DATASETS)
    def bundle(request):
        return load_dataset(request.param, n_instances=n_instances, seed=seed)

    return bundle


def perturbed(x, rng, scale, m=1):
    """``m`` noisy candidates per row of ``x``, flat in ``np.repeat`` order."""
    noise = rng.normal(0.0, scale, size=(len(x) * m, x.shape[1]))
    return np.clip(np.repeat(x, m, axis=0) + noise, 0.0, 1.0)


def candidate_sweep(x, rng, scale, m):
    """``(n, m, d)`` noisy candidate tensor around ``x``."""
    return perturbed(x, rng, scale, m=m).reshape(len(x), m, x.shape[1])


def _compare(fast, loop, context, leaf):
    if isinstance(fast, np.ndarray) or isinstance(loop, np.ndarray):
        leaf(np.asarray(fast), np.asarray(loop), context)
    elif isinstance(fast, dict) and isinstance(loop, dict):
        assert fast.keys() == loop.keys(), \
            f"{context}: key sets differ ({sorted(fast)} vs {sorted(loop)})"
        for key in fast:
            _compare(fast[key], loop[key], f"{context}[{key!r}]", leaf)
    elif isinstance(fast, (list, tuple)) and isinstance(loop, (list, tuple)):
        assert len(fast) == len(loop), \
            f"{context}: lengths differ ({len(fast)} vs {len(loop)})"
        for index, (f, s) in enumerate(zip(fast, loop)):
            _compare(f, s, f"{context}[{index}]", leaf)
    elif isinstance(fast, float) and isinstance(loop, float):
        leaf(np.asarray(fast), np.asarray(loop), context)
    else:
        assert fast == loop, f"{context}: {fast!r} != {loop!r}"


def assert_bit_identical(fast, loop, context="batched vs loop"):
    """Recursive *exact* equality: the bit-parity contract."""

    def leaf(f, s, where):
        np.testing.assert_array_equal(f, s, err_msg=where)

    _compare(fast, loop, context, leaf)


def assert_close(fast, loop, atol=1e-9, context="batched vs loop"):
    """Recursive float-tolerance equality (matmul-backed paths)."""

    def leaf(f, s, where):
        np.testing.assert_allclose(f, s, atol=atol, err_msg=where)

    _compare(fast, loop, context, leaf)


def assert_grad_matches_fd(penalty_fn, x, n_coords=8, eps=1e-5, rtol=5e-3,
                           atol=1e-6, context="analytic vs finite difference"):
    """Pin a scalar penalty's backward gradient to central differences.

    ``penalty_fn`` maps a :class:`repro.nn.Tensor` batch to a scalar
    Tensor.  The analytic gradient is taken once via ``backward()``;
    the ``n_coords`` coordinates with the largest magnitude are then
    re-derived by central finite differences and compared.  The in-loss
    surrogates keep their hinges squared (C^1) precisely so this check
    is meaningful at hinge boundaries.  Returns the full analytic
    gradient for further domain assertions.
    """
    from repro.nn import Tensor

    x = np.asarray(x, dtype=np.float64)
    tensor = Tensor(x.copy(), requires_grad=True)
    penalty_fn(tensor).backward()
    grad = np.asarray(tensor.grad)
    assert np.abs(grad).sum() > 0, f"{context}: gradient is identically zero"
    largest = np.argsort(np.abs(grad).ravel())[::-1][:n_coords]
    for position in largest:
        index = np.unravel_index(position, grad.shape)
        plus, minus = x.copy(), x.copy()
        plus[index] += eps
        minus[index] -= eps
        central = (penalty_fn(Tensor(plus)).item()
                   - penalty_fn(Tensor(minus)).item()) / (2.0 * eps)
        np.testing.assert_allclose(
            grad[index], central, rtol=rtol, atol=atol,
            err_msg=f"{context}: coordinate {index}")
    return grad


def assert_batched_matches_loop(batched_fn, loop_fn, *args, atol=None,
                                context=None, **kwargs):
    """Run both paths on identical inputs and pin the outputs together.

    ``atol=None`` (the default) demands bit-identity; a float switches
    to tolerance comparison.  Returns ``(batched, loop)`` so callers can
    make further domain assertions on either result.
    """
    fast = batched_fn(*args, **kwargs)
    loop = loop_fn(*args, **kwargs)
    where = context or f"{getattr(batched_fn, '__name__', batched_fn)} vs loop"
    if atol is None:
        assert_bit_identical(fast, loop, context=where)
    else:
        assert_close(fast, loop, atol=atol, context=where)
    return fast, loop


def staged_run(runner, strategy, x, desired=None, return_diagnostics=False):
    """Reference stage-by-stage engine chain (the pre-plan ``EngineRunner.run``).

    Propose, project, causally repair, predict, evaluate the kernel,
    score density and ensemble, then select — each stage one separate
    pass over the full ``(n, m, d)`` sweep, with the flag columns
    re-resolved per call.  The compiled plan every runner path replays
    must reproduce this bit for bit on the default backend.
    """
    from repro.core.result import CFBatchResult
    from repro.engine.runner import _select_candidates, _select_candidates_density
    from repro.utils.validation import check_encoded_rows

    x = check_encoded_rows(x, runner.encoder, "x")
    batch = strategy.propose(x, desired)
    x, desired = batch.x, batch.desired
    n, m, d = batch.candidates.shape
    candidates = runner.project(x, batch.candidates)

    sweep_causal = None
    if runner.causal is not None:
        repaired = runner.causal.repair_batch(x, candidates, validate=False)
        if return_diagnostics:
            sweep_causal = np.abs(repaired - candidates).sum(axis=2)
        candidates = repaired
    flat = candidates.reshape(n * m, d)

    predicted = runner.blackbox.predict(flat)
    report = runner.kernel.evaluate(x, flat)
    flags = report.subset_satisfied(runner.flag_indices(strategy))
    valid = predicted == np.repeat(desired, m)

    sweep_density = None
    if runner.density is not None and m > 1:
        sweep_density = runner.density.score_tiled(candidates)

    sweep_cross = robust2d = None
    if runner.ensemble is not None:
        sweep_cross = runner.ensemble.agreement(
            flat, np.repeat(desired, m)).reshape(n, m)
        robust2d = sweep_cross >= runner.robust_quorum

    rows = np.arange(n)
    if m == 1:
        x_cf = candidates[:, 0, :]
        chosen = np.zeros(n, dtype=int)
        row_predicted, row_feasible = predicted, flags
    else:
        valid2d, flags2d = valid.reshape(n, m), flags.reshape(n, m)
        if sweep_density is None:
            chosen = _select_candidates(
                x, candidates, valid2d, flags2d, robust=robust2d)
        else:
            chosen = _select_candidates_density(
                x, candidates, valid2d, flags2d, sweep_density,
                runner.density_weight, robust=robust2d)
        x_cf = candidates[rows, chosen]
        row_predicted = predicted.reshape(n, m)[rows, chosen]
        row_feasible = flags.reshape(n, m)[rows, chosen]

    result = CFBatchResult(
        x=x, x_cf=x_cf, desired=desired, predicted=row_predicted,
        valid=row_predicted == desired, feasible=row_feasible,
        encoder=runner.encoder)
    if not return_diagnostics:
        return result
    diagnostics = {
        "report": report,
        "chosen": chosen,
        "n_candidates": m,
        "n_usable": (valid & flags).reshape(n, m).sum(axis=1),
        "n_valid": valid.reshape(n, m).sum(axis=1),
        "candidate_validity": float(valid.mean()) if valid.size else 0.0,
    }
    if runner.density is not None:
        diagnostics["row_density"] = (
            runner.density.score(x_cf) if sweep_density is None
            else sweep_density[rows, chosen])
    if sweep_causal is not None:
        diagnostics["row_causal"] = sweep_causal[rows, chosen]
    if sweep_cross is not None:
        diagnostics["row_cross_validity"] = sweep_cross[rows, chosen]
        diagnostics["row_robust"] = robust2d[rows, chosen]
        diagnostics["candidate_robustness"] = (
            float(robust2d.mean()) if robust2d.size else 0.0)
    return result, diagnostics


def staged_runner(runner):
    """A twin of ``runner`` whose ``run`` is :func:`staged_run`.

    ``evaluate`` and ``run_scenario`` call ``runner.run``, so scoring
    through the twin yields the staged reference's Table IV row.
    """
    from repro.engine import EngineRunner

    twin = EngineRunner(
        runner.encoder, runner.blackbox, constraints=runner.kernel.source,
        density=runner.density, density_weight=runner.density_weight,
        causal=runner.causal,
        ensemble=runner.ensemble, robust_quorum=runner.robust_quorum)

    def run(strategy, x, desired=None, return_diagnostics=False, plan=None):
        return staged_run(twin, strategy, x, desired, return_diagnostics)

    twin.run = run
    return twin


def pick_candidate(candidate_set):
    """Reference per-row serving pick over one ``tests.helpers.loops.CandidateSet``.

    Closest by L1 among valid & feasible candidates, then among valid
    ones, then candidate 0 (the deterministic zero-noise decode).
    """
    distances = np.abs(
        candidate_set.candidates - candidate_set.x[None, :]).sum(axis=1)
    for mask in (candidate_set.usable_mask, candidate_set.valid):
        if mask.any():
            pool = np.flatnonzero(mask)
            return int(pool[np.argmin(distances[pool])])
    return 0
