"""Compiled training steps: replays are byte-identical to the eager tape.

Every parity case below fits twice from the same seeds: once with every
compiled step held eager (``tests.helpers.autograd_ref.eager_steps``
makes each loop's trace refuse, so the loop runs the library's own eager
fallback), once compiled — traced per batch shape, then replayed in
place.  It compares every ``state_dict()`` array, the loss history and
the produced counterfactuals byte for byte, in float64 and under
``dtype_scope("float32")``, with row counts that leave a partial last
batch (its own traces, replayed from the third epoch on).  The compiled side must replay and must not be
refused.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import ReviseExplainer
from repro.causal import fit_causal
from repro.constraints import (
    Constraint,
    ConstraintSet,
    ImmutableProjector,
    MonotonicIncreaseConstraint,
)
from repro.core import CFVAEGenerator, DensityLossConfig, fast_config, inloss_config
from repro.core.config import CausalLossConfig
from repro.data import load_dataset
from repro.models import (
    BlackBoxClassifier,
    ConditionalVAE,
    train_classifier,
    train_reconstruction_vae,
)
from repro.nn import Tensor, dtype_scope
from repro.nn.compile import REFUSALS, CompiledStep, StepTrace
from tests.helpers.autograd_ref import eager_steps
from tests.nn.test_tape_parity import assert_bits_equal

DTYPES = ["float64", "float32"]


@pytest.fixture(scope="module")
def adult():
    bundle = load_dataset("adult", n_instances=300, seed=0)
    x, y = bundle.split("train")
    return bundle, x, y


@pytest.fixture()
def replays(monkeypatch):
    """Counts replayed steps; REFUSALS starts empty and is restored after."""
    counter = {"replays": 0}
    original = StepTrace.replay

    def counting(self):
        counter["replays"] += 1
        original(self)

    monkeypatch.setattr(StepTrace, "replay", counting)
    saved = dict(REFUSALS)
    REFUSALS.clear()
    yield counter
    REFUSALS.clear()
    REFUSALS.update(saved)


def assert_compiled_parity(run, dtype, replays):
    """``run()`` eager, then compiled; pin the bytes and that it replayed."""
    with dtype_scope(dtype), eager_steps():
        expected = run()
    assert replays["replays"] == 0
    with dtype_scope(dtype):
        actual = run()
    assert REFUSALS == {}
    assert replays["replays"] > 0
    assert_bits_equal(expected, actual)
    return actual


def _blackbox(bundle, x, y):
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=2, rng=np.random.default_rng(0))
    return blackbox


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("balanced", [False, True])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_classifier(adult, replays, dtype, optimizer, balanced):
    bundle, x, y = adult
    assert len(x) % 64  # a partial last batch

    def run():
        model = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
        history = train_classifier(model, x, y, epochs=3, batch_size=64,
                                   optimizer=optimizer, balanced=balanced,
                                   rng=np.random.default_rng(1))
        return model.state_dict(), history

    assert_compiled_parity(run, dtype, replays)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dropout", [0.3, 0.0])
def test_reconstruction_vae(replays, dtype, dropout):
    x = np.random.default_rng(0).random((290, 12))
    labels = (np.arange(290) % 2).astype(float)

    def run():
        vae = ConditionalVAE(12, np.random.default_rng(1), dropout=dropout)
        history = train_reconstruction_vae(vae, x, labels, epochs=3, batch_size=64,
                                           rng=np.random.default_rng(2))
        return vae.state_dict(), history

    assert_compiled_parity(run, dtype, replays)


CF_OBJECTIVES = {
    "four-part": lambda config: config,
    "kde+scm": lambda config: inloss_config(
        config, loss_density=DensityLossConfig(kind="kde"),
        loss_causal=CausalLossConfig(kind="scm")),
    "latent+mined": lambda config: inloss_config(
        config, loss_density=DensityLossConfig(kind="latent"),
        loss_causal=CausalLossConfig(kind="mined")),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("objective", sorted(CF_OBJECTIVES))
def test_cfvae_fit(adult, replays, dtype, objective):
    bundle, x, y = adult
    desired_class = int(bundle.encoder.schema.desired_class)
    config = CF_OBJECTIVES[objective](
        replace(fast_config(epochs=3), warmstart_epochs=1, batch_size=48))
    rows = x[:170]
    assert len(rows) % 48  # a partial last batch
    causal = (fit_causal(config.loss_causal.kind, bundle.encoder, x, y)
              if config.causal_weight_inloss else None)

    def run():
        blackbox = _blackbox(bundle, x, y)
        generator = CFVAEGenerator(
            ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(3)),
            blackbox,
            ConstraintSet([MonotonicIncreaseConstraint(bundle.encoder, "age")]),
            ImmutableProjector(bundle.encoder), config, rng=np.random.default_rng(4))
        generator.prepare_inloss(reference=x[np.asarray(y) == desired_class],
                                 causal=causal, desired_class=desired_class)
        generator.fit(rows)
        return (generator.vae.state_dict(), blackbox.state_dict(),
                generator.history, generator.generate(x[:20]))

    _, _, history, _ = assert_compiled_parity(run, dtype, replays)
    if objective != "four-part":
        assert {"density", "causal"} <= set(history[0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_revise_latent_search(adult, replays, dtype):
    bundle, x, y = adult

    def run():
        explainer = ReviseExplainer(bundle.encoder, _blackbox(bundle, x, y), seed=0,
                                    steps=20, vae_epochs=2).fit(x, y)
        return explainer.vae.state_dict(), explainer.generate(x[:16])

    assert_compiled_parity(run, dtype, replays)


class MedianPull(Constraint):
    """A constraint whose penalty reads a batch statistic outside ``host()``."""

    name = "median-pull"

    def satisfied(self, x, x_cf):
        return np.ones(len(x), dtype=bool)

    def penalty(self, x, x_cf):
        median = np.median(x, axis=0)
        return (x_cf - median).abs().mean() * 0.01


class StdScaledPull(Constraint):
    """A constraint whose penalty scales by a Python number read off the batch."""

    name = "std-scaled-pull"

    def satisfied(self, x, x_cf):
        return np.ones(len(x), dtype=bool)

    def penalty(self, x, x_cf):
        scale = 1.0 / float(x.std())
        return (x_cf - Tensor(x)).abs().mean() * scale * 0.01


@pytest.mark.parametrize("constraint, code", [
    (MedianPull, "(x_cf - median)"),
    (StdScaledPull, "* scale"),
], ids=["batch-array", "batch-number"])
def test_refused_step_names_its_call_site_and_runs_eager(adult, replays, constraint, code):
    bundle, x, y = adult
    config = replace(fast_config(epochs=2), warmstart_epochs=1, batch_size=48)

    def run():
        generator = CFVAEGenerator(
            ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(3)),
            _blackbox(bundle, x, y),
            ConstraintSet([MonotonicIncreaseConstraint(bundle.encoder, "age"),
                           constraint()]),
            ImmutableProjector(bundle.encoder), config, rng=np.random.default_rng(4))
        generator.fit(x[:170])
        return generator.vae.state_dict(), generator.history, generator.generate(x[:20])

    with eager_steps():
        expected = run()
    actual = run()
    assert_bits_equal(expected, actual)
    assert set(REFUSALS) == {"CFVAEGenerator.fit"}
    reason = REFUSALS["CFVAEGenerator.fit"]
    assert __file__ in reason and "in penalty" in reason and code in reason
    # the warm start and the classifier still compiled and replayed
    assert replays["replays"] > 0


def test_a_batch_derived_kernel_argument_is_refused(replays):
    data = np.arange(12.0).reshape(6, 2)
    weight = Tensor(np.ones((2, 1)), requires_grad=True)

    def step(rows):
        hidden = Tensor(rows) @ weight
        return hidden.clip_min(2.0 * float(rows.max())).sum()

    with CompiledStep(step, (data,), name="toy") as compiled:
        values = [compiled(np.array(rows)).item() for rows in ([0, 1], [2, 3], [4, 5])]
    # eager throughout: a replay of the second trace would clip the third
    # batch's [17, 21] at 14 (sum 38), not at 22
    assert values == [12.0, 28.0, 44.0]
    assert replays["replays"] == 0
    reason = REFUSALS["toy"]
    assert "(6.0, then 14.0)" in reason and "hidden.clip_min(2.0 * float(" in reason


def test_step_outputs_are_refreshed_in_place():
    data = np.arange(12.0).reshape(6, 2)
    weight = Tensor(np.ones((2, 1)), requires_grad=True)

    def step(rows):
        return ((Tensor(rows) @ weight).relu() * 2.0).sum()

    with CompiledStep(step, (data,), name="toy") as compiled:
        first = compiled(np.array([0, 1]))
        assert first.item() == 2.0 * (0 + 1 + 2 + 3)
        second = compiled(np.array([2, 3]))  # the shape's second trace
        assert second is not first and second.item() == 2.0 * (4 + 5 + 6 + 7)
        third = compiled(np.array([4, 5]))
        assert third is second  # a replay returns the traced node, refreshed
        assert third.item() == 2.0 * (8 + 9 + 10 + 11)
        third.backward()
        np.testing.assert_array_equal(weight.grad, [[36.0], [40.0]])
        other = compiled(np.array([3]))  # another shape: its own traces
        assert other is not second and other.item() == 2.0 * (6 + 7)
    assert second._order is None  # closing drops the cached order


def test_fit_workload_compiles_without_refusals(replays):
    # the three scenarios of the benchmark's fit workload
    from repro.engine import get_scenario, run_scenario
    from repro.experiments import prepare_context

    context = prepare_context("adult", scale="smoke", seed=0)
    for name in ("adult/ours_unary", "adult/revise", "adult/ours_unary+inloss"):
        run_scenario(get_scenario(name), context=context)
    assert REFUSALS == {}
    assert replays["replays"] > 1000


def test_concurrent_fits_trace_one_at_a_time_and_match_sequential(adult):
    bundle, x, y = adult

    def fit(seed):
        model = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(seed))
        train_classifier(model, x, y, epochs=3, batch_size=64,
                         rng=np.random.default_rng(seed + 1))
        return model.state_dict()

    seeds = list(range(6))
    expected = [fit(seed) for seed in seeds]
    results = {}

    def worker(seed):
        results[seed] = fit(seed)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert_bits_equal(expected[seed], results[seed])


def test_a_step_runs_eager_while_another_thread_traces():
    from repro.nn.compile import _TRACING

    data = np.arange(8.0).reshape(4, 2)
    weight = Tensor(np.ones((2, 1)), requires_grad=True)

    def step(rows):
        return (Tensor(rows) @ weight).sum()

    with CompiledStep(step, (data,), name="toy") as compiled:
        with _TRACING:  # as if another thread were tracing
            outputs = [compiled(np.array([0, 1])) for _ in range(3)]
            assert len({id(node) for node in outputs}) == 3  # no trace was kept
        compiled(np.array([0, 1]))
        traced = compiled(np.array([0, 1]))
        assert compiled(np.array([2, 3])) is traced and traced.item() == 4 + 5 + 6 + 7
