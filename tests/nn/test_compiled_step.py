"""Compiled training steps: replays are byte-identical to the eager tape.

Every parity case below fits twice from the same seeds: once with every
compiled step held eager (``tests.helpers.autograd_ref.eager_steps``
makes each loop's trace refuse, so the loop runs the library's own eager
fallback), once compiled — traced per batch shape, then replayed in
place.  It compares every ``state_dict()`` array, the loss history and
the produced counterfactuals byte for byte, in float64 and under
``dtype_scope("float32")``, with row counts that leave a partial last
batch (its own traces, replayed from the third epoch on).  The compiled
side must replay and must not be refused.  Its backward is a plan
recorded on a shape's second batch and replayed from the third on
(``repro.nn.compile.BackwardPlan``); the cases at the end pin the plan's
leaf-binding and fallback rules and its lifetime, that the benchmark's
``fit`` pass replays a plan on every traced root, and that pass's bytes.
"""

import gc
import sys
import threading
import weakref
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
from repro.nn import SGD, Tensor, dtype_scope, linear
from repro.nn.compile import REFUSALS, BackwardPlan, CompiledStep, StepTrace
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
    assert second._plan is None  # closing drops the backward plan


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


def test_another_threads_backward_stays_out_of_a_record(monkeypatch):
    with eager_steps():
        expected = _toy_fit()
    counts = _count_plans(monkeypatch)
    begin = BackwardPlan.begin

    def begin_then_walk_elsewhere(self, ones):
        started = begin(self, ones)
        if started:  # another thread walks a backward while this one records
            other = Tensor(np.ones((2, 2)), requires_grad=True)
            walker = threading.Thread(target=lambda: ((other * 2.0) ** 2).sum().backward())
            walker.start()
            walker.join(timeout=30)
            assert not walker.is_alive() and other.grad is not None
        return started

    monkeypatch.setattr(BackwardPlan, "begin", begin_then_walk_elsewhere)
    actual = _toy_fit()
    assert_bits_equal(expected, actual)
    (recordings, dropped, replays, walks), = counts.values()
    assert (recordings, dropped, replays, walks) == (1, 0, 7, 1)


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


def _count_plans(monkeypatch):
    """Per backward plan: ``[recordings, dropped, replays, walks]``.

    ``walks`` counts ``replay()`` calls that declined (the walk ran).
    """
    counts = {}
    begin, end, replay = BackwardPlan.begin, BackwardPlan.end, BackwardPlan.replay

    def counting_begin(self, ones):
        started = begin(self, ones)
        counts.setdefault(self, [0, 0, 0, 0])[0] += started
        return started

    def counting_end(self, completed):
        end(self, completed)
        counts[self][1] += self.kernels is None  # dropped

    def counting_replay(self):
        replayed = replay(self)
        counts.setdefault(self, [0, 0, 0, 0])[2 if replayed else 3] += 1
        return replayed

    monkeypatch.setattr(BackwardPlan, "begin", counting_begin)
    monkeypatch.setattr(BackwardPlan, "end", counting_end)
    monkeypatch.setattr(BackwardPlan, "replay", counting_replay)
    return counts


def _run_fit_workload():
    """The benchmark's ``fit`` pass at training seed 0: each scenario's
    engine output, then every VAE it trained and the black box."""
    from repro.engine import EngineRunner, get_scenario, run_scenario
    from repro.experiments import prepare_context

    vaes, runs = [], []
    fits = {cls: cls.fit for cls in (CFVAEGenerator, ReviseExplainer)}

    def keeping_vae(cls):
        def fit(self, *args, **kwargs):
            out = fits[cls](self, *args, **kwargs)
            vaes.append(self.vae)
            return out

        return fit

    context = prepare_context("adult", scale="smoke", seed=0)
    runner = EngineRunner(context.bundle.encoder, context.blackbox)
    run = runner.run

    def capture(*args, **kwargs):
        out = run(*args, **kwargs)
        runs.append(out[0] if isinstance(out, tuple) else out)
        return out

    runner.run = capture
    with pytest.MonkeyPatch.context() as patch:
        for cls in fits:
            patch.setattr(cls, "fit", keeping_vae(cls))
        for name in ("adult/ours_unary", "adult/revise", "adult/ours_unary+inloss"):
            run_scenario(get_scenario(name), context=context, runner=runner)
    return ([(r.x_cf, r.valid) for r in runs], [vae.state_dict() for vae in vaes],
            context.blackbox.state_dict())


@pytest.fixture(scope="module")
def fit_workload():
    """The ``fit`` pass eager, then compiled with its backward plans counted."""
    with eager_steps():
        eager = _run_fit_workload()
    with pytest.MonkeyPatch.context() as patch:
        counts = _count_plans(patch)
        compiled = _run_fit_workload()
    return eager, compiled, counts


def test_fit_workload_is_byte_identical_to_eager(fit_workload):
    eager, compiled, _ = fit_workload
    runs, vaes, _ = compiled
    assert len(runs) == 3 and len(vaes) == 3  # the CF-VAE twice, REVISE's VAE once
    assert_bits_equal(eager, compiled)


def test_every_traced_root_of_the_fit_workload_replays_its_plan(fit_workload):
    _, _, counts = fit_workload
    # the classifier, two warm starts, two CF-VAE fits, REVISE's VAE and
    # latent search; a shape's plan is recorded on its first backward
    assert len(counts) >= 7
    for recordings, failed, replays, walks in counts.values():
        assert (recordings, failed, walks) == (1, 0, 1)  # the recording walk only
        assert replays > 0
    assert sum(c[2] for c in counts.values()) + len(counts) > 1000


def _toy_step(w, u, v, square=None):
    """A step where leaf ``w`` has a constant gradient, ``u`` and ``v`` get
    the same array passed through an add, and ``s`` sums constant and
    batch-dependent contributions; ``square`` replaces ``x ** 2``."""
    square = square or (lambda x: x ** 2)
    bias = Tensor(np.zeros(1))

    def step(rows):
        s = square(linear(Tensor(rows), u + v, bias).sigmoid()).mean()
        return (w * 3.0).sum() + s * 2.0 + s * 3.0 + s * s

    return step


def _toy_fit(edit_grad=False, backward_twice=False, steps=9, square=None):
    """SGD with momentum on :func:`_toy_step`; the weights and last gradients."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(12, 3))
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((3, 1), (3, 1), (3, 1))]
    optimizer = SGD(leaves, lr=0.1, momentum=0.9)
    with CompiledStep(_toy_step(*leaves, square), (data,), name="toy") as compiled:
        for index in range(steps):
            optimizer.zero_grad()
            loss = compiled(np.arange(4) + 4 * (index % 3))
            loss.backward()
            if backward_twice:
                loss.backward()  # accumulates: no zero_grad in between
            if edit_grad:
                for leaf in leaves:
                    leaf.grad *= 0.5
            optimizer.step()
    return [leaf.data for leaf in leaves], [leaf.grad for leaf in leaves]


def test_editing_a_constant_leaf_gradient_in_place_is_byte_identical_to_eager(monkeypatch):
    with eager_steps():
        expected = _toy_fit(edit_grad=True)
    counts = _count_plans(monkeypatch)
    actual = _toy_fit(edit_grad=True)
    assert_bits_equal(expected, actual)
    # two traces, then seven replays; w's gradient (a copy of a folded
    # constant) binds a buffer the replay rewrites, not the folded one
    (recordings, failed, replays, walks), = counts.values()
    assert (recordings, failed, replays, walks) == (1, 0, 7, 1)
    np.testing.assert_array_equal(actual[1][0], np.full((3, 1), 1.5))


def test_a_second_backward_without_zero_grad_walks_and_matches_eager(monkeypatch):
    with eager_steps():
        expected = _toy_fit(backward_twice=True)
    counts = _count_plans(monkeypatch)
    actual = _toy_fit(backward_twice=True)
    assert_bits_equal(expected, actual)
    (recordings, failed, replays, walks), = counts.values()
    # the recording walk, then every second call walks (the leaves hold gradients)
    assert (recordings, failed, replays, walks) == (1, 0, 7, 9)
    np.testing.assert_array_equal(actual[1][0], np.full((3, 1), 6.0))


def test_a_backward_computing_outside_the_kernels_drops_its_plan(monkeypatch):
    def square(x):
        # a custom op whose backward allocates its gradient directly: a
        # replay of it would reuse the recorded array, so there is no plan
        def backward(g):
            return ((x, g * 2.0 * x.data),)

        return Tensor._make(np.square(x.data), (x,), backward, np.square, (x.data,))

    with eager_steps():
        expected = _toy_fit(square=square)
    counts = _count_plans(monkeypatch)
    actual = _toy_fit(square=square)
    assert_bits_equal(expected, actual)
    (recordings, dropped, replays, walks), = counts.values()
    assert (recordings, dropped, replays, walks) == (1, 1, 0, 8)


def test_closing_the_step_frees_the_recorded_gradient_buffers(adult, monkeypatch):
    bundle, x, y = adult
    buffers = []
    end = BackwardPlan.end

    def keeping_buffers(self, completed):
        end(self, completed)
        bound = {id(buffer) for _, buffer in self.binds}
        buffers.extend(weakref.ref(args[-1]) for _, args in self.kernels
                       if id(args[-1]) not in bound)

    monkeypatch.setattr(BackwardPlan, "end", keeping_buffers)
    model = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(model, x, y, epochs=3, batch_size=64, rng=np.random.default_rng(1))
    gc.collect()
    assert len(buffers) > 10
    assert all(ref() is None for ref in buffers)
