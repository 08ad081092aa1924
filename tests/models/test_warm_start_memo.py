"""The reconstruction warm-start memo (``repro.models.training.warm_start_memo``).

A hit must leave the VAE and every generator exactly where training again
would; any change to what the call reads must miss.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentContext
from repro.models import ConditionalVAE, train_reconstruction_vae
from repro.models import training
from repro.models.training import warm_start_memo
from repro.nn import Dropout

KWARGS = {"epochs": 3, "lr": 3e-3, "batch_size": 32, "beta": 0.02}


def make_vae(dropout=0.3):
    return ConditionalVAE(6, np.random.default_rng(0), dropout=dropout)


def make_data():
    rng = np.random.default_rng(1)
    x = rng.random((90, 6))
    labels = (rng.random(90) < 0.5).astype(float)
    return x, labels


def generators(vae):
    """Every distinct generator of the module tree, in first-seen order."""
    found = {}
    for module in vae.modules():
        for value in vars(module).values():
            if isinstance(value, np.random.Generator):
                found.setdefault(id(value), value)
    return list(found.values())


def snapshot(vae, rng):
    """Weight bytes, every generator state and the mode of every module."""
    return (
        [(name, p.data.tobytes()) for name, p in vae.named_parameters(include_frozen=True)],
        [g.bit_generator.state for g in [rng] + generators(vae)],
        [module.training for module in vae.modules()],
    )


def train(vae, x, labels, seed=2, verbose=False, **overrides):
    rng = np.random.default_rng(seed)
    history = train_reconstruction_vae(
        vae, x, labels, rng=rng, verbose=verbose, **{**KWARGS, **overrides})
    return history, rng


@pytest.fixture
def count_optimisers(monkeypatch):
    """How many ``Adam`` optimisers the training function builds."""
    built = []
    adam = training.Adam

    def counting(*args, **kwargs):
        built.append(1)
        return adam(*args, **kwargs)

    monkeypatch.setattr(training, "Adam", counting)
    return built


class TestHit:
    def test_hit_equals_training_again(self, capsys, count_optimisers):
        x, labels = make_data()
        reference = make_vae()
        expected_history, reference_rng = train(reference, x, labels, verbose=True)
        expected_output = capsys.readouterr().out

        store = {}
        with warm_start_memo(store):
            train(make_vae(), x, labels)
            capsys.readouterr()
            vae = make_vae()
            history, rng = train(vae, x, labels, verbose=True)
        assert len(count_optimisers) == 2  # the reference and the miss; the hit built none
        assert capsys.readouterr().out == expected_output
        assert history == expected_history
        assert snapshot(vae, rng) == snapshot(reference, reference_rng)
        assert not any(module.training for module in vae.modules())
        [entry] = store.values()
        assert entry.hits == 1

    def test_shared_noise_generator_keeps_feeding_every_layer(self):
        # the VAE's noise generator feeds every Dropout and the
        # reparameterisation noise: after a hit they still share one object
        x, labels = make_data()
        with warm_start_memo({}):
            train(make_vae(), x, labels)
            vae = make_vae()
            train(vae, x, labels)
        dropouts = [m for m in vae.modules() if isinstance(m, Dropout)]
        assert dropouts and all(d._rng is vae._noise_rng for d in dropouts)


def _weight(vae, x, labels, spec):
    vae.encoder_trunk[0].weight.data[0, 0] += 1e-6


def _label(vae, x, labels, spec):
    labels[0] = 1.0 - labels[0]


def _row(vae, x, labels, spec):
    x[5] = x[5][::-1].copy()


def _rng(vae, x, labels, spec):
    spec["seed"] = 3


def _noise_rng(vae, x, labels, spec):
    vae._noise_rng.random()


def _unshared_generator(vae, x, labels, spec):
    # same state, but one Dropout no longer shares the VAE's generator
    clone = np.random.default_rng()
    clone.bit_generator.state = vae._noise_rng.bit_generator.state
    vae.decoder_trunk[2]._rng = clone


def _kwarg(name, value):
    def change(vae, x, labels, spec):
        spec[name] = value

    change.__name__ = name
    return change


def _dropout_p(vae, x, labels, spec):
    spec["vae"] = make_vae(dropout=0.2)


MISSES = [_weight, _label, _row, _rng, _noise_rng, _unshared_generator,
          _kwarg("epochs", 4), _kwarg("lr", 2e-3), _kwarg("batch_size", 31),
          _kwarg("beta", 0.03), _dropout_p]


class TestMiss:
    @pytest.mark.parametrize("change", MISSES, ids=lambda f: f.__name__.strip("_"))
    def test_each_key_part_misses(self, change, count_optimisers):
        x, labels = make_data()
        store = {}
        with warm_start_memo(store):
            train(make_vae(), x, labels)
            vae, spec = make_vae(), {}
            change(vae, x, labels, spec)
            vae = spec.pop("vae", vae)
            train(vae, x, labels, **spec)
        assert len(count_optimisers) == 2
        assert len(store) == 2 and all(entry.hits == 0 for entry in store.values())

    def test_a_miss_trains_like_no_memo(self):
        x, labels = make_data()
        reference = make_vae(dropout=0.2)
        expected, reference_rng = train(reference, x, labels)
        with warm_start_memo({}):
            train(make_vae(), x, labels)
            vae = make_vae(dropout=0.2)
            history, rng = train(vae, x, labels)
        assert history == expected
        assert snapshot(vae, rng) == snapshot(reference, reference_rng)


class TestScope:
    def test_no_memo_outside_a_scope(self, count_optimisers):
        x, labels = make_data()
        store = {}
        with warm_start_memo(store):
            train(make_vae(), x, labels)
        train(make_vae(), x, labels)
        train(make_vae(), x, labels)
        assert len(count_optimisers) == 3
        [entry] = store.values()
        assert entry.hits == 0

    def test_two_contexts_never_share_an_entry(self, count_optimisers):
        x, labels = make_data()
        first, second = (ExperimentContext(*[None] * 10) for _ in range(2))
        assert first.warm_starts is not second.warm_starts
        for context in (first, second):
            with warm_start_memo(context.warm_starts):
                train(make_vae(), x, labels)
        assert len(count_optimisers) == 2
        for context in (first, second):
            [entry] = context.warm_starts.values()
            assert entry.hits == 0
        assert first == second and "warm_starts" not in repr(first)

    def test_a_rejected_call_is_not_memoised(self):
        x, labels = make_data()
        store = {}
        with warm_start_memo(store):
            with pytest.raises(ValueError, match="batch_size"):
                train(make_vae(), x, labels, batch_size=0)
        assert store == {}


class TestIsolation:
    def test_stored_state_is_not_aliased(self):
        x, labels = make_data()
        with warm_start_memo({}):
            first = make_vae()
            train(first, x, labels)
            expected = snapshot(first, np.random.default_rng(0))[0]
            hit = make_vae()
            history, _ = train(hit, x, labels)
            history.append(99.0)
            # train both further in place, as the CF objective does next
            for vae in (first, hit):
                train_reconstruction_vae(vae, x, labels, epochs=1,
                                         rng=np.random.default_rng(7))
                for parameter in vae.parameters():
                    parameter.data += 1.0
            third = make_vae()
            third_history, _ = train(third, x, labels)
        assert snapshot(third, np.random.default_rng(0))[0] == expected
        assert len(third_history) == KWARGS["epochs"]

    def test_read_only_parameter_raises_and_changes_nothing(self):
        x, labels = make_data()

        def bound_read_only(vae):
            view = vae.output_head.bias.data.view()
            view.flags.writeable = False
            vae.output_head.bias.data = view
            return vae

        with pytest.raises(ValueError) as eager:
            train(bound_read_only(make_vae()), x, labels)
        with warm_start_memo({}):
            train(make_vae(), x, labels)
            vae = bound_read_only(make_vae())
            rng = np.random.default_rng(2)
            before = snapshot(vae, rng)
            with pytest.raises(ValueError) as hit:
                train_reconstruction_vae(vae, x, labels, rng=rng, **KWARGS)
        assert str(hit.value) == str(eager.value)
        assert snapshot(vae, rng) == before
