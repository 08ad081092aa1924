"""``Module.eval()`` skips its walk only when no module can have left eval mode."""

import numpy as np
import pytest

from repro.models import ConditionalVAE, train_reconstruction_vae
from repro.models.training import warm_start_memo
from repro.nn import Dropout, Linear, Module, ReLU, Sequential


def make_tree():
    rng = np.random.default_rng(0)
    return Sequential(Linear(4, 8, rng), ReLU(), Dropout(0.5, rng), Linear(8, 2, rng))


@pytest.fixture
def walks(monkeypatch):
    """How many times ``Module.modules`` starts a walk from a root."""
    calls = []
    modules = Module.modules

    def counting(self):
        calls.append(self)
        return modules(self)

    monkeypatch.setattr(Module, "modules", counting)
    return calls


def modes(root):
    return [module.training for module in root.modules()]


def test_second_eval_skips_the_walk(walks):
    root = make_tree()
    root.eval()
    walks.clear()
    root.eval()
    assert walks == []
    assert not any(modes(root))


def test_child_train_then_root_eval_restores_eval_mode():
    root = make_tree()
    root.eval()
    root[2].train()
    assert root[2].training
    root.eval()
    assert not any(modes(root))


def test_direct_training_assignment_is_honoured():
    root = make_tree()
    root.eval()
    root[0].training = True
    root.eval()
    assert not any(modes(root))


def test_module_attached_after_eval_is_switched():
    root = make_tree()
    root.eval()
    root.extra = Linear(2, 2, np.random.default_rng(1))  # built after the walk
    root.eval()
    assert not root.extra.training

    built_before = Dropout(0.1, np.random.default_rng(2))
    root.eval()
    root.more = built_before  # built before the walk, attached after it
    root.eval()
    assert not built_before.training


def test_train_reaches_every_descendant_after_a_skipped_walk():
    root = make_tree()
    root.eval()
    root.eval()
    root.train()
    assert all(modes(root))
    root.eval()
    assert not any(modes(root))


def test_dropout_draws_no_mask_after_a_skipped_walk():
    rng = np.random.default_rng(3)
    dropout = Dropout(0.5, rng)
    root = Sequential(Linear(3, 3, rng), dropout)
    root.eval()
    root.eval()
    state = rng.bit_generator.state
    x = np.ones((4, 3))
    np.testing.assert_array_equal(root.forward_array(x), root[0].forward_array(x))
    assert rng.bit_generator.state == state


def test_eval_stamp_stays_out_of_the_warm_start_memo_key():
    rng = np.random.default_rng(4)
    x = rng.random((40, 5))
    labels = (rng.random(40) < 0.5).astype(float)

    def fit(vae):
        train_reconstruction_vae(vae, x, labels, epochs=1, lr=1e-3, batch_size=20,
                                 beta=0.02, rng=np.random.default_rng(5))

    store = {}
    with warm_start_memo(store):
        fit(ConditionalVAE(5, np.random.default_rng(6)))
        stamped = ConditionalVAE(5, np.random.default_rng(6))
        stamped.eval()  # leaves an eval stamp on the root
        stamped.train()
        fit(stamped)
    [entry] = store.values()
    assert entry.hits == 1
