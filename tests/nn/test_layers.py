"""Unit tests for layers, the module system and parameter management."""

import numpy as np
import pytest

from repro.nn import Dropout, Linear, Module, ReLU, Sequential, Tensor


def rng():
    return np.random.default_rng(11)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, rng())
        out = layer(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_bias_starts_zero(self):
        layer = Linear(4, 3, rng())
        np.testing.assert_allclose(layer.bias.data, np.zeros(3))

    def test_xavier_init_bound(self):
        layer = Linear(100, 100, rng(), init="xavier")
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound

    def test_he_init_bound(self):
        layer = Linear(100, 50, rng(), init="he")
        bound = np.sqrt(6.0 / 100)
        assert np.abs(layer.weight.data).max() <= bound

    def test_unknown_init_raises(self):
        with pytest.raises(ValueError):
            Linear(2, 2, rng(), init="magic")

    def test_parameters_found(self):
        layer = Linear(4, 3, rng())
        params = layer.parameters()
        assert len(params) == 2

    def test_forward_matches_manual(self):
        layer = Linear(2, 2, rng())
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(x).data, expected)


class TestActivationLayers:
    def test_relu(self):
        np.testing.assert_allclose(ReLU()(np.array([-1.0, 2.0])).data, [0.0, 2.0])


class TestDropout:
    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0, rng())
        with pytest.raises(ValueError):
            Dropout(-0.1, rng())

    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng())
        layer.eval()
        x = np.ones((10, 10))
        np.testing.assert_allclose(layer(x).data, x)

    def test_training_zeroes_units(self):
        layer = Dropout(0.5, rng())
        out = layer(np.ones((100, 100))).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6

    def test_inverted_scaling_preserves_mean(self):
        layer = Dropout(0.3, rng())
        out = layer(np.ones((200, 200))).data
        assert abs(out.mean() - 1.0) < 0.02

    def test_zero_p_is_identity_even_training(self):
        layer = Dropout(0.0, rng())
        x = np.ones((4, 4))
        np.testing.assert_allclose(layer(x).data, x)


class TestSequentialAndModule:
    def build(self):
        r = rng()
        return Sequential(Linear(4, 8, r), ReLU(), Linear(8, 2, r))

    def test_forward_chains(self):
        model = self.build()
        assert model(np.ones((3, 4))).shape == (3, 2)

    def test_len_getitem(self):
        model = self.build()
        assert len(model) == 3
        assert isinstance(model[0], Linear)

    def test_parameter_discovery_nested(self):
        model = self.build()
        assert len(model.parameters()) == 4  # two Linear layers x (W, b)

    def test_named_parameters_are_unique(self):
        model = self.build()
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5, rng()), Linear(2, 2, rng()))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears(self):
        model = self.build()
        out = model(np.ones((2, 4))).sum()
        out.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self):
        model_a = self.build()
        model_b = self.build()
        model_b.load_state_dict(model_a.state_dict())
        x = np.ones((2, 4))
        np.testing.assert_allclose(model_a(x).data, model_b(x).data)

    def test_load_state_dict_rejects_missing(self):
        model = self.build()
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self):
        model = self.build()
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module().forward(Tensor([1.0]))

    def test_gradients_flow_through_stack(self):
        model = self.build()
        out = model(np.ones((2, 4))).sum()
        out.backward()
        for parameter in model.parameters():
            assert parameter.grad is not None
            assert parameter.grad.shape == parameter.data.shape
