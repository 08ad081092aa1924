"""Unit tests for SGD and Adam optimisers, including convergence checks."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, Optimizer, Tensor, bce_with_logits


class TestConstruction:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_requires_positive_lr(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_momentum_bounds(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0], requires_grad=True)], lr=0.1, momentum=1.0)

    def test_base_step_not_implemented(self):
        opt = Optimizer.__new__(Optimizer)
        opt.parameters = [Tensor([1.0], requires_grad=True)]
        with pytest.raises(NotImplementedError):
            opt.step()


class TestSGD:
    def test_single_step_direction(self):
        p = Tensor([1.0], requires_grad=True)
        (p * 3.0).sum().backward()
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0 - 0.3])

    def test_skips_parameters_without_grad(self):
        p = Tensor([1.0], requires_grad=True)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = Tensor([1.0], requires_grad=True)
        (p * 2.0).sum().backward()
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Tensor([5.0], requires_grad=True)
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(20):
                opt.zero_grad()
                (p * p).sum().backward()
                opt.step()
            return abs(p.data[0])

        assert run(0.9) < run(0.0)

    def test_converges_on_quadratic(self):
        p = Tensor([4.0, -3.0], requires_grad=True)
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, [0.0, 0.0], atol=1e-8)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Tensor([4.0, -3.0], requires_grad=True)
        opt = Adam([p], lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, [0.0, 0.0], atol=1e-4)

    def test_bias_correction_first_step(self):
        p = Tensor([1.0], requires_grad=True)
        (p * 1.0).sum().backward()
        Adam([p], lr=0.1).step()
        # with bias correction the first step has magnitude ~lr
        np.testing.assert_allclose(p.data, [1.0 - 0.1], atol=1e-6)

    def test_trains_logistic_regression(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 4))
        true_w = np.array([1.5, -2.0, 0.5, 1.0])
        y = (x @ true_w > 0).astype(float)
        layer = Linear(4, 1, rng)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            logits = layer(x).reshape(200)
            bce_with_logits(logits, y).backward()
            opt.step()
        preds = (layer(x).data.ravel() > 0).astype(float)
        assert (preds == y).mean() > 0.95


class TestFusedUpdate:
    """One flat-buffer update per step, applied to the parameters in place."""

    @pytest.mark.parametrize("make", [
        lambda params: SGD(params, lr=0.1, momentum=0.9),
        lambda params: Adam(params, lr=0.1),
    ])
    def test_parameter_data_is_updated_in_place(self, make):
        p = Tensor([1.0, -2.0], requires_grad=True)
        data = p.data
        opt = make([p])
        for _ in range(3):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert p.data is data
        assert not np.allclose(data, [1.0, -2.0])

    def test_adam_leaves_a_gradless_parameter_and_its_moments_alone(self):
        live = Tensor([1.0, 2.0], requires_grad=True)
        idle = Tensor([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        tail = Tensor([7.0], requires_grad=True)
        opt = Adam([live, idle, tail], lr=0.1)
        (live * idle[0] + idle[1] * 2.0 + tail).sum().backward()
        opt.step()
        idle_before = idle.data.copy()
        moments_before = [opt._first_moment.copy(), opt._second_moment.copy()]
        for _ in range(4):
            opt.zero_grad()
            (live * live + tail * 3.0).sum().backward()
            assert idle.grad is None
            opt.step()
        np.testing.assert_array_equal(idle.data, idle_before)
        # the idle parameter's slice (elements 2..5 of the flat buffers)
        # neither decays nor moves; its neighbours do
        for before, after in zip(moments_before, [opt._first_moment, opt._second_moment]):
            np.testing.assert_array_equal(after[2:6], before[2:6])
            assert not np.array_equal(after[:2], before[:2])
            assert not np.array_equal(after[6:], before[6:])

    @pytest.mark.parametrize("make", [
        lambda params: SGD(params, lr=0.1),
        lambda params: Adam(params, lr=0.1),
    ])
    def test_read_only_shared_view_raises_instead_of_detaching(self, make):
        layer = Linear(3, 2, np.random.default_rng(0))
        for p in layer.parameters():
            view = p.data.view()
            view.flags.writeable = False
            p.data = view
        bound = [p.data for p in layer.parameters()]
        before = [view.copy() for view in bound]
        opt = make(layer.parameters())
        layer(np.ones((4, 3))).sum().backward()
        with pytest.raises(ValueError, match="read-only"):
            opt.step()
        # still bound to the read-only views, weights untouched
        assert all(p.data is view for p, view in zip(layer.parameters(), bound))
        for view, original in zip(bound, before):
            np.testing.assert_array_equal(view, original)
