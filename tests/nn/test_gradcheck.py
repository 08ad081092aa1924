"""Finite-difference gradient verification for every autograd primitive.

Each check compares the analytic gradient produced by ``backward`` with a
central finite-difference estimate on random inputs.  This is the ground
truth for the whole substrate: if these pass, every model trained on top
receives correct gradients.
"""

import numpy as np
import pytest

from repro.nn import Tensor

RNG = np.random.default_rng(7)
EPS = 1e-6
TOL = 1e-5


def numeric_grad(fn, x):
    """Central finite differences of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        up = fn(x)
        flat[i] = original - EPS
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * EPS)
    return grad


def check(fn_tensor, x, fn_numpy=None):
    """Assert analytic and numeric gradients agree for ``fn_tensor``."""
    fn_numpy = fn_numpy or (lambda arr: fn_tensor(Tensor(arr)).item())
    t = Tensor(x.copy(), requires_grad=True)
    out = fn_tensor(t)
    out.backward()
    expected = numeric_grad(fn_numpy, x.copy())
    np.testing.assert_allclose(t.grad, expected, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("shape", [(3,), (2, 4)])
class TestUnaryOps:
    def test_exp(self, shape):
        check(lambda t: t.exp().sum(), RNG.normal(size=shape))

    def test_log(self, shape):
        check(lambda t: t.log().sum(), RNG.uniform(0.5, 2.0, size=shape))

    def test_sqrt(self, shape):
        check(lambda t: t.sqrt().sum(), RNG.uniform(0.5, 2.0, size=shape))

    def test_sigmoid(self, shape):
        check(lambda t: t.sigmoid().sum(), RNG.normal(size=shape))

    def test_tanh(self, shape):
        check(lambda t: t.tanh().sum(), RNG.normal(size=shape))

    def test_relu_away_from_kink(self, shape):
        x = RNG.normal(size=shape)
        x[np.abs(x) < 0.1] = 0.5
        check(lambda t: t.relu().sum(), x)

    def test_abs_away_from_kink(self, shape):
        x = RNG.normal(size=shape)
        x[np.abs(x) < 0.1] = -0.5
        check(lambda t: t.abs().sum(), x)

    def test_neg(self, shape):
        check(lambda t: (-t).sum(), RNG.normal(size=shape))

    def test_pow(self, shape):
        check(lambda t: (t ** 3).sum(), RNG.normal(size=shape))

    def test_clip_min(self, shape):
        x = RNG.normal(size=shape)
        x[np.abs(x) < 0.1] = 0.7
        check(lambda t: t.clip_min(0.0).sum(), x)


class TestBinaryOps:
    def test_add_broadcast(self):
        x = RNG.normal(size=(2, 3))
        other = Tensor(RNG.normal(size=(3,)))
        check(lambda t: (t + other).sum(), x)

    def test_mul_both_sides(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 3))
        fixed_b = Tensor(b)
        check(lambda t: (t * fixed_b).sum(), a)
        fixed_a = Tensor(a)
        check(lambda t: (fixed_a * t).sum(), b)

    def test_div_numerator_and_denominator(self):
        num = RNG.normal(size=(3,))
        den = RNG.uniform(0.5, 2.0, size=(3,))
        check(lambda t: (t / Tensor(den)).sum(), num)
        check(lambda t: (Tensor(num) / t).sum(), den)

    def test_matmul_both_operands(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        check(lambda t: (t @ Tensor(b)).sum(), a)
        check(lambda t: (Tensor(a) @ t).sum(), b)

    def test_matvec(self):
        a = RNG.normal(size=(3, 4))
        v = RNG.normal(size=(4,))
        check(lambda t: (Tensor(a) @ t).sum(), v)

    def test_maximum(self):
        a = RNG.normal(size=(5,))
        b = a + np.where(RNG.random(5) > 0.5, 0.5, -0.5)  # keep away from ties
        check(lambda t: t.maximum(Tensor(b)).sum(), a)


class TestReductionsAndIndexing:
    def test_sum_axis(self):
        check(lambda t: t.sum(axis=0).sum(), RNG.normal(size=(3, 4)))

    def test_mean_axis(self):
        check(lambda t: t.mean(axis=1).sum(), RNG.normal(size=(3, 4)))

    def test_mean_all(self):
        check(lambda t: t.mean(), RNG.normal(size=(3, 4)))

    @pytest.mark.parametrize("axis", [(0, 2), -1, (-1, 0)])
    def test_mean_tuple_and_negative_axes(self, axis):
        # the numeric side uses numpy's mean, so a wrong element count
        # cannot cancel out between the two gradients
        weights = RNG.normal(size=np.zeros((2, 3, 4)).mean(axis=axis).shape)
        check(lambda t: (t.mean(axis=axis) * Tensor(weights)).sum(),
              RNG.normal(size=(2, 3, 4)),
              fn_numpy=lambda arr: float((arr.mean(axis=axis) * weights).sum()))

    def test_reshape(self):
        check(lambda t: (t.reshape(6) * Tensor(np.arange(6.0))).sum(),
              RNG.normal(size=(2, 3)))

    def test_transpose(self):
        w = Tensor(RNG.normal(size=(2, 3)))
        check(lambda t: (t.T * w).sum(), RNG.normal(size=(3, 2)))

    def test_getitem_row(self):
        check(lambda t: t[1].sum(), RNG.normal(size=(3, 4)))

    def test_getitem_fancy(self):
        idx = (np.array([0, 1, 1]), np.array([2, 0, 0]))
        # repeated index (1, 0) must accumulate gradient
        check(lambda t: t[idx].sum(), RNG.normal(size=(3, 4)))

    def test_concatenate(self):
        b = Tensor(RNG.normal(size=(2, 3)))
        check(lambda t: Tensor.concatenate([t, b], axis=0).sum() * 2.0,
              RNG.normal(size=(2, 3)))

    def test_where(self):
        cond = RNG.random((3, 4)) > 0.5
        b = Tensor(RNG.normal(size=(3, 4)))
        check(lambda t: Tensor.where(cond, t, b).sum(), RNG.normal(size=(3, 4)))


class TestCompositeExpressions:
    def test_softmax_like(self):
        def fn(t):
            shifted = t - t.sum() * 0.0
            exp = shifted.exp()
            return (exp / exp.sum()).log().sum()

        check(fn, RNG.normal(size=(4,)))

    def test_two_layer_mlp(self):
        w1 = Tensor(RNG.normal(size=(5, 4)) * 0.3)
        w2 = Tensor(RNG.normal(size=(4, 1)) * 0.3)

        def fn(t):
            hidden = (t @ w1).tanh()
            return (hidden @ w2).sigmoid().sum()

        check(fn, RNG.normal(size=(3, 5)))

    def test_gaussian_kl_expression(self):
        def fn(t):
            mu = t[:, :2]
            log_var = t[:, 2:]
            per_dim = (log_var + 1.0 - mu * mu - log_var.exp()) * (-0.5)
            return per_dim.sum(axis=1).mean()

        check(fn, RNG.normal(size=(3, 4)) * 0.5)
