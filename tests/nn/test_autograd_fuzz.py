"""Property-based fuzzing of the autograd engine.

Hypothesis builds random expression trees from the differentiable op set
and checks the analytic gradient of the resulting scalar against central
finite differences — a randomized extension of the hand-written cases in
``test_gradcheck.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor

EPS = 1e-6
TOL = 2e-4

#: Smooth unary ops only (kinked ops like relu/abs fail finite differences
#: near the kink and are covered separately with kink-avoiding inputs).
UNARY_OPS = ("sigmoid", "exp_scaled", "square")
BINARY_OPS = ("add", "mul", "sub")


def apply_unary(op, t):
    if op == "sigmoid":
        return t.sigmoid()
    if op == "exp_scaled":
        return (t * 0.3).exp()
    return t * t


def apply_binary(op, a, b):
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    return a - b


@st.composite
def expression_programs(draw):
    """A random straight-line program over a (3,)-shaped input."""
    n_steps = draw(st.integers(min_value=1, max_value=6))
    steps = []
    for index in range(n_steps):
        if index == 0 or draw(st.booleans()):
            steps.append(("unary", draw(st.sampled_from(UNARY_OPS)), None))
        else:
            operand = draw(st.integers(min_value=0, max_value=index - 1))
            steps.append(("binary", draw(st.sampled_from(BINARY_OPS)), operand))
    return steps


def run_program(steps, t):
    values = [t]
    current = t
    for kind, op, operand in steps:
        if kind == "unary":
            current = apply_unary(op, current)
        else:
            current = apply_binary(op, current, values[operand])
        values.append(current)
    return current.sum()


class TestAutogradFuzz:
    @given(expression_programs(),
           st.lists(st.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_random_programs_match_finite_differences(self, steps, values):
        x = np.array(values, dtype=np.float64)
        t = Tensor(x.copy(), requires_grad=True)
        run_program(steps, t).backward()
        analytic = t.grad

        numeric = np.zeros_like(x)
        for i in range(x.size):
            bumped = x.copy()
            bumped[i] += EPS
            up = run_program(steps, Tensor(bumped)).item()
            bumped[i] -= 2 * EPS
            down = run_program(steps, Tensor(bumped)).item()
            numeric[i] = (up - down) / (2 * EPS)

        np.testing.assert_allclose(analytic, numeric, rtol=TOL, atol=TOL)
