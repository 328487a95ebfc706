"""Forward-mode dual numbers, including nesting for second derivatives."""

import functools
import operator

import numpy as np
import pytest

from symkt.dual import d_dot, d_exp, d_log, d_sqrt, hessian, jacobian, seed, value_of


def test_first_derivatives_polynomial():
    def f(X):
        x, y = X
        return [x * x * y + 3.0 * y, x / y]

    vals, jac = jacobian(f, [2.0, 5.0])
    assert vals[0] == 35.0
    assert jac[0].tolist() == [20.0, 7.0]
    assert np.allclose(jac[1], (1 / 5.0, -2 / 25.0))


def test_nested_hessian():
    def f(X):
        x, y = X
        return [d_sqrt(x * x + y * y)]

    def grad(X):
        _, J = jacobian(f, X)
        return J[0]

    x0 = [3.0, 4.0]
    _, H = jacobian(grad, x0)
    Hv = np.array([[value_of(h) for h in row] for row in H])
    r = 5.0
    want = np.eye(2) / r - np.outer(x0, x0) / r**3
    assert np.allclose(Hv, want, atol=1e-14)


def test_exp_log_chain():
    def f(X):
        return [d_exp(2.0 * d_log(X[0]))]  # x^2

    vals, jac = jacobian(f, [3.0])
    assert np.isclose(vals[0], 9.0)
    assert np.isclose(jac[0][0], 6.0)


def test_division_and_rsub():
    def f(X):
        x = X[0]
        return [1.0 / x, 2.0 - x, x**3]

    vals, jac = jacobian(f, [2.0])
    assert np.allclose(vals, [0.5, 0.0, 8.0])
    assert np.allclose([jac[0][0], jac[1][0], jac[2][0]], [-0.25, -1.0, 12.0])


def test_mixed_tag_guard():
    a = seed([1.0])[0]
    b = seed([1.0])[0]
    with pytest.raises(ValueError):
        _ = a + b


def test_constant_outputs_get_zero_gradient():
    vals, jac = jacobian(lambda X: [7.0, X[0]], [1.5])
    assert vals.tolist() == [7.0, 1.5]
    assert jac[0].tolist() == [0.0]
    assert jac[1].tolist() == [1.0]


def test_numpy_scalar_interop():
    x = seed([2.0])[0]
    y = np.float64(3.0) * x + np.float64(1.0)
    assert value_of(y) == 7.0
    assert y.grad.tolist() == [3.0]


def test_integer_power():
    x = seed([2.0])[0]
    y = x**4
    assert value_of(y) == 16.0
    assert y.grad.tolist() == [32.0]
    with pytest.raises(TypeError):
        x ** 0.5


def _fold_dot(a, b):
    """a[0] b[0] + a[1] b[1] + ... as a left fold of ``+`` over the products."""
    return functools.reduce(operator.add, map(operator.mul, a, b))


def _dots(y, c):
    return [d_dot(c, y), d_dot(y, y), _fold_dot(c, y), _fold_dot(y, y)]


@pytest.mark.parametrize("scalars", ["float", "dual", "jet", "batch", "dual-batch"])
def test_d_dot_is_the_left_to_right_sum(scalars):
    rng = np.random.default_rng(11)
    c = rng.standard_normal(5)
    X = rng.standard_normal((7, 5))
    # the data tells summation orders apart: reversed, the sum moves bits
    moved = _fold_dot(c[::-1], X.T[::-1]) != _fold_dot(c, X.T)
    assert moved.any()
    x = X[np.argmax(moved)]
    if scalars == "float":
        outs = [np.array(_dots(list(x), c))]
    elif scalars == "dual":
        outs = jacobian(lambda y: _dots(y, c), list(x))
    elif scalars == "jet":
        outs = hessian(lambda y: _dots(y, c), list(x))
    elif scalars == "batch":
        outs = [np.array(_dots(list(X.T), c))]
    else:
        outs = jacobian(lambda y: _dots(y, c), X)
    axis = 1 if scalars == "dual-batch" else 0  # jacobian puts a batch first
    for out in outs:
        got, want = np.split(out, 2, axis=axis)
        assert got.tobytes() == want.tobytes()
