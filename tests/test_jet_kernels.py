"""The straight-line jet kernels against the numpy jet arithmetic they replace.

A ``dual.Jet`` is a value and one flat coefficient tuple (the gradient,
then the Hessian's upper triangle row by row); its product, quotient and
chain rules are code generated once per gradient length.  ``RefJet``,
``ref_quotient``, ``ref_chain``, the ``ref_d_*`` functions and
``ref_hessian`` below are the former numpy-array implementations, kept
verbatim (renamed).  Every rule does the same floating-point operations
in the same order, so every value must match bit for bit, down to the
sign of a zero.
"""

import inspect
import struct

import numpy as np
import pytest

from symkt import dual
from symkt.dual import _CONSTANT_TYPES, Dual, Jet, d_exp, d_log, d_sqrt, hessian, jacobian

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# ---------------------------------------------------------------------------
# references: the numpy-array jet


class RefJet:
    """Second-order jet: value, gradient (m,) and Hessian (m, m)."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        if isinstance(other, RefJet):
            return RefJet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        if isinstance(other, _CONSTANT_TYPES):
            return RefJet(self.val + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RefJet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, RefJet):
            return RefJet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        if isinstance(other, _CONSTANT_TYPES):
            return RefJet(self.val - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _CONSTANT_TYPES):
            return RefJet(other - self.val, -self.grad, -self.hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RefJet):
            a, b = self.val, other.val
            o = np.multiply.outer(self.grad, other.grad)
            return RefJet(a * b, a * other.grad + b * self.grad,
                          a * other.hess + b * self.hess + (o + o.T))
        if isinstance(other, _CONSTANT_TYPES):
            return RefJet(self.val * other, self.grad * other, self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RefJet):
            return ref_quotient(self.val, self.grad, self.hess, other)
        if isinstance(other, _CONSTANT_TYPES):
            inv = 1.0 / other
            return RefJet(self.val * inv, self.grad * inv, self.hess * inv)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONSTANT_TYPES):
            return ref_quotient(other, 0.0, 0.0, self)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Jet ** only supports non-negative integer exponents")
        out = 1.0
        for _ in range(k):
            out = out * self
        return out


def ref_quotient(a, ga, Ha, b):
    """The jet q = a / b, from a = q b differentiated twice."""
    q = a / b.val
    gq = (ga - q * b.grad) / b.val
    o = np.multiply.outer(gq, b.grad)
    return RefJet(q, gq, (Ha - q * b.hess - (o + o.T)) / b.val)


def ref_chain(x, f0, f1, f2):
    """f(x) for a jet x, from f and its first two derivatives at x.val."""
    return RefJet(f0, f1 * x.grad, f1 * x.hess + f2 * np.multiply.outer(x.grad, x.grad))


def ref_d_sqrt(x):
    s = d_sqrt(x.val)
    f1 = 0.5 / s
    return ref_chain(x, s, f1, -0.5 * f1 / x.val)


def ref_d_exp(x):
    e = d_exp(x.val)
    return ref_chain(x, e, e, e)


def ref_d_log(x):
    inv = 1.0 / x.val
    return ref_chain(x, d_log(x.val), inv, -inv * inv)


def ref_hessian(fn, x):
    m = len(x)
    dtype = object if isinstance(x[0], Dual) else float
    eye, zero = np.eye(m).astype(dtype), np.zeros((m, m)).astype(dtype)
    ys = fn([RefJet(xi, eye[i], zero) for i, xi in enumerate(x)])
    vals, grads, hess = [], [], []
    for y in ys:
        if isinstance(y, RefJet):
            vals.append(y.val)
            grads.append(y.grad)
            hess.append(y.hess)
        else:
            vals.append(y)
            grads.append(zero[0])
            hess.append(zero)
    return tuple(np.array(a, dtype=dtype) for a in (vals, grads, hess))


# ---------------------------------------------------------------------------
# exact comparison


def _bits(x):
    """Every float of a scalar, jet, dual number or array as its 64 bits."""
    if isinstance(x, (Jet, RefJet)):
        return ("jet", _bits(x.val), _bits(x.grad), _bits(x.hess))
    if isinstance(x, Dual):
        return ("dual", _bits(x.val), _bits(x.grad))
    if isinstance(x, np.ndarray):
        return (x.shape,) + tuple(_bits(v) for v in x.ravel())
    return struct.unpack("<q", struct.pack("<d", float(x)))[0]


def _same(got, want):
    assert _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# every rule, for m = 1..7

# zeros of both signs, and magnitudes small quotients cannot overflow from
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


@st.composite
def jet_pairs(draw, m):
    """The same jet as a ``Jet`` (Python float coefficients) and a
    ``RefJet`` (float arrays), with an exactly symmetric Hessian."""
    val = draw(FLOATS)
    grad = draw(st.lists(FLOATS, min_size=m, max_size=m))
    tri = draw(st.lists(FLOATS, min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2))
    H = np.zeros((m, m))
    H[np.triu_indices(m)] = tri
    H = np.triu(H) + np.triu(H, 1).T
    return Jet(val, grad, H.tolist()), RefJet(val, np.array(grad), H)


def _positive(pair):
    """The pair with its value moved to 0.25 + |value|."""
    (x, rx) = pair
    val = 0.25 + abs(x.val)
    return Jet(val, x.grad.tolist(), x.hess.tolist()), RefJet(val, rx.grad, rx.hess)


def _check_rules(x, rx, y, ry, c):
    """Every jet rule on (x, y) and the constant c, against the reference."""
    arr = np.array([c if c else 0.5, 1.5, -2.0])
    cases = [
        lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: -x,
        lambda x, y: x * x, lambda x, y: x ** 0, lambda x, y: x ** 3,
    ]
    for k in (c, np.float64(c), 3):
        cases += [
            lambda x, y, k=k: x + k, lambda x, y, k=k: k + x,
            lambda x, y, k=k: x - k, lambda x, y, k=k: k - x,
            lambda x, y, k=k: x * k, lambda x, y, k=k: k * x,
        ]
        if k:
            cases.append(lambda x, y, k=k: x / k)
        if x.val:
            cases.append(lambda x, y, k=k: k / x)
    cases += [
        lambda x, y: x * arr, lambda x, y: arr * x, lambda x, y: x + arr,
        lambda x, y: arr - x, lambda x, y: x / arr,
    ]
    if y.val:
        cases.append(lambda x, y: x / y)
    if x.val:
        cases.append(lambda x, y: arr / x)
    for case in cases:
        _same(case(x, y), case(rx, ry))
    _same(d_exp(x), ref_d_exp(rx))
    (p, rp) = _positive((x, rx))
    _same(d_sqrt(p), ref_d_sqrt(rp))
    _same(d_log(p), ref_d_log(rp))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data())
def test_every_rule_matches_reference_bit_for_bit(data):
    m = data.draw(st.integers(1, 7))
    (x, rx), (y, ry) = data.draw(jet_pairs(m)), data.draw(jet_pairs(m))
    _check_rules(x, rx, y, ry, data.draw(FLOATS))


def test_jets_of_different_lengths_do_not_mix():
    x = Jet(1.0, [1.0], [[0.0]])
    y = Jet(1.0, [1.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        x * y


def test_a_reassociated_product_kernel_fails_the_check(monkeypatch):
    # ((a Hb + b Ha) + (o + o^T)) regrouped as (a Hb + (b Ha + (o + o^T)))
    # is the same Hessian in exact arithmetic, not in floating point
    src = inspect.getsource(dual._rules)
    old = '"av * b{k} + bv * a{k} + (a{i} * b{j} + a{j} * b{i})"'
    assert src.count(old) == 1
    namespace = dict(vars(dual))
    exec(src.replace(old, '"av * b{k} + (bv * a{k} + (a{i} * b{j} + a{j} * b{i}))"'),
         namespace)
    monkeypatch.setattr(dual, "_rules", namespace["_rules"])
    rng = np.random.default_rng(31)
    failures = 0
    for _ in range(50):
        m = int(rng.integers(1, 8))
        pairs = []
        for _ in range(2):
            H = rng.standard_normal((m, m))
            H = H + H.T
            g, v = rng.standard_normal(m), float(rng.standard_normal())
            pairs += [Jet(v, g.tolist(), H.tolist()), RefJet(v, g, H)]
        try:
            _check_rules(*pairs, 0.5)
        except AssertionError:
            failures += 1
    assert failures > 0


# ---------------------------------------------------------------------------
# hessian, alone and inside jacobian


def _eval(tree, X, ops):
    """A random expression on generic scalars, with the sqrt/log/exp of
    ``ops``; their arguments and the divisors stay away from singularities."""
    sqrt, log, exp = ops
    op = tree[0]
    if op == "x":
        return X[tree[1] % len(X)]
    if op == "c":
        return tree[1]
    a = _eval(tree[1], X, ops)
    if op == "sqrt":
        return sqrt(1.0 + a * a)
    if op == "log":
        return log(1.0 + a * a)
    if op == "exp":
        return exp(a / (1.0 + a * a))
    if op == "**":
        return a ** tree[2]
    b = _eval(tree[2], X, ops)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / (1.5 + b * b)


OPS = (d_sqrt, d_log, d_exp)
REF_OPS = (lambda x: ref_d_sqrt(x) if isinstance(x, RefJet) else d_sqrt(x),
           lambda x: ref_d_log(x) if isinstance(x, RefJet) else d_log(x),
           lambda x: ref_d_exp(x) if isinstance(x, RefJet) else d_exp(x))

_LEAF = st.one_of(st.integers(0, 6).map(lambda i: ("x", i)),
                  st.floats(-1.5, 1.5, allow_nan=False).map(lambda c: ("c", c)))
EXPRS = st.lists(st.recursive(_LEAF, lambda children: st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children),
    st.tuples(st.just("**"), children, st.integers(0, 3)),
    st.tuples(st.sampled_from(["sqrt", "log", "exp"]), children),
), max_leaves=8), min_size=1, max_size=3)


def _fns(trees):
    return (lambda X: [_eval(t, X, OPS) for t in trees],
            lambda X: [_eval(t, X, REF_OPS) for t in trees])


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(EXPRS, st.integers(1, 7), st.data())
def test_hessian_matches_reference_and_is_symmetric(trees, m, data):
    x = data.draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=m, max_size=m))
    fn, ref_fn = _fns(trees)
    got, want = hessian(fn, x), ref_hessian(ref_fn, x)
    for g, w in zip(got, want):
        assert g.dtype == float
        _same(g, w)
    H = got[2]
    assert H.shape == (len(trees), m, m)
    _same(H, H.transpose(0, 2, 1))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(EXPRS, st.integers(1, 4), st.data())
def test_hessian_inside_jacobian_matches_reference_nesting(trees, m, data):
    # the Duals of the enclosing jacobian ride in the jet's coefficients
    x = data.draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=m, max_size=m))
    fn, ref_fn = _fns(trees)
    got = jacobian(lambda X: [h for part in hessian(fn, X) for h in part.ravel()], x)
    want = jacobian(lambda X: [h for part in ref_hessian(ref_fn, X) for h in part.ravel()], x)
    for g, w in zip(got, want):
        _same(g, w)


def test_public_constructor_and_views_round_trip():
    H = [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]
    x = Jet(0.5, [7.0, 8.0, 9.0], H)
    assert x.d == (7.0, 8.0, 9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert x.grad.tolist() == [7.0, 8.0, 9.0]
    assert x.hess.tolist() == H
