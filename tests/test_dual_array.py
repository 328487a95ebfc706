"""``DualArray`` against the object array of Duals it replaces.

A DualArray holds an array of first-order Duals of one float seeding as a
value array and a gradient array.  Every operation must give, per entry,
the bytes the object array's Duals give: arithmetic with other arrays,
with Duals and with float constants, the ordered sums (``sum``,
``symtensor._ordered_sum``), the scatter onto int 0 (``scatter``,
``symtensor._scatter_add``), ``@`` and ``tensordot``, and the gathers and
transposes that only move entries.  Entries are drawn with signed zeros,
infinities, NaN and magnitudes near 1e+-300, and with plain float
constants mixed in, which must contribute no gradient term, at a point and
at batches of 1, 2 and 5 points.

A NaN's sign and payload are not compared: where two NaNs meet, numpy's
float loops pick one by the position of the entry (see
``symtensor._ordered_sum``), so the object path itself does not fix it.
"""

import operator

import numpy as np
import pytest

from symkt.dual import Dual, DualArray, dual_array, seed
from symkt.manifolds import manifold_from_key
from symkt.symtensor import SymTensor, _ordered_sum, _scatter_add, _tensor

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

TAG = -1  # one seeding for every drawn Dual; no seed() hands out a negative tag
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
                     1e300, -1e300, 1e-300, -1e-300]),
    st.floats(min_value=-10.0, max_value=10.0),
)
BATCHES = st.sampled_from([None, 1, 2, 5])
PROPERTY = settings(max_examples=80, deadline=None)
OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


class Seeding:
    """The batch size (None at a point) and direction count of one draw."""

    def __init__(self, batch, m):
        self.batch, self.m = batch, m
        self.lead = () if batch is None else (batch,)

    def scalar(self, draw):
        """A float of the seeding's value layout: a numpy float at a point,
        a (B,) array at a batch."""
        vals = np.array(draw(st.lists(VALUES, min_size=1, max_size=1) if self.batch is None
                             else st.lists(VALUES, min_size=self.batch, max_size=self.batch)))
        return vals[0] if self.batch is None else vals

    def dual(self, draw):
        size = self.m * (self.batch or 1)
        grad = np.array(draw(st.lists(VALUES, min_size=size, max_size=size)))
        return Dual(self.scalar(draw), grad.reshape((self.m,) + self.lead), TAG)

    def entry(self, draw, constants=True):
        if constants and draw(st.integers(0, 3)) == 0:
            return np.float64(draw(VALUES))  # a plain float constant
        return self.dual(draw)

    def pair(self, draw, shape, constants=True):
        """(object array, DualArray) of the same drawn entries."""
        entries = [self.entry(draw, constants) for _ in range(int(np.prod(shape)))]
        obj = np.empty(shape, dtype=object)
        for k, e in enumerate(entries):
            obj.flat[k] = e
        like = Dual(np.zeros(self.lead)[()], np.zeros((self.m,) + self.lead), TAG)
        return obj, dual_array(entries, shape, like=like)


@st.composite
def seedings(draw):
    return Seeding(draw(BATCHES), draw(st.integers(1, 3)))


def _entry_parts(e, seeding):
    if isinstance(e, Dual):
        return True, np.broadcast_to(e.val, seeding.lead), e.grad
    return False, np.broadcast_to(e, seeding.lead), np.zeros((seeding.m,) + seeding.lead)


def parts(x, seeding):
    """(Dual mask, values, gradients with constants' rows 0) of a result."""
    if isinstance(x, DualArray):
        const = np.zeros(x.shape, bool) if x.const is None else x.const
        mask = const.reshape(const.shape + (1,) * (x.grad.ndim - x.ndim))
        return ~const, np.asarray(x.val), np.where(mask, 0.0, x.grad)
    if isinstance(x, np.ndarray) and x.dtype == object:
        rows = [_entry_parts(e, seeding) for e in x.flat]
        shape = x.shape
        return (np.array([r[0] for r in rows], bool).reshape(shape),
                np.array([r[1] for r in rows]).reshape(shape + seeding.lead),
                np.array([r[2] for r in rows]).reshape(shape + (seeding.m,) + seeding.lead))
    is_dual, val, grad = _entry_parts(x, seeding)
    return np.array(is_dual), np.asarray(val), np.asarray(grad)


def _canonical(a):
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a


def same(got, want, seeding):
    """The same entries: Dual or constant, values and gradients bit for bit."""
    for g, w in zip(parts(got, seeding), parts(want, seeding)):
        assert g.shape == w.shape
        assert _canonical(g).tobytes() == _canonical(w).tobytes()


@pytest.fixture(autouse=True)
def _quiet():
    with np.errstate(all="ignore"):
        yield


@PROPERTY
@given(st.data(), seedings(), st.sampled_from([(1,), (3,), (2, 3)]))
def test_arithmetic_matches_the_object_array(data, s, shape):
    draw = data.draw
    A_obj, A = s.pair(draw, shape)
    B_obj, B = s.pair(draw, shape[-1:])  # broadcast along the leading axes
    # the object path gets numpy floats: a Python float raises on division by 0
    c = np.array(draw(st.lists(VALUES, min_size=shape[-1], max_size=shape[-1])))
    c_obj = np.empty(c.shape, dtype=object)
    c_obj[:] = list(c)
    k = np.float64(draw(VALUES))
    k_obj = np.empty((), dtype=object)
    k_obj[()] = k
    d = s.dual(draw)
    for op in OPERATORS:
        same(op(A, B), op(A_obj, B_obj), s)
        same(op(B, A), op(B_obj, A_obj), s)
        same(op(A, c), op(A_obj, c_obj), s)
        same(op(c, A), op(c_obj, A_obj), s)
        same(op(A, k), op(A_obj, k_obj), s)
        same(op(k, A), op(k_obj, A_obj), s)
        same(op(A, d), op(A_obj, d), s)
        same(op(d, A), op(d, A_obj), s)
    same(-A, -A_obj, s)


@PROPERTY
@given(st.data(), seedings(), st.integers(1, 10), st.integers(1, 3))
def test_sums_match_the_object_loops(data, s, k, rows):
    draw = data.draw
    A_obj, A = s.pair(draw, (rows, k))
    same(A.sum(-1), A_obj.sum(-1), s)
    same(A.sum(0), A_obj.sum(0), s)
    same(_ordered_sum(A), np.add.accumulate(A_obj, axis=-1)[..., -1] + 0.0, s)
    pos = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    want = np.zeros((rows, 4), dtype=object)
    np.add.at(want, (..., pos), A_obj)
    same(_scatter_add(A, pos, 4), want, s)


@PROPERTY
@given(st.data(), seedings(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 3))
def test_products_match_the_object_loops(data, s, i, j, k):
    draw = data.draw
    A_obj, A = s.pair(draw, (i, j))
    B_obj, B = s.pair(draw, (j, k))
    F = np.array(draw(st.lists(VALUES, min_size=j * k, max_size=j * k))).reshape(j, k)
    G = np.array(draw(st.lists(VALUES, min_size=i * i, max_size=i * i))).reshape(i, i)
    same(A @ B, A_obj @ B_obj, s)
    same(A @ F, A_obj @ F, s)
    same(G @ A, G @ A_obj, s)
    same(A[0] @ B, A_obj[0] @ B_obj, s)
    same(A @ B[:, 0], A_obj @ B_obj[:, 0], s)
    same(np.tensordot(A, F, axes=(-1, 0)), np.tensordot(A_obj, F, axes=(-1, 0)), s)
    same(np.tensordot(F, B, axes=([0, 1], [0, 1])), np.tensordot(F, B_obj, axes=([0, 1], [0, 1])),
         s)


@PROPERTY
@given(st.data(), seedings(), st.integers(1, 10))
def test_dot_sums_gradients_as_the_object_loop_and_values_as_floats(data, s, k):
    # the gradient and which entries are Duals: the object array's dot; the
    # value: the float dot of the values, per batch point
    draw = data.draw
    A_obj, A = s.pair(draw, (k,))
    B_obj, B = s.pair(draw, (k,))
    c = np.array(draw(st.lists(VALUES, min_size=k, max_size=k)))
    for got, want, other in [(A.dot(B), A_obj.dot(B_obj), parts(B_obj, s)[1]),
                             (A.dot(c), A_obj.dot(c), c[(...,) + (None,) * len(s.lead)])]:
        (g_dual, g_val, g_grad), (w_dual, _, w_grad) = parts(got, s), parts(want, s)
        assert g_dual.tobytes() == w_dual.tobytes()
        assert _canonical(g_grad).tobytes() == _canonical(w_grad).tobytes()
        va, vb = np.broadcast_arrays(parts(A_obj, s)[1], other)
        points = [va.dot(vb)] if s.batch is None else [
            np.ascontiguousarray(va[:, b]).dot(np.ascontiguousarray(vb[:, b]))
            for b in range(s.batch)]
        # a stacked row may give the other sign of a zero or a NaN (``symtensor.inner``)
        assert np.array_equal(g_val, np.reshape(points, s.lead), equal_nan=True)


@PROPERTY
@given(st.data(), seedings())
def test_moves_match_the_object_array(data, s):
    A_obj, A = s.pair(data.draw, (2, 3, 4))
    idx = np.array([2, 0, 2, 1])
    for got, want in [
        (A.take(idx[:3], axis=-1), A_obj.take(idx[:3], axis=-1)),
        (A.take(idx, axis=1), A_obj.take(idx, axis=1)),
        (A.transpose(2, 0, 1), A_obj.transpose(2, 0, 1)),
        (A.transpose(), A_obj.transpose()),
        (np.swapaxes(A, -1, -2), np.swapaxes(A_obj, -1, -2)),
        (np.moveaxis(A, 0, -1), np.moveaxis(A_obj, 0, -1)),
        (A.reshape(6, -1), A_obj.reshape(6, -1)),
        (A.ravel(), A_obj.ravel()),
        (A[..., None, :], A_obj[..., None, :]),
        (A[1, :, idx], A_obj[1, :, idx]),
        (A[..., 1, 2], A_obj[..., 1, 2]),
        (A[1, 2, 3], A_obj[1, 2, 3]),
        (np.broadcast_to(A[0], (5, 3, 4)), np.broadcast_to(A_obj[0], (5, 3, 4))),
    ]:
        same(got, want, s)
    assert A.shape == A_obj.shape and len(A) == len(A_obj) and np.ndim(A) == 3


@PROPERTY
@given(st.data(), seedings(), st.integers(1, 6))
def test_list_ravel_and_entries_keep_the_order(data, s, size):
    A_obj, A = s.pair(data.draw, (size,))
    for got, want in zip(list(A), list(A_obj), strict=True):
        same(got, want, s)
    for got, want in zip(list(A.ravel()), list(A_obj.ravel()), strict=True):
        same(got, want, s)
    same(np.asarray(A), A_obj, s)
    K = SymTensor(size, 1, list(A_obj))
    assert isinstance(K.comps, DualArray) or not any(isinstance(e, Dual) for e in A_obj)
    for got, want in zip(list(K.entries()), list(_tensor(size, 1, A_obj).entries()),
                         strict=True):
        same(got, want, s)


def test_a_constant_contributes_no_gradient_term():
    # the object path: constant * Dual is grad * c, with no val * 0 term (inf * 0 is NaN)
    s = Seeding(None, 1)
    d = Dual(np.float64(np.inf), np.array([-0.0]), TAG)
    A = dual_array([d, np.float64(2.0)])
    P = A * A[::-1]
    assert P.grad[0, 0] == 0.0 and np.signbit(P.grad[0, 0])  # -0.0 * 2.0
    same(P, np.array([d * 2.0, 2.0 * d], dtype=object), s)
    # Dual + constant keeps the gradient; int 0 plus a Dual touches the value only
    same(_scatter_add(A, np.array([0, 0]), 1), np.array([d + 2.0], dtype=object), s)
    assert np.signbit(_scatter_add(A[:1], np.array([0]), 1).grad[0, 0])


def _parts(A):
    return [None if a is None else a.tobytes() for a in (A.val, A.grad, A.const)]


@pytest.mark.parametrize("key", ["sphere:3", "stereographic:2", "product:sphere:2,sphere:2",
                                 "conformal:bump:euclidean:3"])
def test_the_remembered_frame_is_read_only(key):
    # only a sphere remembers its frame; a chart, a product and a conformal
    # wrapper evaluate theirs afresh, to the same bytes, while a product's
    # sphere factors still remember theirs at their slices
    base = manifold_from_key(key)
    x = seed(list(base.sample_point(np.random.default_rng(3))))
    F = base.frame(x)
    assert isinstance(F, DualArray)
    if key == "sphere:3":
        spheres = [(base, x)]
    else:
        G = base.frame(x)
        assert G is not F and F.flags.writeable and _parts(G) == _parts(F)
        spheres = [(base.first, x[:3]), (base.second, x[3:])] if key.startswith("product:") else []
    for sphere, y in spheres:
        R = sphere.frame(y)
        assert isinstance(R, DualArray) and sphere.frame(y) is R
        assert not R.flags.writeable
        with pytest.raises(ValueError):
            R[0, 0] = 1.0
        with pytest.raises(ValueError):
            R.val[0, 0] = 1.0
