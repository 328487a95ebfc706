"""FrameTensor's stacked storage against the slot-by-slot code it replaced.

A FrameTensor stores its n slots as one ``(..., n, size)`` array, so its
arithmetic, ``frame_inner``, the trace-free guards, ``random_frame_tensor``
and the suites' Euler and d/delta sums run once per frame tensor.  The
reference functions below are the former per-slot loops over SymTensors,
kept verbatim; the stacked code must match them bit for bit, with and
without a batch axis.
"""

import numpy as np
import pytest

from symkt import cartan, suites
from symkt.cartan import (
    FrameTensor,
    _rows,
    cartan_decompose,
    conformal_weight,
    frame_inner,
    frame_norm,
    pi2,
    random_frame_tensor,
    slot_hooks,
    slot_products,
    slot_sum,
    supported_pair,
)
from symkt.dual import jacobian
from symkt.errors import ShapeMismatchError, TraceError
from symkt.fields import (
    d_delta,
    delta_d,
    delta_op,
    nabla,
    nabla2,
    random_polynomial_field,
    rough_laplacian,
)
from symkt.manifolds import euclidean_chart
from symkt.multiindex import sym_size
from symkt.symtensor import (
    SymTensor,
    contract,
    inner,
    mult_L,
    norm,
    random_tracefree_tensor,
    sym_product,
    tracefree_part,
    tracefree_sym_product,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

PROPERTY = settings(max_examples=40, deadline=None)
DIMS = st.integers(2, 6)
# from 8 slots numpy's sum turns pairwise, so the slot sums get n up to 9
SUM_DIMS = st.integers(2, 9)
DEGREES = st.integers(0, 4)
BATCH = st.sampled_from([(), (1,), (3,), (2, 2)])
SEEDS = st.integers(0, 2**32 - 1)


# -- the former per-slot code ------------------------------------------------


def ref_frame(slots):
    return FrameTensor([SymTensor(s.dim, s.degree, s.comps) for s in slots])


def ref_frame_inner(A, B):
    return sum(inner(a, b) for a, b in zip(A.slots, B.slots))


def ref_random_frame_tensor(n, p, rng):
    return FrameTensor([random_tracefree_tensor(n, p, rng) for _ in range(n)])


def ref_euler(K):
    n, p = K.dim, K.degree
    acc = SymTensor.zero(n, p)
    for i in range(n):
        ei = SymTensor.basis_vector(n, i)
        acc = acc + sym_product(ei, contract(ei, K))
    return acc


def ref_d_delta(T):
    n, p = T.dim, T.degree
    dK = SymTensor.zero(n, p + 1)
    deltaK = SymTensor.zero(n, p - 1)
    for i in range(n):
        ei = SymTensor.basis_vector(n, i)
        dK = dK + sym_product(ei, T.slots[i])
        deltaK = deltaK - contract(ei, T.slots[i])
    return dK, deltaK


# -- helpers -------------------------------------------------------------------


def _frame(n, p, batch, seed, tracefree=False):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal(batch + (n, sym_size(n, p)))
    if tracefree:
        S = tracefree_part(SymTensor(n, p, S)).comps
    return FrameTensor.from_stacked(n, p, S)


def _at(T, b):
    """The frame tensor at batch index b."""
    return FrameTensor.from_stacked(T.dim, T.degree, T.comps[b])


def _same(a, b):
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(a, b)


def _same_frame(A, B):
    assert (A.dim, A.degree) == (B.dim, B.degree)
    _same(A.comps, B.comps)


# -- storage, arithmetic and the induced metric ------------------------------


@PROPERTY
@given(DIMS, DEGREES, BATCH, SEEDS)
def test_slots_round_trip_and_read_only(n, p, batch, seed):
    T = _frame(n, p, batch, seed)
    assert T.comps.shape == batch + (n, sym_size(n, p))
    assert len(T.slots) == n
    for a, s in enumerate(T.slots):
        assert (s.dim, s.degree) == (n, p)
        _same(s.comps, T.comps[..., a, :])
        assert not s.comps.flags.writeable
    assert not T.comps.flags.writeable
    _same_frame(FrameTensor(T.slots), T)
    _same_frame(FrameTensor.from_stacked(n, p, T.comps), T)


@PROPERTY
@given(DIMS, DEGREES, BATCH, SEEDS)
def test_arithmetic_matches_slot_loops(n, p, batch, seed):
    A = _frame(n, p, batch, seed)
    B = _frame(n, p, batch, seed + 1)
    _same_frame(A + B, ref_frame(a + b for a, b in zip(A.slots, B.slots)))
    _same_frame(A - B, ref_frame(a - b for a, b in zip(A.slots, B.slots)))
    _same_frame(-A, ref_frame(-a for a in A.slots))
    _same_frame(A.scale(-1.7), ref_frame(a.scale(-1.7) for a in A.slots))
    _same_frame(2.5 * A, ref_frame(a.scale(2.5) for a in A.slots))
    if batch:
        c = np.random.default_rng(seed).standard_normal(batch + (1,))
        _same_frame(A.scale(c), ref_frame(a.scale(c) for a in A.slots))


@PROPERTY
@given(SUM_DIMS, st.integers(0, 2), BATCH, SEEDS)
def test_frame_inner_matches_slot_sum(n, p, batch, seed):
    A = _frame(n, p, batch, seed)
    B = _frame(n, p, batch, seed + 1)
    got = frame_inner(A, B)
    _same(got, ref_frame_inner(A, B))
    _same(frame_norm(A), np.sqrt(np.maximum(ref_frame_inner(A, A), 0.0)))
    if not batch:
        assert isinstance(got, float)
        assert isinstance(frame_norm(A), float)
    else:
        for b in np.ndindex(batch):
            _same(got[b], ref_frame_inner(_at(A, b), _at(B, b)))


SPECIALS = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])


def _with_specials(data, X):
    """A copy of the stack X (k, B, ...) with a few (k, B) rows, and a few
    entries, set to NaN, +-inf or +-0.0."""
    X = X.copy()
    rows = X.reshape(X.shape[0] * X.shape[1], -1)  # a view: writes reach X
    for _ in range(data.draw(st.integers(0, 3))):
        rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(SPECIALS)
    for _ in range(data.draw(st.integers(0, 3))):
        rows.flat[data.draw(st.integers(0, rows.size - 1))] = data.draw(SPECIALS)
    return X


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@PROPERTY
@given(st.data(), st.integers(1, 6), st.sampled_from([1, 2, 5]), st.integers(2, 4),
       st.integers(0, 3), SEEDS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_norms_keep_each_rows_bytes(data, k, B, n, p, seed):
    # classify stacks its same-shape tensors and takes one norm: row i of
    # the (k, B) result must be the bytes of the call on tensor i alone,
    # and each of its B points the value of the one-point dot products
    # (a batch may differ from one point in the sign of a zero or a NaN)
    rng = np.random.default_rng(seed)
    size = sym_size(n, p)
    X, Y = (_with_specials(data, rng.standard_normal((k, B, size))) for _ in range(2))
    dots, norms = inner(SymTensor(n, p, X), SymTensor(n, p, Y)), norm(SymTensor(n, p, X))
    for i in range(k):
        assert _bits(dots[i]) == _bits(inner(SymTensor(n, p, X[i]), SymTensor(n, p, Y[i])))
        assert _bits(norms[i]) == _bits(norm(SymTensor(n, p, X[i])))
        for b in range(B):
            A, C = SymTensor(n, p, X[i, b]), SymTensor(n, p, Y[i, b])
            assert np.array_equal(dots[i, b], inner(A, C), equal_nan=True)
            assert np.array_equal(norms[i, b], norm(A), equal_nan=True)
    X, Y = (_with_specials(data, rng.standard_normal((k, B, n, size))) for _ in range(2))
    A, C = FrameTensor.from_stacked(n, p, X), FrameTensor.from_stacked(n, p, Y)
    dots, norms = frame_inner(A, C), frame_norm(A)
    for i in range(k):
        assert _bits(dots[i]) == _bits(frame_inner(_at(A, i), _at(C, i)))
        assert _bits(norms[i]) == _bits(frame_norm(_at(A, i)))
        for b in range(B):
            want = ref_frame_inner(_at(_at(A, i), b), _at(_at(C, i), b))
            assert np.array_equal(dots[i, b], want, equal_nan=True)
            square = ref_frame_inner(_at(_at(A, i), b), _at(_at(A, i), b))
            assert np.array_equal(norms[i, b], np.sqrt(max(square, 0.0)), equal_nan=True)


def test_mismatched_shapes_raise_shape_mismatch():
    rng = np.random.default_rng(0)
    A = random_frame_tensor(3, 2, rng)
    for B in (random_frame_tensor(3, 1, rng), random_frame_tensor(4, 2, rng)):
        for op in (lambda: A + B, lambda: A - B, lambda: frame_inner(A, B)):
            with pytest.raises(ShapeMismatchError):
                op()
    with pytest.raises(ShapeMismatchError):
        FrameTensor.from_stacked(3, 2, np.zeros((2, 6)))
    with pytest.raises(ShapeMismatchError):
        FrameTensor([SymTensor.zero(3, 2), SymTensor.zero(3, 2)])


def test_dual_slots_match_slot_loops():
    # object-dtype (dual) slots: values and gradients bit for bit
    rng = np.random.default_rng(5)
    T = random_frame_tensor(4, 2, rng)
    U = random_frame_tensor(4, 2, rng)

    def stacked(y):
        A = T.scale(y[0]) + U.scale(y[1] * y[1]) - T
        parts = cartan_decompose(A)
        return [frame_inner(A, U), frame_inner(parts.P1, A), frame_norm(parts.P2)]

    def per_slot(y):
        A = ref_frame(a.scale(y[0]) + b.scale(y[1] * y[1]) - a
                      for a, b in zip(T.slots, U.slots))
        parts = cartan_decompose(A)
        return [ref_frame_inner(A, U), ref_frame_inner(parts.P1, A),
                np.sqrt(max(ref_frame_inner(parts.P2, parts.P2).val, 0.0))]

    for got, want in zip(jacobian(stacked, [0.3, -0.7]), jacobian(per_slot, [0.3, -0.7])):
        _same(got, want)


# -- draws, guards and the Cartan splitting ------------------------------------


@PROPERTY
@given(DIMS, DEGREES, SEEDS)
def test_random_frame_tensor_is_n_single_draws(n, p, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    _same_frame(random_frame_tensor(n, p, rng), ref_random_frame_tensor(n, p, ref))
    assert rng.standard_normal() == ref.standard_normal()


@PROPERTY
@given(DIMS, st.integers(1, 4), BATCH, SEEDS)
def test_batched_cartan_decompose_is_per_point(n, p, batch, seed):
    hypothesis.assume(supported_pair(n, p))
    T = _frame(n, p, batch, seed, tracefree=True)
    parts = cartan_decompose(T)
    for b in np.ndindex(batch):
        want = cartan_decompose(_at(T, b))
        for got_part, want_part in zip(parts[:3], want[:3]):
            _same_frame(_at(got_part, b), want_part)
        _same(parts.pi1.comps[b], want.pi1.comps)
        _same(parts.pi2.comps[b], want.pi2.comps)


def test_cartan_guards_raise_on_one_bad_slot_of_a_batch():
    n, p = 4, 2
    T = _frame(n, p, (3,), 11, tracefree=True)
    S = T.comps.copy()
    S[1, 2] += SymTensor.metric(n).comps  # slot 2 of point 1 gains a trace
    with pytest.raises(TraceError):
        cartan_decompose(FrameTensor.from_stacked(n, p, S))
    cartan_decompose(T)


@PROPERTY
@given(DIMS, st.integers(1, 4), SEEDS)
def test_batched_conformal_weight_is_per_point(n, p, seed):
    hypothesis.assume(supported_pair(n, p))
    # B = n is the batch size that leading wedge axes would silently mix
    for batch in ((n,), (n + 1,), (2, 3)):
        T = _frame(n, p, batch, seed, tracefree=True)
        W = conformal_weight(T)
        for b in np.ndindex(batch):
            _same_frame(_at(W, b), conformal_weight(_at(T, b)))


def test_batched_tracefree_sym_product():
    n, p, B = 4, 3, 5
    rng = np.random.default_rng(2)
    K = tracefree_part(SymTensor(n, p, rng.standard_normal((B, sym_size(n, p)))))
    v = rng.standard_normal((B, n))
    got = tracefree_sym_product(SymTensor(n, 1, v), K)
    for b in range(B):
        want = tracefree_sym_product(v[b], SymTensor(n, p, K.comps[b]))
        _same(got.comps[b], want.comps)
    bad = K.comps.copy()
    bad[3] += mult_L(SymTensor.basis_vector(n, 0)).comps  # point 3 gains a trace
    with pytest.raises(TraceError):
        tracefree_sym_product(SymTensor(n, 1, v), SymTensor(n, p, bad))


# -- the suites' slot kernels ----------------------------------------------------


@PROPERTY
@given(SUM_DIMS, st.integers(1, 4), BATCH, SEEDS)
def test_euler_kernel_matches_basis_loop(n, p, batch, seed):
    rng = np.random.default_rng(seed)
    K = SymTensor(n, p, rng.standard_normal(batch + (sym_size(n, p),)))
    got = slot_sum(slot_products(slot_hooks(_rows(K.comps, n), p), p - 1))
    _same(got, ref_euler(K).comps)


@PROPERTY
@given(SUM_DIMS, st.integers(1, 3), BATCH, SEEDS)
@hypothesis.example(9, 1, (), 0)  # deltaK rows hold one entry each
def test_d_delta_kernels_match_basis_loop(n, p, batch, seed):
    T = _frame(n, p, batch, seed)
    dK, deltaK = ref_d_delta(T)
    _same(slot_sum(slot_products(T.comps, p)), dK.comps)
    _same(-slot_sum(slot_hooks(T.comps, p)), deltaK.comps)


@pytest.mark.parametrize("module, kernel", [(suites, "slot_products"), (cartan, "_pi2")],
                         ids=["slot_products", "slot_hooks"])
def test_slot_kernel_sign_flip_fails_suite(monkeypatch, module, kernel):
    # meta-test: a sign error in the d/delta kernels of the Cartan cases;
    # delta K is -pi2(T), the sum of the slot hooks that cartan_decompose
    # gathers
    original = getattr(module, kernel)
    monkeypatch.setattr(module, kernel, lambda *args: -original(*args))
    rep = suites.identity_suite(dims="3..3", degrees="2..2", trials=3, seed=42)
    failed = {c.name for c in rep.cases if not c.passed}
    assert "dprojection-consistency:n=3,p=2" in failed


def test_slot_sums_at_eight_slots_match_slot_loop():
    # at p = 1 each contraction row holds one entry; from 8 slots a plain
    # .sum over the rows would turn pairwise and round differently
    n, p = 8, 1
    rng = np.random.default_rng(2718)
    for _ in range(50):
        T = random_frame_tensor(n, p, rng)
        want = contract(SymTensor.basis_vector(n, 0), T.slots[0])
        for i in range(1, n):
            want = want + contract(SymTensor.basis_vector(n, i), T.slots[i])
        _same(pi2(T).comps, want.comps)
    eu = euclidean_chart(n)
    field = random_polynomial_field(eu, p, rng)
    for _ in range(20):
        x = eu.sample_point(rng)
        T = nabla(field, x)
        want = -contract(SymTensor.basis_vector(n, 0), T.slots[0])
        for i in range(1, n):
            want = want - contract(SymTensor.basis_vector(n, i), T.slots[i])
        _same(delta_op(T).comps, want.comps)


@pytest.mark.parametrize("p", [0, 1])
def test_second_order_grid_sums_at_eight_slots_match_slot_loop(p):
    # the nabla^2 grid's diagonal and rows hold few entries at p <= 1, so
    # from 8 slots a plain .sum over them would turn pairwise
    n = 8
    eu = euclidean_chart(n)
    rng = np.random.default_rng(1409 + p)
    e = [SymTensor.basis_vector(n, a) for a in range(n)]
    for _ in range(10):  # the grid is constant on the flat chart: vary the field
        field = random_polynomial_field(eu, p, rng)
        x = eu.sample_point(rng)
        W2 = nabla2(field, x)
        W = [[SymTensor(n, p, w) for w in row] for row in W2.comps]
        lap = W[0][0]
        for a in range(1, n):
            lap = lap + W[a][a]
        _same(rough_laplacian(W2).comps, (-lap).comps)
        dW = []
        for b in range(n):
            row = sym_product(e[0], W[b][0])
            for a in range(1, n):
                row = row + sym_product(e[a], W[b][a])
            dW.append(row)
        want = contract(e[0], dW[0])
        for b in range(1, n):
            want = want + contract(e[b], dW[b])
        _same(delta_d(W2).comps, (-want).comps)
        if p == 0:
            continue
        hW = []
        for b in range(n):
            row = contract(e[0], W[b][0])
            for a in range(1, n):
                row = row + contract(e[a], W[b][a])
            hW.append(row)
        want = sym_product(e[0], hW[0])
        for b in range(1, n):
            want = want + sym_product(e[b], hW[b])
        _same(d_delta(W2).comps, (-want).comps)
