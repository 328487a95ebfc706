"""The compiled algebra kernels against the per-row loops they replaced.

``sym_product``, ``contract`` and ``trace_Lambda`` are one gather with
the index arrays of ``multiindex`` and one ordered sum or scatter: in
table order from +0.0, with ``bincount`` scattering float products and
``np.add.at`` Dual and Jet ones.  The reference functions below are the
former per-output-component ``sum`` loops over the tuple tables; the
kernels must match them bit for bit, on floats (signed zeros included)
and on nested dual numbers.  On a ``(B, size)`` batch, with one factor
batched or both, each row must give the bytes of the kernel on that row.
``product_table``, the former shuffle-loop builder of the product table,
is kept verbatim below as the reference that ``product_arrays`` (built
from index pairs) must flatten entry for entry, in order; so are the
former tuple builders ``index_position``, ``sorted_insert``,
``contract_table`` and ``trace_table``, the references of every table
that ``multiindex`` now builds from repeat counts and one rank.

The derivation kernel (``symtensor.derivation``) and the slot gathers
(``cartan.slot_products``/``slot_hooks``) are pinned the same way against
the former scalar and basis-vector loops, kept verbatim below: equal
within 4 eps times max(1, |reference|), as they sum in another order.
"""

from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod

import numpy as np
import pytest

from symkt.cartan import (
    FrameTensor,
    _check_supported,
    conformal_weight,
    pi1,
    pi1_star,
    pi2,
    pi2_star,
    slot_hooks,
    slot_products,
    supported_pair,
)
from symkt.curvature import RiemannAtPoint, qR_act
from symkt.dual import Dual, seed, value_of
from symkt.fields import _assemble_first, d_delta, delta_d
from symkt.multiindex import (
    contract_array,
    dense_array,
    exchange_array,
    index_array,
    multi_indices,
    multiplicities,
    prefix_arrays,
    product_arrays,
    replace_array,
    slot_contract_array,
    slot_product_arrays,
    sym_size,
    trace_array,
)
from symkt.symtensor import (
    SymTensor,
    contract,
    derivation,
    lambda2_act,
    mult_L,
    sym_product,
    trace_Lambda,
    tracefree_part,
    tracefree_sym_product,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


@lru_cache(maxsize=None)
def index_position(n, p):
    """Dict mapping each sorted multi-index to its storage position."""
    return {I: k for k, I in enumerate(multi_indices(n, p))}


def sorted_insert(I, j):
    """Sorted tuple obtained by inserting index j into sorted tuple I."""
    out = []
    placed = False
    for i in I:
        if not placed and j <= i:
            out.append(j)
            placed = True
        out.append(i)
    if not placed:
        out.append(j)
    return tuple(out)


@lru_cache(maxsize=None)
def contract_table(n, p):
    """Positions K[sorted(J + (j,))] for each output index J and slot j."""
    pos = index_position(n, p)
    table = []
    for J in multi_indices(n, p - 1):
        table.append(tuple(pos[sorted_insert(J, j)] for j in range(n)))
    return tuple(table)


@lru_cache(maxsize=None)
def trace_table(n, p):
    """Positions K[sorted(J + (j, j))] for each output index J and j."""
    pos = index_position(n, p)
    table = []
    for J in multi_indices(n, p - 2):
        table.append(tuple(pos[sorted_insert(sorted_insert(J, j), j)] for j in range(n)))
    return tuple(table)


@lru_cache(maxsize=None)
def product_table(n, p, q):
    """Shuffle table for the symmetric product of degrees p and q.

    Entry ``k`` of the returned tuple lists ``(pos_a, pos_b, count)``
    triples such that the k-th component of the product is
    ``sum(count * A[pos_a] * B[pos_b])``.  The count records how many of
    the C(p+q, p) position shuffles of the output index produce the same
    (sorted A-part, sorted B-part) pair.
    """
    posa = index_position(n, p)
    posb = index_position(n, q)
    table = []
    for I in multi_indices(n, p + q):
        counts = {}
        for sel in combinations(range(p + q), p):
            rest = [k for k in range(p + q) if k not in sel]
            a = tuple(I[k] for k in sel)
            b = tuple(I[k] for k in rest)
            key = (posa[a], posb[b])
            counts[key] = counts.get(key, 0) + 1
        table.append(tuple((ka, kb, float(c)) for (ka, kb), c in counts.items()))
    return tuple(table)


def ref_sym_product(A, B):
    if A.degree == 0:
        return B.scale(A.comps[0])
    if B.degree == 0:
        return A.scale(B.comps[0])
    table = product_table(A.dim, A.degree, B.degree)
    a, b = A.comps, B.comps
    out = [sum(c * a[ka] * b[kb] for ka, kb, c in row) for row in table]
    return SymTensor(A.dim, A.degree + B.degree, out)


def ref_contract(v, K):
    vc = v.comps if isinstance(v, SymTensor) else v
    table = contract_table(K.dim, K.degree)
    k = K.comps
    out = [sum(vc[j] * k[row[j]] for j in range(K.dim)) for row in table]
    return SymTensor(K.dim, K.degree - 1, out)


def ref_trace_Lambda(K):
    table = trace_table(K.dim, K.degree)
    k = K.comps
    out = [sum(k[row[j]] for j in range(K.dim)) for row in table]
    return SymTensor(K.dim, K.degree - 2, out)


SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def tensors(draw, n, p):
    return SymTensor(n, p, draw(st.lists(SCALARS, min_size=sym_size(n, p),
                                         max_size=sym_size(n, p))))


def same_bits(got, want):
    assert (got.dim, got.degree) == (want.dim, want.degree)
    assert got.comps.dtype == want.comps.dtype == float
    assert got.comps.tobytes() == want.comps.tobytes()


PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(0, 4), st.integers(0, 4))
def test_sym_product_matches_loop(data, n, p, q):
    A, B = data.draw(tensors(n, p)), data.draw(tensors(n, q))
    same_bits(sym_product(A, B), ref_sym_product(A, B))


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(1, 4))
def test_contract_matches_loop(data, n, p):
    v, K = data.draw(tensors(n, 1)), data.draw(tensors(n, p))
    same_bits(contract(v, K), ref_contract(v, K))
    plain = list(v.comps)  # a coefficient sequence instead of a SymTensor
    same_bits(contract(plain, K), ref_contract(plain, K))


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(2, 4))
def test_trace_Lambda_matches_loop(data, n, p):
    K = data.draw(tensors(n, p))
    same_bits(trace_Lambda(K), ref_trace_Lambda(K))


def test_negative_zeros_sum_like_the_loop():
    for n, p in ((1, 2), (3, 2), (4, 3)):
        K = SymTensor(n, p, np.full(sym_size(n, p), -0.0))
        v = SymTensor(n, 1, np.full(n, -0.0))
        same_bits(sym_product(v, K), ref_sym_product(v, K))
        same_bits(contract(v, K), ref_contract(v, K))
        same_bits(trace_Lambda(K), ref_trace_Lambda(K))


# ---------------------------------------------------------------------------
# batched kernels: each row of a (B, size) input gives the 1-D kernel's bytes


@st.composite
def stacks(draw, n, p, rows):
    """A SymTensor with a (rows, size) batch of components."""
    size = sym_size(n, p)
    comps = draw(st.lists(SCALARS, min_size=rows * size, max_size=rows * size))
    return SymTensor(n, p, np.reshape(comps, (rows, size)))


def row_of(T, b):
    """Row b of a batched SymTensor, as a 1-D SymTensor."""
    return SymTensor(T.dim, T.degree, T.comps[b])


def same_rows(got, one_row):
    """Row b of the batched result has the bytes of ``one_row(b)``."""
    assert got.comps.ndim == 2
    for b in range(got.comps.shape[0]):
        same_bits(row_of(got, b), one_row(b))


def batch_rows(data, n):
    return data.draw(st.sampled_from([1, 2, n]))


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(0, 4), st.integers(0, 4))
def test_batched_sym_product_matches_rows(data, n, p, q):
    rows = batch_rows(data, n)
    A, B = data.draw(stacks(n, p, rows)), data.draw(stacks(n, q, rows))
    a, b1 = data.draw(tensors(n, p)), data.draw(tensors(n, q))
    same_rows(sym_product(A, b1), lambda b: sym_product(row_of(A, b), b1))
    same_rows(sym_product(a, B), lambda b: sym_product(a, row_of(B, b)))
    same_rows(sym_product(A, B), lambda b: sym_product(row_of(A, b), row_of(B, b)))


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(0, 4))
def test_batched_mult_L_matches_rows(data, n, p):
    K = data.draw(stacks(n, p, batch_rows(data, n)))
    same_rows(mult_L(K), lambda b: mult_L(row_of(K, b)))


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(1, 4))
def test_batched_contract_matches_rows(data, n, p):
    rows = batch_rows(data, n)
    V, K = data.draw(stacks(n, 1, rows)), data.draw(stacks(n, p, rows))
    v, k = data.draw(tensors(n, 1)), data.draw(tensors(n, p))
    same_rows(contract(V, k), lambda b: contract(row_of(V, b), k))
    same_rows(contract(v, K), lambda b: contract(v, row_of(K, b)))
    same_rows(contract(V, K), lambda b: contract(row_of(V, b), row_of(K, b)))


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(2, 4))
def test_batched_trace_Lambda_matches_rows(data, n, p):
    K = data.draw(stacks(n, p, batch_rows(data, n)))
    same_rows(trace_Lambda(K), lambda b: trace_Lambda(row_of(K, b)))


def test_batched_negative_zeros_sum_like_one_row():
    for n, p in ((1, 2), (3, 2), (4, 3)):
        K = SymTensor(n, p, np.full((2, sym_size(n, p)), -0.0))
        v = SymTensor(n, 1, np.full((2, n), -0.0))
        same_rows(sym_product(v, K), lambda b: sym_product(row_of(v, b), row_of(K, b)))
        same_rows(mult_L(K), lambda b: mult_L(row_of(K, b)))
        same_rows(contract(v, K), lambda b: contract(row_of(v, b), row_of(K, b)))
        same_rows(trace_Lambda(K), lambda b: trace_Lambda(row_of(K, b)))


def test_compiled_arrays_are_read_only_and_in_table_order():
    assert np.array_equal(contract_array(4, 3), np.array(contract_table(4, 3)))
    assert np.array_equal(trace_array(4, 3), np.array(trace_table(4, 3)))
    for arr in (*product_arrays(3, 2, 1), contract_array(4, 3), trace_array(4, 3)):
        assert not arr.flags.writeable


PRODUCT_SHAPES = [(n, p, q) for n in range(1, 7) for p in range(5) for q in range(5)]


@pytest.mark.parametrize("n, p, q", PRODUCT_SHAPES + [(8, 1, 6), (8, 2, 4)])
def test_product_arrays_flatten_the_shuffle_table(n, p, q):
    # same entries, order, dtypes and bits as the reference shuffle loop
    want = [(k, ka, kb, c) for k, row in enumerate(product_table(n, p, q))
            for ka, kb, c in row]
    got = product_arrays(n, p, q)
    assert [a.dtype for a in got] == [np.intp, np.intp, np.intp, float]
    assert list(zip(*(a.tolist() for a in got))) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_multiplicities_are_the_orbit_sizes(n):
    for p in range(9):
        want = [float(factorial(p) // prod(factorial(I.count(i)) for i in set(I)))
                for I in multi_indices(n, p)]
        got = multiplicities(n, p)
        assert got.dtype == float and not got.flags.writeable
        assert got.tolist() == want


def ref_prefix(n, p):
    pos = index_position(n, p - 1)
    return [pos[I[:-1]] for I in multi_indices(n, p)], [I[-1] for I in multi_indices(n, p)]


def ref_dense(n, p):
    pos = index_position(n, p)
    return np.reshape([pos[tuple(sorted(J))] for J in product(range(n), repeat=p)],
                      (n,) * p)


def ref_exchange(n, p):
    # one column (a, ia, b, ib) per slot pair a < b: none for n = 1, a (4, 0) table
    pos = index_position(n, p)
    columns = [(a, pos[sorted_insert(I, b)], b, pos[sorted_insert(I, a)])
               for a in range(n) for b in range(a + 1, n) for I in multi_indices(n, p - 1)]
    return np.reshape(list(zip(*columns)), (4, len(columns)))


def same_table(got, want):
    """A read-only intp array with the shape, order and values of ``want``."""
    want = np.asarray(want)
    assert got.dtype == np.intp and not got.flags.writeable
    assert got.shape == want.shape and got.tolist() == want.tolist()


def product_entries(n, p, q):
    """The shuffle table flattened: (out, pos_a, pos_b, count) per entry."""
    return [(k, ka, kb, c) for k, row in enumerate(product_table(n, p, q))
            for ka, kb, c in row]


@pytest.mark.parametrize("n, p", [(n, p) for n in range(1, 9) for p in range(7)])
def test_rank_tables_match_the_tuple_loops(n, p):
    size, up = sym_size(n, p), sym_size(n, p + 1)
    same_table(replace_array(n, p), np.reshape(ref_replace_table(n, p), (size, p, n)))
    if n ** p <= 3 * 10**5:
        same_table(dense_array(n, p), ref_dense(n, p))
    for q in range(7 - p):
        got = product_arrays(n, p, q)
        assert [a.dtype for a in got] == [np.intp, np.intp, np.intp, float]
        assert not any(a.flags.writeable for a in got)
        assert list(zip(*(a.tolist() for a in got))) == product_entries(n, p, q)
    want = product_entries(n, 1, p)
    take, put, count = slot_product_arrays(n, p)
    same_table(take, [ka * size + kb for _, ka, kb, _ in want])
    same_table(put, [ka * up + k for k, ka, _, _ in want])
    assert count.tolist() == [c for *_, c in want] and not count.flags.writeable
    if p >= 1:
        rows = np.reshape(contract_table(n, p), (sym_size(n, p - 1), n))
        same_table(contract_array(n, p), rows)
        same_table(slot_contract_array(n, p), np.arange(n)[:, None] * size + rows.T)
        prefix, last = prefix_arrays(n, p)
        want_prefix, want_last = ref_prefix(n, p)
        same_table(prefix, want_prefix)
        same_table(last, want_last)
        same_table(exchange_array(n, p), ref_exchange(n, p))
    if p >= 2:
        same_table(trace_array(n, p), np.reshape(trace_table(n, p), (sym_size(n, p - 2), n)))


def _flatten(x):
    """Every float of a nested Dual, depth-first, with the nesting marked."""
    if isinstance(x, Dual):
        out = [("dual", x.tag)] + _flatten(x.val)
        for g in x.grad:
            out += _flatten(g)
        return out
    return [("float", float(x).hex())]


def same_duals(got, want):
    assert (got.dim, got.degree) == (want.dim, want.degree)
    assert [_flatten(v) for v in got.comps] == [_flatten(v) for v in want.comps]


def test_nested_duals_match_loop():
    n = 3
    rng = np.random.default_rng(11)
    inner = seed([0.3, -0.7])
    outer = seed([inner[0] * 1.5, inner[1] - inner[0]])

    def dual_tensor(p):
        c = rng.standard_normal((sym_size(n, p), 3))
        return SymTensor(n, p, [a * outer[0] + b * outer[1] * outer[0] + e
                                for a, b, e in c])

    K2, K3, v = dual_tensor(2), dual_tensor(3), dual_tensor(1)
    F2 = SymTensor(n, 2, rng.standard_normal(sym_size(n, 2)))
    e1 = SymTensor.basis_vector(n, 1)
    for A, B in ((K2, K3), (v, K2), (F2, K3), (K3, F2), (v, v)):
        same_duals(sym_product(A, B), ref_sym_product(A, B))
    for w, K in ((v, K3), (e1, K2), (v, F2), (list(v.comps), K3)):
        same_duals(contract(w, K), ref_contract(w, K))
    for K in (K2, K3):
        same_duals(trace_Lambda(K), ref_trace_Lambda(K))


# ---------------------------------------------------------------------------
# derivation kernel and slot gathers against the loops they replaced

EPS = np.finfo(float).eps


def ref_replace_table(n, p):
    pos = index_position(n, p)
    table = []
    for I in multi_indices(n, p):
        rows = []
        for m in range(p):
            rest = I[:m] + I[m + 1:]
            rows.append(tuple(pos[sorted_insert(rest, d)] for d in range(n)))
        table.append(tuple(rows))
    return tuple(table)


def ref_assemble_first(n, p, vals, jac, F, gam):
    m = len(F)
    reps = ref_replace_table(n, p) if p else None
    idxs = multi_indices(n, p)
    out = []
    for a in range(n):
        slot = []
        for k in range(len(vals)):
            s = 0.0
            for i in range(m):
                s = s + F[i][a] * jac[k][i]
            if p:
                I = idxs[k]
                rows = reps[k]
                for mpos in range(p):
                    gi = gam[a][I[mpos]]
                    row = rows[mpos]
                    for d in range(n):
                        s = s - gi[d] * vals[row[d]]
            slot.append(s)
        out.append(slot)
    return out


def ref_lambda2_act(X, Y, K):
    if K.degree == 0:
        return SymTensor.zero(K.dim, 0)
    if not isinstance(X, SymTensor):
        X = SymTensor.from_vector(X)
    if not isinstance(Y, SymTensor):
        Y = SymTensor.from_vector(Y)
    return sym_product(Y, contract(X, K)) - sym_product(X, contract(Y, K))


def ref_qR_act(R, K):
    n = K.dim
    if K.degree == 0:
        return SymTensor.zero(n, 0)
    basis = [SymTensor.basis_vector(n, i) for i in range(n)]
    hooked = [contract(basis[k], K) for k in range(n)]
    out = SymTensor.zero(n, K.degree)
    for i in range(n):
        for j in range(i + 1, n):
            # A = R_{e_i, e_j} K as a derivation
            A = SymTensor.zero(n, K.degree)
            for l in range(n):
                M = SymTensor.zero(n, K.degree - 1)
                for k in range(n):
                    if R[i, j, k, l]:
                        M = M + hooked[k].scale(R[i, j, k, l])
                A = A + sym_product(basis[l], M)
            out = out + ref_lambda2_act(basis[i], basis[j], A)
    return out


def ref_d(T):
    n = T.dim
    out = SymTensor.zero(n, T.degree + 1)
    for a in range(n):
        out = out + sym_product(SymTensor.basis_vector(n, a), T.slots[a])
    return out


def ref_delta(T):
    n = T.dim
    out = SymTensor.zero(n, T.degree - 1)
    for a in range(n):
        out = out - contract(SymTensor.basis_vector(n, a), T.slots[a])
    return out


def ref_pi1(T):
    out = SymTensor.zero(T.dim, T.degree + 1)
    for i, s in enumerate(T.slots):
        out = out + tracefree_sym_product(SymTensor.basis_vector(T.dim, i), s)
    return out


def ref_pi1_star(S):
    return FrameTensor(
        [contract(SymTensor.basis_vector(S.dim, i), S) for i in range(S.dim)]
    )


def ref_pi2(T):
    out = SymTensor.zero(T.dim, T.degree - 1)
    for i, s in enumerate(T.slots):
        out = out + contract(SymTensor.basis_vector(T.dim, i), s)
    return out


def ref_pi2_star(S):
    return FrameTensor(
        [
            tracefree_sym_product(SymTensor.basis_vector(S.dim, i), S)
            for i in range(S.dim)
        ]
    )


def ref_conformal_weight(T):
    n = T.dim
    _check_supported(n, T.degree)
    basis = [SymTensor.basis_vector(n, i) for i in range(n)]
    slots = []
    for i in range(n):
        acc = SymTensor.zero(n, T.degree)
        for j in range(n):
            if i == j:
                continue
            acc = acc + ref_lambda2_act(basis[i], basis[j], T.slots[j])
        slots.append(acc)
    return FrameTensor(slots)


def ref_delta_d(n, p, W):
    out = SymTensor.zero(n, p)
    basis = [SymTensor.basis_vector(n, i) for i in range(n)]
    for b in range(n):
        acc = SymTensor.zero(n, p + 1)
        for a in range(n):
            acc = acc + sym_product(basis[a], W[b][a])
        out = out - contract(basis[b], acc)
    return out


def ref_d_delta(n, p, W):
    out = SymTensor.zero(n, p)
    basis = [SymTensor.basis_vector(n, i) for i in range(n)]
    for b in range(n):
        acc = SymTensor.zero(n, p - 1)
        for a in range(n):
            acc = acc + contract(basis[a], W[b][a])
        out = out - sym_product(basis[b], acc)
    return out


def _leaves(x):
    """Every float of a (nested) Dual, depth-first."""
    if isinstance(x, Dual):
        out = _leaves(x.val)
        for g in x.grad:
            out += _leaves(g)
        return out
    return [float(x)]


def _floats(x):
    if isinstance(x, SymTensor):
        x = x.comps
    elif isinstance(x, FrameTensor):
        x = [s.comps for s in x.slots]
    return np.array([v for c in np.asarray(x, dtype=object).ravel() for v in _leaves(c)])


def close(got, want):
    """|got - want| <= 4 eps max(1, |want|), leaf by leaf through Duals."""
    g, w = _floats(got), _floats(want)
    assert g.shape == w.shape
    assert np.abs(g - w).max(initial=0.0) <= 4 * EPS * max(1.0, np.abs(w).max(initial=0.0))


def _array(seed_, shape):
    """Random floats over several magnitudes, with some +-0 entries."""
    rng = np.random.default_rng(seed_)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    out[rng.random(shape) < 0.1] = 0.0
    out[rng.random(shape) < 0.05] = -0.0
    return out


SHAPES = st.tuples(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**32 - 1))


def close_sums(got, want, abs_sum, terms):
    """Entry by entry, |got - want| <= terms * eps * sum |terms|.

    Two summation orders of the same ``terms`` products differ by at most
    that much (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., eq. 3.5); when the terms cancel it is far above eps |sum|, so a
    bound scaled by |want| fails on correct kernels.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= terms * EPS * np.asarray(abs_sum))


@PROPERTY
@given(SHAPES, st.integers(0, 2))
@hypothesis.example((4, 2, 301), 0)  # the batched sums cancel below 4 eps of the row
def test_derivation_matches_slot_loop(shape, lead):
    n, p, s = shape
    size = sym_size(n, p)
    A = _array([s, 0], (2,) * lead + (n, n))
    comps = _array([s, 1], size)
    got = derivation(A, comps, p)
    assert got.shape == A.shape[:-2] + (size,)
    for idx in np.ndindex(A.shape[:-2]):
        # the connection part of the former loop is minus the derivation
        gam = np.broadcast_to(A[idx], (n, n, n)).tolist()
        want = ref_assemble_first(n, p, list(comps), np.zeros((size, 1)).tolist(),
                                  np.zeros((1, n)).tolist(), gam)[0]
        close(-got[idx], want)
    # leading axes of the components broadcast against those of A; each
    # entry sums the same p n products in another order
    rows = _array([s, 2], (3, size))
    batched = derivation(A[..., None, :, :], rows, p)
    for r in range(3):
        close_sums(batched[..., r, :], derivation(A, rows[r], p),
                   derivation(np.abs(A), np.abs(rows[r]), p), p * n)


@PROPERTY
@given(SHAPES, st.integers(0, 2))
@hypothesis.example((1, 0, 536870913), 2)  # cancels 3 terms of 1e6 down to 1822
def test_assemble_first_matches_loop(shape, extra):
    # each entry sums m + p n products, in another order than the loop
    n, p, s = shape
    m, size = n + extra, sym_size(n, p)
    vals, jac = _array([s, 0], size), _array([s, 1], (size, m))
    F, gam = _array([s, 2], (m, n)), _array([s, 3], (n, n, n))
    args = (vals, jac, F, gam)
    want = ref_assemble_first(n, p, *(a.tolist() for a in args))
    # the loop subtracts the connection terms: -|gam| makes each term count positive
    absv, absj, absF, absg = (np.abs(a) for a in args)
    abs_sum = ref_assemble_first(n, p, absv.tolist(), absj.tolist(),
                                 absF.tolist(), (-absg).tolist())
    close_sums(_assemble_first(p, vals, jac, F, gam), want, abs_sum, m + p * n)


def test_replace_array_matches_tuple_table():
    for n in range(1, 7):
        for p in range(5):
            rep = replace_array(n, p)
            assert rep.shape == (sym_size(n, p), p, n)
            assert np.array_equal(rep.reshape(-1), np.ravel(ref_replace_table(n, p)))
            assert np.array_equal(index_array(n, p).reshape(-1),
                                  np.ravel(multi_indices(n, p)))
            assert not rep.flags.writeable and not index_array(n, p).flags.writeable


def _exact(seed_, shape):
    """Multiples of 1/16 below 256 in magnitude: every product of three and
    every sum of them below is exact, whatever the order."""
    return np.random.default_rng(seed_).integers(-4096, 4096, shape) / 16.0


@PROPERTY
@given(SHAPES)
def test_lambda2_act_matches_two_products(shape):
    # Y.(X -| K) - X.(Y -| K) cancels the y_r x_r terms only up to its own
    # rounding, where Y X^T - X Y^T has an exact zero diagonal (for n = 1
    # the action is exactly zero); on exact data the two agree to the bit
    n, p, s = shape
    X, Y = _exact([s, 0], n), _exact([s, 1], n)
    K = SymTensor(n, p, _exact([s, 2], sym_size(n, p)))
    want = ref_lambda2_act(X, Y, K)
    assert np.array_equal(lambda2_act(X, Y, K).comps, want.comps)
    assert np.array_equal(lambda2_act(SymTensor(n, 1, X), list(Y), K).comps, want.comps)


@PROPERTY
@given(SHAPES)
@hypothesis.example((5, 1, 109))  # the sums cancel to 1.8x of 4 eps max(1, |want|)
def test_qR_act_matches_nested_loop(shape):
    # each entry sums (p n)^2 products, in another order than the loop
    n, p, s = shape
    R = _array([s, 0], (n,) * 4)
    R = R - R.transpose(1, 0, 2, 3)  # skew in (i, j), as every curvature tensor
    K = SymTensor(n, p, _array([s, 1], sym_size(n, p)))
    got = qR_act(None, None, K, rm=RiemannAtPoint(R, None, None))
    abs_sum = qR_act(None, None, SymTensor(n, p, np.abs(K.comps)),
                     rm=RiemannAtPoint(np.abs(R), None, None))
    close_sums(got.comps, ref_qR_act(R, K).comps, abs_sum.comps, (p * n) ** 2)


def _frame(n, p, s, tracefree=False):
    slots = [SymTensor(n, p, _array([s, a], sym_size(n, p))) for a in range(n)]
    return FrameTensor([tracefree_part(t) for t in slots] if tracefree else slots)


@PROPERTY
@given(SHAPES)
def test_slot_gathers_match_basis_vector_loops(shape):
    n, p, s = shape
    T = _frame(n, p, s)
    S = T.comps
    close(slot_products(S, p).sum(0), ref_d(T))
    assert slot_products(S, p).shape == (n, sym_size(n, p + 1))
    if p >= 1:
        close(-slot_hooks(S, p).sum(0), ref_delta(T))
        close(pi2(T), ref_pi2(T))
        close(pi1_star(T.slots[0]), ref_pi1_star(T.slots[0]))
    T0 = _frame(n, p, s, tracefree=True)
    close(pi1(T0), ref_pi1(T0))
    close(pi2_star(T0.slots[0]), ref_pi2_star(T0.slots[0]))


@PROPERTY
@given(SHAPES)
def test_second_order_gathers_match_loops(shape):
    n, p, s = shape
    rows = [_frame(n, p, s + b) for b in range(n)]
    W = FrameTensor.from_stacked(n, p, np.stack([T.comps for T in rows]))
    grid = [T.slots for T in rows]
    close(delta_d(W), ref_delta_d(n, p, grid))
    if p >= 1:
        close(d_delta(W), ref_d_delta(n, p, grid))


@PROPERTY
@given(SHAPES)
def test_conformal_weight_matches_pair_loop(shape):
    n, p, s = shape
    hypothesis.assume(supported_pair(n, p))
    T = _frame(n, p, s)
    close(conformal_weight(T), ref_conformal_weight(T))


def test_kernel_and_gathers_on_nested_duals():
    n = 3
    rng = np.random.default_rng(12)
    inner = seed([0.3, -0.7])
    outer = seed([inner[0] * 1.5, inner[1] - inner[0]])

    def duals(shape):
        c = rng.standard_normal(shape + (3,))
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            a, b, e = c[idx]
            out[idx] = a * outer[0] + b * outer[1] * outer[0] + e
        return out

    for p in range(4):
        size = sym_size(n, p)
        vals, jac = duals((size,)), duals((size, n))
        F, gam = duals((n, n)), duals((n, n, n))
        want = ref_assemble_first(n, p, vals.tolist(), jac.tolist(), F.tolist(),
                                  gam.tolist())
        close(_assemble_first(p, vals, jac, F, gam), want)
        K = SymTensor(n, p, duals((size,)))
        X, Y = duals((n,)), rng.standard_normal(n)
        close(lambda2_act(X, Y, K), ref_lambda2_act(list(X), Y, K))
        R = rng.standard_normal((n,) * 4)
        R = R - R.transpose(1, 0, 2, 3)
        close(qR_act(None, None, K, rm=RiemannAtPoint(R, None, None)), ref_qR_act(R, K))
        T = FrameTensor([SymTensor(n, p, duals((size,))) for _ in range(n)])
        close(slot_products(T.comps, p).sum(0), ref_d(T))
        if p:
            close(-slot_hooks(T.comps, p).sum(0), ref_delta(T))
            close(conformal_weight(T), ref_conformal_weight(T))
    assert value_of(derivation(np.eye(n), duals((1,)), 0)[0]) == 0.0
