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

The composites that run on component arrays and wrap once (``mult_L``,
``standard_decomposition``, ``tracefree_sym_product``, ``cartan_decompose``
and ``conformal_weight`` with its cached wedge) are pinned by ``tobytes``
to the chains of wrapped tensors they replace, kept below as ``chain_*``:
on floats with NaN, infinities and signed zeros, on ``(B, size)`` and
``(B, n, size)`` batches, and on DualArray and object-Jet components.
"""

from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod

import numpy as np
import pytest

from symkt.cartan import (
    FrameTensor,
    _check_supported,
    _rows,
    cartan_decompose,
    conformal_weight,
    pi1,
    pi1_star,
    pi2,
    pi2_constant,
    pi2_star,
    slot_hooks,
    slot_products,
    slot_sum,
    supported_pair,
)
from symkt.curvature import RiemannAtPoint, qR_act
from symkt.dual import Dual, DualArray, Jet, seed, value_of
from symkt.fields import SecondDerivative, _assemble_first, d_delta, delta_d
from symkt.multiindex import (
    contract_array,
    dense_array,
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
    _deflation,
    _l_element,
    contract,
    derivation,
    lambda2_act,
    mult_L,
    standard_decomposition,
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
    # exchange_array is pinned by test_statement_checks.py, over the same shapes
    size, up = sym_size(n, p), sym_size(n, p + 1)
    same_table(index_array(n, p), np.reshape(multi_indices(n, p), (size, p)))
    same_table(replace_array(n, p), np.reshape(ref_replace_table(n, p), (size, p, n)))
    if n ** p <= 3 * 10**5:
        same_table(dense_array(n, p), ref_dense(n, p))
        assert dense_array(n, p) is dense_array(n, p)
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
    W = SecondDerivative.from_stacked(n, p, np.stack([T.comps for T in rows]))
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


# ---------------------------------------------------------------------------
# composites on component arrays against the chains of wrapped tensors


def chain_mult_L(K):
    return sym_product(_l_element(K.dim), K)


def chain_deflation(K):
    """The parts K_0, K_1, ... of the SymTensor-level deflation."""
    n, p = K.dim, K.degree
    traces = [K]
    for _ in range(p // 2):
        traces.append(trace_Lambda(traces[-1]))
    parts, lifted = [], {}
    for j, coeffs, inv in _deflation(n, p):
        residue = traces[j]
        for i, coeff in coeffs.items():
            lifted[i] = chain_mult_L(lifted[i])
            residue = residue - lifted[i].scale(coeff)
        parts.append(residue.scale(inv))
        lifted[j] = parts[-1]
    return parts[::-1]


def chain_tracefree_sym_product(v, K):
    p = K.degree
    if p == 0:
        return sym_product(v, K)
    return sym_product(v, K) - chain_mult_L(contract(v, K)).scale(1.0 / (K.dim + 2 * (p - 1)))


def chain_tracefree_products(S, p):
    """Rows (e_a . S_a)_0 of slots S (..., n, size) through a wrapped ``mult_L``."""
    n = S.shape[-2]
    rows = slot_products(S, p)
    if p == 0:
        return rows
    hooks = SymTensor(n, p - 1, slot_hooks(S, p))
    return rows - chain_mult_L(hooks).scale(1.0 / (n + 2 * (p - 1))).comps


def chain_cartan_decompose(T):
    n, p = T.dim, T.degree
    s1 = SymTensor(n, p + 1, slot_sum(chain_tracefree_products(T.comps, p)))
    s2 = SymTensor(n, p - 1, slot_sum(slot_hooks(T.comps, p)))
    P1 = pi1_star(s1).scale(1.0 / (p + 1))
    pi2s = FrameTensor.from_stacked(n, p, chain_tracefree_products(_rows(s2.comps, n), p - 1))
    P2 = pi2s.scale(1.0 / pi2_constant(n, p))
    return P1, P2, T - P1 - P2, s1, s2


def chain_conformal_weight(T):
    """``conformal_weight`` with its wedge built from ``np.eye`` on the call."""
    n, p = T.dim, T.degree
    E = np.eye(n)
    wedge = E[None, :, :, None] * E[:, None, None, :]
    wedge = wedge - wedge.transpose(1, 0, 2, 3)
    return FrameTensor.from_stacked(n, p, slot_sum(derivation(wedge, T.comps[..., None, :, :], p)))


def _scalar_bits(v):
    if isinstance(v, Jet):
        return ("jet", _scalar_bits(v.val), tuple(_scalar_bits(c) for c in v.d))
    if isinstance(v, Dual):
        return ("dual", _scalar_bits(v.val), np.asarray(v.grad, dtype=float).tobytes())
    return np.float64(v).tobytes()


def bits(T):
    """Every bit of a packed tensor: dim, degree, and float, DualArray or
    object components."""
    c = T.comps
    if isinstance(c, DualArray):
        const = None if c.const is None else c.const.tobytes()
        return (T.dim, T.degree, "dual", c.val.shape, c.val.tobytes(), c.grad.tobytes(), const)
    if c.dtype == object:
        return (T.dim, T.degree, "object", c.shape, [_scalar_bits(v) for v in c.ravel()])
    return (T.dim, T.degree, c.dtype.str, c.shape, c.tobytes())


def same_tensor_bits(got, want):
    assert type(got) is type(want)
    assert bits(got) == bits(want)


SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])


def _edgy(seed_, shape, rate):
    """``_array``'s floats with NaNs of both signs, infinities and signed
    zeros in a fraction ``rate`` of the entries."""
    rng = np.random.default_rng(seed_)
    out = _array(rng.integers(2**32), shape)
    hit = rng.random(shape) < rate
    out[hit] = rng.choice(SPECIALS, hit.sum())
    return out


def _jets(seed_, shape):
    """An object array of second-order jets in two variables."""
    c = _edgy(seed_, shape + (6,), 0.05)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        v, g0, g1, h00, h01, h11 = c[idx]
        out[idx] = Jet(v, [g0, g1], [[h00, h01], [h01, h11]])
    return out


def _duals(seed_, size, batched):
    """Duals of one seeding, at a point or a batch of two points."""
    at = np.array([[0.3, -0.7], [1.1, 0.2]]) if batched else [0.3, -0.7]
    x = seed(at)
    c = _edgy(seed_, (size, 3), 0.05)
    return [a * x[0] + b * x[1] + e for a, b, e in c]


# component kinds: float shapes (point, (B, size), (B, n, size)), Duals, Jets
KINDS = st.sampled_from(["point", "rows", "slots", "duals", "batched-duals", "jets"])
RATES = st.sampled_from([0.0, 0.02, 0.2])


def _components(kind, seed_, n, size, rate):
    lead = {"point": (), "rows": (3,), "slots": (2, n)}
    if kind in lead:
        return _edgy(seed_, lead[kind] + (size,), rate)
    if kind == "jets":
        return _jets(seed_, (size,))
    return _duals(seed_, size, kind == "batched-duals")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf inputs
@PROPERTY
@given(SHAPES, KINDS, RATES)
@hypothesis.example((3, 2, 5), "point", 0.0)
def test_mult_L_is_the_product_with_the_l_element(shape, kind, rate):
    n, p, s = shape
    K = SymTensor(n, p, _components(kind, s, n, sym_size(n, p), rate))
    same_tensor_bits(mult_L(K), chain_mult_L(K))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf inputs
@PROPERTY
@given(SHAPES, KINDS, RATES)
def test_standard_decomposition_is_the_wrapped_deflation(shape, kind, rate):
    n, p, s = shape
    K = SymTensor(n, p, _components(kind, s, n, sym_size(n, p), rate))
    want = chain_deflation(K)
    got = standard_decomposition(K).parts
    assert len(got) == len(want)
    for part, ref in zip(got, want):
        same_tensor_bits(part, ref)
    if p >= 2:
        same_tensor_bits(tracefree_part(K), want[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf inputs
@PROPERTY
@given(SHAPES, KINDS.filter(lambda k: "duals" not in k), RATES)
def test_tracefree_sym_product_is_the_wrapped_chain(shape, kind, rate):
    # tol=inf lets any K through the guard, so the formula itself is pinned
    n, p, s = shape
    K = SymTensor(n, p, _components(kind, s, n, sym_size(n, p), rate))
    v = SymTensor(n, 1, _edgy([s, 1], n, rate))
    same_tensor_bits(tracefree_sym_product(v, K, tol=np.inf), chain_tracefree_sym_product(v, K))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf inputs
@PROPERTY
@given(SHAPES, st.sampled_from(["point", "rows", "jets"]), RATES)
def test_cartan_decompose_and_conformal_weight_are_the_wrapped_chains(shape, kind, rate):
    n, p, s = shape
    hypothesis.assume(supported_pair(n, p))
    size = sym_size(n, p)
    if kind == "jets":
        comps = _jets(s, (n, size))
    else:
        comps = _edgy(s, ((3,) if kind == "rows" else ()) + (n, size), rate)
    T = FrameTensor.from_stacked(n, p, comps)
    for got, want in zip(cartan_decompose(T, tol=np.inf), chain_cartan_decompose(T)):
        same_tensor_bits(got, want)
    same_tensor_bits(conformal_weight(T), chain_conformal_weight(T))


@PROPERTY
@given(SHAPES)
def test_composites_on_finite_floats_match_the_loops(shape):
    # the chains above share the product kernel with the composites; here
    # the products come from the per-component loop, so a kernel that
    # associates count * (a * b) fails
    n, p, s = shape
    K = SymTensor(n, p, _array([s, 0], sym_size(n, p)))
    v = SymTensor(n, 1, _array([s, 1], n))
    same_tensor_bits(mult_L(K), ref_sym_product(_l_element(n), K))
    if p >= 1:
        want = ref_sym_product(v, K) - ref_sym_product(
            _l_element(n), ref_contract(v, K)).scale(1.0 / (n + 2 * (p - 1)))
        same_tensor_bits(tracefree_sym_product(v, K, tol=np.inf), want)
