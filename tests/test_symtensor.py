"""Algebra-level tests, checked against dense brute-force oracles."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symkt.errors import DegenerateRankError, DegreeError, ShapeMismatchError, TraceError
from symkt.symtensor import (
    SymTensor,
    _require_tracefree,
    change_basis,
    constant_a,
    contract,
    inner,
    lambda2_act,
    mult_L,
    norm,
    poly_eval,
    random_sym_tensor,
    random_tracefree_tensor,
    standard_decomposition,
    sym_power,
    sym_product,
    trace_Lambda,
    trace_residual,
    tracefree_part,
    tracefree_sym_product,
)

# ---------------------------------------------------------------------------
# dense oracles


def dense_sym_vectors(*vecs):
    """Sum over all permutations of the outer product (no 1/p! factor)."""
    p = len(vecs)
    n = len(vecs[0])
    out = np.zeros((n,) * p)
    for sigma in permutations(range(p)):
        term = np.ones(())
        for k in sigma:
            term = np.multiply.outer(term, np.asarray(vecs[k], dtype=float))
        out += term
    return out


def dense_product(A, B, p, q):
    """(1/(p! q!)) sum over S_{p+q} of A x B entries."""
    from math import factorial

    n = A.shape[0] if p else B.shape[0]
    full = np.multiply.outer(A, B) if p and q else None
    if p == 0:
        return float(A) * B
    if q == 0:
        return A * float(B)
    out = np.zeros((n,) * (p + q))
    for sigma in permutations(range(p + q)):
        out += np.transpose(full, sigma)
    return out / (factorial(p) * factorial(q))


def dense_inner(A, B, p):
    from math import factorial

    return float(np.sum(A * B)) / factorial(p)


def packed_to_dense(K):
    return K.to_dense()


def dense_to_packed(D, n, p):
    from symkt.multiindex import multi_indices

    return SymTensor(n, p, [D[I] for I in multi_indices(n, p)])


rng0 = np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# sym_product


def test_product_e1_e2_dim2():
    e1 = SymTensor.basis_vector(2, 0)
    e2 = SymTensor.basis_vector(2, 1)
    P = sym_product(e1, e2)
    assert P[0, 1] == 1.0 and P[1, 0] == 1.0
    assert P[0, 0] == 0.0 and P[1, 1] == 0.0


def test_product_unit():
    K = random_sym_tensor(3, 3, rng0)
    one = SymTensor.scalar(3, 1.0)
    assert np.allclose(sym_product(one, K).comps, K.comps)
    assert np.allclose(sym_product(K, one).comps, K.comps)


def test_product_triple_vs_permutation_sum():
    # (e1.e2).e3 against the brute-force sum over all 6 permutations
    n = 3
    e = [SymTensor.basis_vector(n, i) for i in range(n)]
    lhs = sym_product(sym_product(e[0], e[1]), e[2])
    oracle = dense_sym_vectors([1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert np.allclose(lhs.to_dense(), oracle)


@pytest.mark.parametrize("n,p,q", [(2, 1, 1), (3, 2, 1), (4, 2, 2), (2, 3, 2)])
def test_product_matches_dense_oracle(n, p, q):
    rng = np.random.default_rng([7, n, p, q])
    for _ in range(5):
        A = random_sym_tensor(n, p, rng)
        B = random_sym_tensor(n, q, rng)
        got = sym_product(A, B).to_dense()
        want = dense_product(A.to_dense(), B.to_dense(), p, q)
        assert np.allclose(got, want, atol=1e-12)


def test_product_commutative_associative_bilinear():
    # full stated ranges: n in 2..6, p+q <= 6, 100 trials spread over shapes
    rng = np.random.default_rng(3)
    shapes = [(p, q, r) for p in range(0, 4) for q in range(0, 4)
              for r in range(0, 3) if 0 < p + q + r <= 6]
    for n in (2, 3, 4, 5, 6):
        for _ in range(100 // len(shapes) + 1):
            for p, q, r in shapes:
                A = random_sym_tensor(n, p, rng)
                B = random_sym_tensor(n, q, rng)
                C = random_sym_tensor(n, r, rng)
                ab = sym_product(A, B)
                scale = max(1.0, float(np.abs(ab.comps).max()))
                assert np.allclose(ab.comps, sym_product(B, A).comps,
                                   atol=1e-12 * scale)
                lhs = sym_product(ab, C)
                rhs = sym_product(A, sym_product(B, C))
                scale = max(1.0, float(np.abs(lhs.comps).max()))
                assert np.allclose(lhs.comps, rhs.comps, atol=1e-12 * scale)
                if p == r:
                    lin = sym_product(A + C, B)
                    want = sym_product(A, B) + sym_product(C, B)
                    assert np.allclose(lin.comps, want.comps, atol=1e-12 * scale)


def test_product_dimension_mismatch():
    with pytest.raises(ShapeMismatchError):
        sym_product(SymTensor.basis_vector(2, 0), SymTensor.basis_vector(3, 0))


# ---------------------------------------------------------------------------
# contraction


def test_contract_power_rule():
    # v -| u^p = p g(v,u) u^(p-1), here with v = e1, u = e1+e2, p = 3, n = 2
    v = SymTensor.basis_vector(2, 0)
    u = SymTensor.from_vector([1.0, 1.0])
    lhs = contract(v, sym_power(u, 3))
    rhs = sym_power(u, 2).scale(3.0 * 1.0)
    assert np.allclose(lhs.comps, rhs.comps)


def test_contract_metric():
    g = SymTensor.metric(3)
    e1 = SymTensor.basis_vector(3, 0)
    assert np.allclose(contract(e1, g).comps, e1.comps)


def test_contract_product_rule():
    # v -| (w . K) = g(v,w) K + w . (v -| K), brute-forced on random inputs
    rng = np.random.default_rng(11)
    n = 3
    for _ in range(10):
        v = SymTensor(n, 1, rng.standard_normal(n))
        w = SymTensor(n, 1, rng.standard_normal(n))
        K = random_sym_tensor(n, 2, rng)
        lhs = contract(v, sym_product(w, K))
        gvw = float(np.dot(v.comps, w.comps))
        rhs = K.scale(gvw) + sym_product(w, contract(v, K))
        assert np.allclose(lhs.comps, rhs.comps, atol=1e-12)
    e1 = SymTensor.basis_vector(n, 0)
    e2 = SymTensor.basis_vector(n, 1)
    got = contract(e1, sym_product(e1, e2))
    assert np.allclose(got.comps, e2.comps)


def test_contract_degree_zero_errors():
    with pytest.raises(DegreeError):
        contract(SymTensor.basis_vector(2, 0), SymTensor.scalar(2, 1.0))


# ---------------------------------------------------------------------------
# inner product


def test_inner_permutation_sum_formula():
    # inner(v1 . v2, w1 . w2) = sum_sigma g(v1, w_sigma(1)) g(v2, w_sigma(2))
    rng = np.random.default_rng(23)
    n = 4
    v = [rng.standard_normal(n) for _ in range(2)]
    w = [rng.standard_normal(n) for _ in range(2)]
    A = sym_product(SymTensor.from_vector(v[0]), SymTensor.from_vector(v[1]))
    B = sym_product(SymTensor.from_vector(w[0]), SymTensor.from_vector(w[1]))
    want = sum(
        np.dot(v[0], w[s[0]]) * np.dot(v[1], w[s[1]])
        for s in permutations(range(2))
    )
    assert np.isclose(inner(A, B), want)


def test_inner_gg_is_half_n():
    # brute force with g = (1/2) sum e_i . e_i
    for n in (2, 3, 5):
        g = SymTensor.metric(n)
        acc = np.zeros((n, n))
        for i in range(n):
            ei = np.eye(n)[i]
            acc += dense_sym_vectors(ei, ei)
        acc *= 0.5
        want = dense_inner(acc, acc, 2)
        assert np.isclose(want, n / 2)
        assert np.isclose(inner(g, g), n / 2)


def test_inner_orthonormal_vectors():
    e1 = SymTensor.basis_vector(3, 0)
    e2 = SymTensor.basis_vector(3, 1)
    assert inner(e1, e2) == 0.0
    assert inner(e1, e1) == 1.0


def test_adjointness_product_contraction():
    rng = np.random.default_rng(5)
    for n, p in [(2, 1), (3, 2), (4, 3)]:
        v = SymTensor(n, 1, rng.standard_normal(n))
        A = random_sym_tensor(n, p, rng)
        B = random_sym_tensor(n, p + 1, rng)
        lhs = inner(sym_product(v, A), B)
        rhs = inner(A, contract(v, B))
        assert np.isclose(lhs, rhs, rtol=1e-12)


def test_eval_against_inner():
    # K(v1, ..., vp) = inner(K, v1 . ... . vp)
    rng = np.random.default_rng(17)
    n, p = 3, 3
    K = random_sym_tensor(n, p, rng)
    vs = [rng.standard_normal(n) for _ in range(p)]
    prod = SymTensor.from_vector(vs[0])
    for v in vs[1:]:
        prod = sym_product(prod, SymTensor.from_vector(v))
    dense = K.to_dense()
    want = dense
    for v in vs:
        want = np.tensordot(want, v, axes=([0], [0]))
    assert np.isclose(inner(K, prod), float(want))


# ---------------------------------------------------------------------------
# L and Lambda


def test_L_of_one_is_twice_metric():
    one = SymTensor.scalar(4, 1.0)
    got = mult_L(one)
    assert np.allclose(got.comps, SymTensor.metric(4).scale(2.0).comps)


def test_trace_of_metric():
    for n in (2, 3, 6):
        assert np.isclose(trace_Lambda(SymTensor.metric(n)).comps[0], n)


def test_commutator_L_Lambda():
    # [Lambda, L] = 2n id + 4 deg on random tensors, n=4, p=3
    rng = np.random.default_rng(29)
    n, p = 4, 3
    K = random_sym_tensor(n, p, rng)
    comm = trace_Lambda(mult_L(K)) - mult_L(trace_Lambda(K))
    want = K.scale(2.0 * n + 4.0 * p)
    assert np.allclose(comm.comps, want.comps, rtol=1e-12)


def test_commutators_with_vector_ops():
    # [Lambda, v.] = 2 v -| ; [v -|, L] = 2 v. ; [Lambda, v -|] = 0 = [L, v.]
    rng = np.random.default_rng(31)
    n, p = 3, 3
    v = SymTensor(n, 1, rng.standard_normal(n))
    K = random_sym_tensor(n, p, rng)
    c1 = trace_Lambda(sym_product(v, K)) - sym_product(v, trace_Lambda(K))
    assert np.allclose(c1.comps, contract(v, K).scale(2.0).comps, atol=1e-12)
    c2 = contract(v, mult_L(K)) - mult_L(contract(v, K))
    assert np.allclose(c2.comps, sym_product(v, K).scale(2.0).comps, atol=1e-12)
    c3 = trace_Lambda(contract(v, K)) - contract(v, trace_Lambda(K))
    assert np.allclose(c3.comps, 0.0, atol=1e-12)
    c4 = mult_L(sym_product(v, K)) - sym_product(v, mult_L(K))
    assert np.allclose(c4.comps, 0.0, atol=1e-12)


def test_lambda_degree_guard():
    with pytest.raises(DegreeError):
        trace_Lambda(SymTensor.basis_vector(3, 0))


def test_euler_identity():
    # sum_i e_i . (e_i -| K) = p K
    rng = np.random.default_rng(37)
    for n, p in [(2, 2), (3, 3), (4, 1)]:
        K = random_sym_tensor(n, p, rng)
        acc = SymTensor.zero(n, p)
        for i in range(n):
            ei = SymTensor.basis_vector(n, i)
            acc = acc + sym_product(ei, contract(ei, K))
        assert np.allclose(acc.comps, K.scale(float(p)).comps, rtol=1e-12)


# ---------------------------------------------------------------------------
# standard decomposition


def test_decomposition_of_metric():
    for n in (2, 4):
        d = standard_decomposition(SymTensor.metric(n))
        assert len(d.parts) == 2
        assert np.allclose(d.parts[0].comps, 0.0, atol=1e-14)
        assert np.isclose(d.parts[1].comps[0], 0.5)


def test_decomposition_sym2_hand_solved():
    # For p=2: K0 = K - (tr K / n) g, K1 = tr K / (2n); solved by hand from
    # Lambda K0 = 0, then cross-checked by reconstruction.
    rng = np.random.default_rng(41)
    n = 3
    K = random_sym_tensor(n, 2, rng)
    tr = float(trace_Lambda(K).comps[0])
    d = standard_decomposition(K)
    want0 = K - SymTensor.metric(n).scale(tr / n)
    assert np.allclose(d.parts[0].comps, want0.comps, atol=1e-12)
    assert np.isclose(float(d.parts[1].comps[0]), tr / (2 * n))
    assert np.allclose(d.reconstruct().comps, K.comps, atol=1e-12)


def test_decomposition_of_L_squared():
    rng = np.random.default_rng(43)
    n = 3
    S = random_tracefree_tensor(n, 2, rng)
    K = mult_L(mult_L(S))
    d = standard_decomposition(K)
    assert np.allclose(d.parts[2].comps, S.comps, atol=1e-11)
    assert np.allclose(d.parts[0].comps, 0.0, atol=1e-11)
    assert np.allclose(d.parts[1].comps, 0.0, atol=1e-11)


def test_decomposition_roundtrip_and_idempotence():
    rng = np.random.default_rng(47)
    for n in (2, 3, 4):
        for p in (2, 3, 4, 5):
            K = random_sym_tensor(n, p, rng)
            d = standard_decomposition(K)
            for part in d.parts:
                if part.degree >= 2:
                    assert norm(trace_Lambda(part)) <= 1e-11 * max(1.0, norm(K))
            R = d.reconstruct()
            assert np.allclose(R.comps, K.comps, atol=1e-11)
            d2 = standard_decomposition(R)
            for a, b in zip(d.parts, d2.parts):
                assert np.allclose(a.comps, b.comps, atol=1e-11)


# ---------------------------------------------------------------------------
# trace-free product


def test_tracefree_product_disjoint_vectors():
    e1 = SymTensor.basis_vector(3, 0)
    e2 = SymTensor.basis_vector(3, 1)
    got = tracefree_sym_product(e1, e2)
    assert np.allclose(got.comps, sym_product(e1, e2).comps)


def test_tracefree_product_e1_e1():
    e1 = SymTensor.basis_vector(3, 0)
    got = tracefree_sym_product(e1, e1)
    want = sym_product(e1, e1) - mult_L(SymTensor.scalar(3, 1.0)).scale(1.0 / 3.0)
    assert np.allclose(got.comps, want.comps)
    assert norm(trace_Lambda(got)) <= 1e-14


def test_tracefree_product_kills_trace():
    rng = np.random.default_rng(53)
    n, p = 4, 3
    for _ in range(10):
        K = random_tracefree_tensor(n, p, rng)
        v = SymTensor(n, 1, rng.standard_normal(n))
        out = tracefree_sym_product(v, K)
        assert norm(trace_Lambda(out)) <= 1e-12 * max(1.0, norm(out))
        # independent oracle: the actual trace-free projection
        assert np.allclose(out.comps, tracefree_part(sym_product(v, K)).comps,
                           atol=1e-11)


def test_tracefree_product_rejects_trace():
    with pytest.raises(TraceError):
        tracefree_sym_product(SymTensor.basis_vector(3, 0), SymTensor.metric(3))


@st.composite
def near_tracefree(draw, n, p, tol):
    """S + c L(w): a trace-free S with |S| in [0.01, 100] and a unit w with
    c in [tol/10, 10 tol], so |Lambda K| lies on both sides of tol and of
    tol max(1, |K|)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = random_tracefree_tensor(n, p, rng)
    w = random_sym_tensor(n, p - 2, rng)
    size = 10.0 ** draw(st.floats(-2.0, 2.0))
    c = tol * 10.0 ** draw(st.floats(-1.0, 1.0))
    return (S.scale(size / norm(S)) + mult_L(w.scale(c / norm(w)))).comps


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 5), st.integers(2, 4),
       st.sampled_from([(), (1,), (3,)]), st.sampled_from([1e-9, 1e-6]),
       st.sampled_from([None, np.nan, np.inf, -np.inf]))
def test_trace_guard_raises_exactly_when_a_residual_exceeds_tol(data, n, p, batch, tol, bad):
    rows = [data.draw(near_tracefree(n, p, tol)) for _ in range(int(np.prod(batch)))]
    comps = np.array(rows).reshape(batch + (-1,))
    if bad is not None:  # one non-finite entry, in the first row
        comps[(0,) * len(batch) + (data.draw(st.integers(0, comps.shape[-1] - 1)),)] = bad
    K = SymTensor(n, p, comps)
    with np.errstate(invalid="ignore"):  # inf / inf in the batched residual
        want = bool((np.asarray(trace_residual(K)) > tol).any())
        try:
            _require_tracefree(K, "test", tol)
            raised = False
        except TraceError:
            raised = True
    assert raised == want


# ---------------------------------------------------------------------------
# lambda2 action and polynomial evaluation


def test_lambda2_on_vector():
    e1 = SymTensor.basis_vector(3, 0)
    e2 = SymTensor.basis_vector(3, 1)
    got = lambda2_act(e1, e2, e1)
    assert np.allclose(got.comps, e2.comps)


def test_lambda2_on_scalar_and_antisymmetry():
    rng = np.random.default_rng(59)
    n = 4
    X = SymTensor(n, 1, rng.standard_normal(n))
    Y = SymTensor(n, 1, rng.standard_normal(n))
    s = SymTensor.scalar(n, 2.5)
    assert np.allclose(lambda2_act(X, Y, s).comps, 0.0)
    K = random_sym_tensor(n, 3, rng)
    anti = lambda2_act(X, Y, K) + lambda2_act(Y, X, K)
    assert np.allclose(anti.comps, 0.0, atol=1e-12)


def test_poly_eval_metric():
    rng = np.random.default_rng(61)
    n = 4
    X = rng.standard_normal(n)
    assert np.isclose(poly_eval(SymTensor.metric(n), X), np.dot(X, X))


def test_poly_eval_euler_identity():
    rng = np.random.default_rng(67)
    n, p = 3, 3
    K = random_sym_tensor(n, p, rng)
    X = rng.standard_normal(n)
    acc = SymTensor.zero(n, p)
    for i in range(n):
        ei = SymTensor.basis_vector(n, i)
        acc = acc + sym_product(ei, contract(ei, K))
    assert np.isclose(poly_eval(acc, X), p * poly_eval(K, X))


def test_poly_eval_power():
    rng = np.random.default_rng(71)
    n, p = 3, 4
    u = rng.standard_normal(n)
    X = rng.standard_normal(n)
    from math import factorial

    got = poly_eval(sym_power(SymTensor.from_vector(u), p), X)
    assert np.isclose(got, factorial(p) * np.dot(u, X) ** p)


# ---------------------------------------------------------------------------
# constants and change of basis


def test_constant_a_values():
    assert np.isclose(constant_a(4, 2, 0), -1.0 / 6.0)
    # p - 2i - 1 = 0 collapses to -1/n
    assert np.isclose(constant_a(5, 3, 1), -1.0 / 5.0)
    with pytest.raises(DegenerateRankError):
        constant_a(4, 1, 1)  # denominator 4 + 2(1-2-1) = 0


def test_change_basis_orthogonal_preserves_norm():
    rng = np.random.default_rng(73)
    n, p = 4, 3
    K = random_sym_tensor(n, p, rng)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    K2 = change_basis(K, Q)
    assert np.isclose(norm(K2), norm(K))
    # rotating by Q then Q^T comes back
    K3 = change_basis(K2, Q.T)
    assert np.allclose(K3.comps, K.comps, atol=1e-12)


def test_change_basis_matches_dense():
    rng = np.random.default_rng(79)
    m, n, p = 4, 3, 2
    K = random_sym_tensor(m, p, rng)
    M = rng.standard_normal((m, n))
    got = change_basis(K, M).to_dense()
    want = np.einsum("AB,Aa,Bb->ab", K.to_dense(), M, M)
    assert np.allclose(got, want, atol=1e-12)
    K3 = random_sym_tensor(m, 3, rng)
    got = change_basis(K3, M).to_dense()
    want = np.einsum("ABC,Aa,Bb,Cc->abc", K3.to_dense(), M, M, M)
    assert np.allclose(got, want, atol=1e-12)
    v = random_sym_tensor(m, 1, rng)
    assert np.allclose(change_basis(v, M).comps, M.T @ v.comps)
