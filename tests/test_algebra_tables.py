"""The compiled algebra kernels against the per-row loops they replaced.

``sym_product``, ``contract`` and ``trace_Lambda`` gather with the index
arrays of ``multiindex`` and accumulate from zero in table order.  The
reference functions below are the former per-output-component ``sum``
loops over the tuple tables; the kernels must match them bit for bit, on
floats (signed zeros included) and on nested dual numbers.
"""

import numpy as np
import pytest

from symkt.dual import Dual, seed
from symkt.multiindex import (
    contract_array,
    contract_table,
    product_arrays,
    product_table,
    sym_size,
    trace_array,
    trace_table,
)
from symkt.symtensor import SymTensor, contract, sym_product, trace_Lambda

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


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


def test_compiled_arrays_are_read_only_and_in_table_order():
    out_pos, pos_a, pos_b, count = product_arrays(3, 2, 1)
    flat = [(k, ka, kb, c) for k, row in enumerate(product_table(3, 2, 1))
            for ka, kb, c in row]
    assert list(zip(out_pos, pos_a, pos_b, count)) == flat
    assert np.array_equal(contract_array(4, 3), np.array(contract_table(4, 3)))
    assert np.array_equal(trace_array(4, 3), np.array(trace_table(4, 3)))
    for arr in (out_pos, pos_a, pos_b, count, contract_array(4, 3), trace_array(4, 3)):
        assert not arr.flags.writeable


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
