"""Index bookkeeping for densely stored symmetric tensors.

A symmetric tensor of degree ``p`` over ``R^n`` is stored as a flat array
with one entry per non-decreasing multi-index ``I = (i_1 <= ... <= i_p)``,
``i_k in {0, ..., n-1}``, ordered lexicographically.  The stored value is
the common entry of the fully symmetric dense array, so looking up an
arbitrary index tuple means looking up its sorted permutation.

All tables are cached per shape; they are tiny at the sizes this package
targets (n <= 8, p <= 6 or so).  The product, contraction and trace tables
are also compiled to read-only integer index arrays (``product_arrays``,
``contract_array``, ``trace_array``) that the kernels in ``symtensor``
gather with, in table order; ``index_array`` and ``replace_array`` serve
the derivation action of matrices, ``prefix_arrays`` the slot-by-slot
change of basis, ``dense_array`` the gather of the full dense array and
``exchange_array`` the Codazzi exchange of a slot with a tensor index,
and ``slot_product_arrays``/``slot_contract_array`` the slot kernels of
``cartan`` on n stacked slots read as one flat axis.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial

import numpy as np

# Largest degree a tensor literal or an identity range may ask for: the
# tables grow like C(n + p - 1, p), and ``index_position`` holds one entry
# per multi-index, so a larger degree is refused before any table is built.
MAX_DEGREE = 6

__all__ = [
    "MAX_DEGREE",
    "sym_size",
    "multi_indices",
    "index_position",
    "multiplicities",
    "sorted_insert",
    "product_arrays",
    "contract_array",
    "trace_array",
    "index_array",
    "prefix_arrays",
    "replace_array",
    "dense_array",
    "exchange_array",
    "slot_product_arrays",
    "slot_contract_array",
]


def sym_size(n, p):
    """Number of independent components of a symmetric p-tensor over R^n."""
    return comb(n + p - 1, p)


@lru_cache(maxsize=None)
def multi_indices(n, p):
    """All non-decreasing multi-indices for shape (n, p), lexicographic."""
    return tuple(combinations_with_replacement(range(n), p))


@lru_cache(maxsize=None)
def index_position(n, p):
    """Dict mapping each sorted multi-index to its storage position."""
    return {I: k for k, I in enumerate(multi_indices(n, p))}


@lru_cache(maxsize=None)
def multiplicities(n, p):
    """Orbit sizes p!/prod(repeat counts!) per stored index, as floats."""
    out = np.empty(sym_size(n, p))
    for k, I in enumerate(multi_indices(n, p)):
        m = factorial(p)
        for i in set(I):
            m //= factorial(I.count(i))
        out[k] = float(m)
    out.flags.writeable = False
    return out


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


def _frozen(values, dtype):
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def product_arrays(n, p, q):
    """``product_table(n, p, q)`` flattened in table order.

    Returns ``(out_pos, pos_a, pos_b, count)``: entry t contributes
    ``count[t] * A[pos_a[t]] * B[pos_b[t]]`` to output ``out_pos[t]``;
    ``out_pos`` is non-decreasing.
    """
    rows = [(k, ka, kb, c) for k, row in enumerate(product_table(n, p, q))
            for ka, kb, c in row]
    out_pos, pos_a, pos_b, count = zip(*rows)
    return (_frozen(out_pos, np.intp), _frozen(pos_a, np.intp),
            _frozen(pos_b, np.intp), _frozen(count, float))


@lru_cache(maxsize=None)
def contract_array(n, p):
    """``contract_table(n, p)`` as a (size_out, n) position matrix."""
    return _frozen(contract_table(n, p), np.intp)


@lru_cache(maxsize=None)
def trace_array(n, p):
    """``trace_table(n, p)`` as a (size_out, n) position matrix."""
    return _frozen(trace_table(n, p), np.intp)


@lru_cache(maxsize=None)
def index_array(n, p):
    """``multi_indices(n, p)`` as a (size, p) matrix: entry [k, m] is I_m."""
    return _frozen(np.reshape(multi_indices(n, p), (sym_size(n, p), p)), np.intp)


@lru_cache(maxsize=None)
def prefix_arrays(n, p):
    """Prefix position and last index of each stored multi-index (p >= 1).

    Returns ``(prefix, last)``: for the k-th multi-index I, ``prefix[k]``
    is the storage position of I[:-1] among the degree p-1 indices and
    ``last[k]`` is I[-1].
    """
    pos = index_position(n, p - 1)
    return (_frozen([pos[I[:-1]] for I in multi_indices(n, p)], np.intp),
            index_array(n, p)[:, -1])


@lru_cache(maxsize=None)
def replace_array(n, p):
    """(size, p, n) positions of stored indices with one slot replaced.

    Entry [k, m, d] is the storage position of the sorted tuple obtained
    from the k-th multi-index I by replacing I_m with d: the contraction
    row of I with slot m dropped.
    """
    if p == 0:
        return _frozen(np.empty((1, 0, n)), np.intp)
    pos = index_position(n, p - 1)
    drop = [[pos[I[:m] + I[m + 1:]] for m in range(p)] for I in multi_indices(n, p)]
    return _frozen(contract_array(n, p)[drop], np.intp)


@lru_cache(maxsize=None)
def dense_array(n, p):
    """(n,) * p storage positions of every full index tuple.

    Entry [i_1, ..., i_p] is the position of sorted((i_1, ..., i_p)), so
    ``comps[..., dense_array(n, p)]`` is the fully symmetric dense array
    of packed components, batch axes first.  Degree 0 gives a 0-d array.
    """
    pos = index_position(n, p)
    return _frozen([pos[tuple(sorted(J))] for J in product(range(n), repeat=p)],
                   np.intp).reshape((n,) * p)


@lru_cache(maxsize=None)
def exchange_array(n, p):
    """(4, pairs) table ``(a, ia, b, ib)`` of the Codazzi exchange (p >= 1).

    One column per slot pair a < b and degree p-1 index I: ``ia`` is the
    position of sorted((b,) + I) and ``ib`` that of sorted((a,) + I), so
    ``S[..., a, ia] - S[..., b, ib]`` compares S[a][(b,) + I] with
    S[b][(a,) + I] for stacked slots S (..., n, size).
    """
    pos = index_position(n, p)
    columns = [(a, pos[sorted_insert(I, b)], b, pos[sorted_insert(I, a)])
               for a in range(n) for b in range(a + 1, n) for I in multi_indices(n, p - 1)]
    return _frozen(list(zip(*columns)), np.intp)


@lru_cache(maxsize=None)
def slot_product_arrays(n, p):
    """``product_arrays(n, 1, p)`` on n stacked degree-p slots, flattened.

    Stacked slots (..., n, size) read as (..., n * size) hold entry k of
    slot a at ``a * size + k``.  Returns ``(take, put, count)``: entry t
    takes ``count[t]`` times flat entry ``take[t]`` of the slots and puts
    it at flat entry ``put[t]`` of the stacked degree-(p+1) products
    e_a . S_a; each (a, I) pair occurs once.
    """
    out_pos, pos_a, pos_b, count = product_arrays(n, 1, p)
    return (_frozen(pos_a * sym_size(n, p) + pos_b, np.intp),
            _frozen(pos_a * sym_size(n, p + 1) + out_pos, np.intp), count)


@lru_cache(maxsize=None)
def slot_contract_array(n, p):
    """(n, size_out) flat positions of the contractions e_a -| S_a (p >= 1).

    Row a is column a of ``contract_array(n, p)`` shifted to slot a of n
    stacked slots read as (..., n * size).
    """
    return _frozen(np.arange(n)[:, None] * sym_size(n, p) + contract_array(n, p).T, np.intp)
