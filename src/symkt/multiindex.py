"""Index bookkeeping for densely stored symmetric tensors.

A symmetric tensor of degree ``p`` over ``R^n`` is stored as a flat array
with one entry per non-decreasing multi-index ``I = (i_1 <= ... <= i_p)``,
``i_k in {0, ..., n-1}``, ordered lexicographically.  The stored value is
the common entry of the fully symmetric dense array, so looking up an
arbitrary index tuple means looking up its sorted permutation.

All tables are cached per shape.  The kernels in ``symtensor`` gather,
in table order, with read-only integer index arrays: ``contract_array``
and ``trace_array`` compile the contraction and trace tables, and
``product_arrays`` builds the product table in numpy from repeat counts.
The product table has one entry per pair (a, b) of stored indices of
degrees p and q, with its multinomial count, ordered by output position
and then by A position.  ``multiplicities`` reads the orbit sizes off
the same repeat counts.  ``index_array`` and ``replace_array`` serve
the derivation action of matrices, ``prefix_arrays`` the slot-by-slot
change of basis, ``dense_array`` the gather of the full dense array and
``exchange_array`` the Codazzi exchange of a slot with a tensor index,
and ``slot_product_arrays``/``slot_contract_array`` the slot kernels of
``cartan`` on n stacked slots read as one flat axis.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb

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


def _frozen(values, dtype):
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _binomials(top):
    """(top + 1, top + 1) table of the binomials C(i, j), as floats."""
    return _frozen([[comb(i, j) for j in range(top + 1)] for i in range(top + 1)], float)


@lru_cache(maxsize=None)
def _repeat_counts(n, p):
    """(size, n) repeat counts: entry [k, v] counts the entries equal to v
    of the k-th stored index."""
    size = sym_size(n, p)
    flat = (np.arange(size)[:, None] * n + index_array(n, p)).ravel()
    return _frozen(np.bincount(flat, minlength=size * n).reshape(size, n), np.intp)


@lru_cache(maxsize=None)
def multiplicities(n, p):
    """Orbit sizes p!/prod(repeat counts!) per stored index, as floats."""
    c = _repeat_counts(n, p)
    # p!/prod_v c(v)! = prod_v C(c(0) + ... + c(v), c(v)): a product of
    # float integers, exact below 2**53, so for every p <= 18
    return _frozen(_binomials(p)[c.cumsum(axis=-1), c].prod(axis=-1), float)


@lru_cache(maxsize=None)
def product_arrays(n, p, q):
    """Flat table of the symmetric product of degrees p and q.

    Returns ``(out_pos, pos_a, pos_b, count)``: entry t contributes
    ``count[t] * A[pos_a[t]] * B[pos_b[t]]`` to output ``out_pos[t]``.
    Each pair (a, b) of stored indices of degrees p and q is one entry,
    at the position of the merged index I = a + b, with the multinomial
    count prod_v C(c_I(v), c_a(v)) of the C(p+q, p) position shuffles of
    I that split it into a and b (c_I(v): entries of I equal to v).
    Entries are ordered by ``out_pos``, then by ``pos_a``: the order in
    which ``sym_product`` sums them, so its bits depend on it.
    """
    m = p + q
    size_a, size_b = sym_size(n, p), sym_size(n, q)
    c_a = _repeat_counts(n, p)
    c = c_a[:, None, :] + _repeat_counts(n, q)  # (size_a, size_b, n), of I
    # lexicographic rank of I: for each v with k = c(0) + ... + c(v) < m
    # (so I[k] > v), the sym_size(n - v, m - 1 - k) indices that share
    # I[:k] and put v at k come before I
    passed = [[sym_size(n - v, m - 1 - k) for k in range(m)] + [0] for v in range(n)]
    out = np.asarray(passed, dtype=np.intp)[np.arange(n), c.cumsum(axis=-1)].sum(axis=-1)
    count = _binomials(m)[c, c_a[:, None, :]].prod(axis=-1)
    # (out, pos_a) names each pair once: a pair's place in that order is
    # the number of (out, pos_a) slots taken before its own
    slot = (out * size_a + np.arange(size_a)[:, None]).ravel()
    place = np.bincount(slot, minlength=sym_size(n, m) * size_a).cumsum()[slot] - 1
    pair = np.empty_like(slot)
    pair[place] = np.arange(slot.size)
    pos_a, pos_b = np.divmod(pair, size_b)
    return (_frozen(out.ravel()[pair], np.intp), _frozen(pos_a, np.intp),
            _frozen(pos_b, np.intp), _frozen(count.ravel()[pair], float))


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
