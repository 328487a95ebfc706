"""Statement-level checks read off one jet, against the code they replaced.

``condition_d1_residual`` takes nabla P1 from one ``nabla`` of the split's
Staeckel tensor (nabla K = n nabla P1) instead of differentiating two
extension fields per eigenvector pair; ``nijenhuis`` contracts K and
nabla K from one jet; ``SymTensor.to_dense`` and ``qrh_check`` gather
through ``multiindex.dense_array`` and the Codazzi residual through
``multiindex.exchange_array``; ``killing_form_residual`` contracts
all frame directions at once and ``ricci_killing_residual`` sums its
slots with ``slot_sum``.  The reference functions below are the former
implementations, kept verbatim.
"""

import inspect
import textwrap
from itertools import permutations

import numpy as np
import pytest

from symkt import constructors
from symkt.cartan import frame_norm
from symkt.constructors import (
    _killing_form_omega,
    _projector_frame_matrix,
    condition_d1_residual,
    hopf_split,
    killing_form_residual,
    killing_form_sphere,
    nijenhuis,
    special_ckt_flat,
    special_to_killing,
    tilted_split,
)
from symkt.curvature import qR_act, qrh_check, ricci_field, ricci_killing_residual, riemann
from symkt.dual import jacobian, value_of
from symkt.errors import VerificationError
from symkt.fields import TensorField, metric_field, nabla
from symkt.manifolds import (
    EmbeddedSphere,
    euclidean_chart,
    frame_at,
    frame_components,
    manifold_from_key,
)
from symkt.multiindex import (
    exchange_array,
    multi_indices,
    sym_size,
)
from symkt.obs import worst
from symkt.symtensor import SymTensor, norm, poly_eval, random_sym_tensor, trace_Lambda

from flat_splits import coordinate_split

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

EPS = np.finfo(float).eps


# -- the former implementations ----------------------------------------------


def ref_to_dense(K):
    out = np.zeros((K.dim,) * K.degree) if K.degree else np.zeros(())
    vals = K.values()
    if K.degree == 0:
        return vals[0]
    for k, I in enumerate(multi_indices(K.dim, K.degree)):
        for J in set(permutations(I)):
            out[J] = vals[k]
    return out


def ref_condition_d1_residual(split, x):
    base = split.base
    n = base.dim
    Pf = np.asarray(_projector_frame_matrix(split, x), dtype=float)
    w, V = np.linalg.eigh(0.5 * (Pf + Pf.T))
    ones = [V[:, i] for i in range(n) if w[i] > 0.5]
    zeros = [V[:, i] for i in range(n) if w[i] <= 0.5]
    if len(ones) != split.n1:
        raise VerificationError("projector rank differs from declared n1")
    F = frame_at(base, x)
    res = []
    for group, proj_first in ((ones, True), (zeros, False)):
        for v in group:
            for u in group:
                vc = F @ v
                uc = F @ u

                def ext(y, coord_vec=None, first=proj_first):
                    P = split.projector_fn(y)
                    m = base.coord_dim
                    out = []
                    for i in range(m):
                        s = 0.0
                        for j in range(m):
                            pij = P[i][j] if first else (1.0 if i == j else 0.0) - P[i][j]
                            s = s + pij * coord_vec[j]
                        out.append(s)
                    return out

                fv = TensorField(
                    base, 1, lambda y: frame_components(base, y, ext(y, coord_vec=vc)),
                )
                fu = TensorField(
                    base, 1, lambda y: frame_components(base, y, ext(y, coord_vec=uc)),
                )
                Tv = nabla(fv, x)
                Tu = nabla(fu, x)
                ucf = base.frame_components(x, uc)
                vcf = base.frame_components(x, vc)
                dvu = sum((Tu.slots[a].scale(vcf[a]) for a in range(n)),
                          SymTensor.zero(n, 1))
                duv = sum((Tv.slots[a].scale(ucf[a]) for a in range(n)),
                          SymTensor.zero(n, 1))
                total = (dvu + duv).values()
                comp = np.eye(n) - Pf if proj_first else Pf
                res.append(float(np.abs(comp @ total).max()))
    return worst(res, 0.0)


def ref_nijenhuis(field, x):
    n = field.base.dim
    T = nabla(field, x)
    K = field(x)
    A = np.array([[value_of(K[a, b]) for b in range(n)] for a in range(n)])
    DA = np.array(
        [
            [[value_of(T.slots[c][a, b]) for b in range(n)] for a in range(n)]
            for c in range(n)
        ]
    )
    out = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            v = A @ (DA[a] @ np.eye(n)[b]) - A @ (DA[b] @ np.eye(n)[a])
            v -= np.einsum("c,cij,j->i", A[:, a], DA, np.eye(n)[b])
            v += np.einsum("c,cij,j->i", A[:, b], DA, np.eye(n)[a])
            out[a, b] = v
    return out


def ref_killing_form_residual(u, x):
    sphere = u.base
    N = sphere.coord_dim
    q = u.degree
    xf = [float(v) for v in x]
    shape = (N,) * q
    vals, jac = jacobian(lambda y: np.asarray(u.amb_fn(y)).ravel(), xf)
    vals = np.array([value_of(v) for v in vals]).reshape(shape)
    jacm = np.array([[value_of(g) for g in row] for row in jac]).reshape(shape + (N,))
    P = np.eye(N) - np.outer(xf, xf) / np.dot(xf, xf)
    F = frame_at(sphere, xf)
    hooks = []
    for a in range(sphere.dim):
        X = F[:, a]
        D = np.tensordot(jacm, X, axes=([q], [0]))
        for axis in range(q):
            D = np.tensordot(P, D, axes=([1], [axis]))
            D = np.moveaxis(D, 0, axis)
        hooked = np.tensordot(X, D, axes=([0], [0]))
        hooks.append(float(np.abs(hooked).max()))
    return worst(hooks) / worst([1.0, float(np.abs(vals).max())])


def ref_ricci_killing_residual(base, x, X):
    n = base.dim
    ric = ricci_field(base)
    T = nabla(ric, x)
    Xc = list(X)
    nab_X = T.slots[0].scale(Xc[0])
    for a in range(1, n):
        nab_X = nab_X + T.slots[a].scale(Xc[a])
    lhs = poly_eval(nab_X, Xc)
    x_scal = value_of(trace_Lambda(nab_X).comps[0])
    g_xx = float(np.dot(Xc, Xc))
    denom = max(1.0, frame_norm(T))
    return abs(value_of(lhs) - 2.0 / (n + 2) * x_scal * g_xx) / denom


def ref_qrh_check(base, x, h, rm=None):
    n = base.dim
    if rm is None:
        rm = riemann(base, x)
    R, ric = rm.R4, rm.ricci
    hm = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            hm[a, b] = h[a, b]
    ring = np.einsum("aibl,li->ab", R, hm)
    ric_h = -(ric @ hm) - (hm @ ric.T)
    want = 2.0 * ring - ric_h
    got = qR_act(base, x, h, rm=rm)
    diff = np.array(
        [got[a, b] - want[a, b] for a, b in multi_indices(n, 2)]
    )
    target = SymTensor(n, 2, [want[a, b] for a, b in multi_indices(n, 2)])
    return norm(SymTensor(n, 2, diff)) / max(1.0, norm(target))


# -- dense_array, exchange_array and to_dense --------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4),
       st.sampled_from([(), (1,), (3,), (2, 2)]), st.integers(0, 2**32 - 1))
def test_to_dense_matches_permutation_loop(n, p, batch, seed):
    rng = np.random.default_rng(seed)
    K = SymTensor(n, p, rng.standard_normal(batch + (sym_size(n, p),)))
    got = K.to_dense()
    assert got.shape == batch + (n,) * p
    for b in np.ndindex(batch):
        want = ref_to_dense(SymTensor(n, p, K.comps[b]))
        assert np.array_equal(got[b], want)
        assert type(got[b]) is type(want)


def ref_exchange_pairs(n, p):
    """The Codazzi pair table as ``classify`` built it on every call; the
    closing reshape only makes n = 1, which has no pair, a (4, 0) table."""
    pos = {I: k for k, I in enumerate(multi_indices(n, p))}
    return np.array([
        (a, pos[tuple(sorted((b,) + I))], b, pos[tuple(sorted((a,) + I))])
        for a in range(n) for b in range(a + 1, n) for I in multi_indices(n, p - 1)
    ], dtype=np.intp).reshape(-1, 4).T


# the shapes of test_algebra_tables.py::test_rank_tables_match_the_tuple_loops
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("p", range(1, 7))
def test_exchange_array_matches_pair_loop(n, p):
    table = exchange_array(n, p)
    assert table is exchange_array(n, p)
    assert table.dtype == np.intp and not table.flags.writeable
    assert table.shape == (4, n * (n - 1) // 2 * sym_size(n, p - 1))
    assert np.array_equal(table, ref_exchange_pairs(n, p))


# -- condition (d1) ----------------------------------------------------------


def _splits():
    sp = EmbeddedSphere(3)
    eu = euclidean_chart(3)
    return [(hopf_split(sp), 81), (tilted_split(sp), 83),
            (coordinate_split(eu, 1), 85), (coordinate_split(eu, 2), 87)]


@pytest.mark.parametrize("split, seed", _splits(), ids=lambda v: getattr(v, "name", v))
def test_d1_matches_extension_field_reference(split, seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        x = list(split.base.sample_point(rng))
        got, want = condition_d1_residual(split, x), ref_condition_d1_residual(split, x)
        assert isinstance(got, float)
        assert abs(got - want) <= 8 * EPS * max(1.0, abs(want))


@pytest.mark.parametrize("split, seed", _splits(), ids=lambda v: getattr(v, "name", v))
def test_d1_batch_equals_points(split, seed):
    rng = np.random.default_rng(seed)
    points = [list(split.base.sample_point(rng)) for _ in range(6)]
    got = condition_d1_residual(split, points)
    assert got.shape == (6,)
    assert np.array_equal(got, [condition_d1_residual(split, x) for x in points])


def test_d1_takes_one_nabla_per_batch(monkeypatch):
    calls = []

    def counted(field, x):
        calls.append(1)
        return nabla(field, x)

    monkeypatch.setattr(constructors, "nabla", counted)
    sp = EmbeddedSphere(3)
    rng = np.random.default_rng(89)
    condition_d1_residual(hopf_split(sp), [list(sp.sample_point(rng)) for _ in range(5)])
    assert len(calls) == 1


def test_d1_rank_check_raises():
    sp = EmbeddedSphere(3)
    split = hopf_split(sp)
    wrong = constructors.DistributionSplit(sp, 2, split.projector_fn, name="wrong-rank")
    x = list(sp.sample_point(np.random.default_rng(91)))
    with pytest.raises(VerificationError):
        condition_d1_residual(wrong, x)
    with pytest.raises(VerificationError):
        condition_d1_residual(wrong, [x, x])


def _mutant(func, old, new):
    """``func`` recompiled in its module with one source line changed."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(src.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[func.__name__]


def test_d1_tests_the_symmetrized_form():
    # the horizontal distribution of the Hopf splitting is not integrable:
    # the antisymmetrized form (its bracket part) does not vanish, so a
    # check that dropped the symmetrization would fail on hopf
    mutant = _mutant(condition_d1_residual, "H = H + np.swapaxes(H, -3, -2)",
                     "H = H - np.swapaxes(H, -3, -2)")
    sp = EmbeddedSphere(3)
    rng = np.random.default_rng(93)
    points = [list(sp.sample_point(rng)) for _ in range(5)]
    assert condition_d1_residual(hopf_split(sp), points).max() <= 1e-14
    assert mutant(hopf_split(sp), points).min() >= 1e-3


# -- Nijenhuis ---------------------------------------------------------------


def _nijenhuis_fields():
    eu = euclidean_chart(3)
    special = special_ckt_flat(np.array([0.4, -0.3, 0.5]), chart=eu)
    hat = special_to_killing(special, rng=np.random.default_rng(95))
    return [metric_field(eu), special, hat]


@pytest.mark.parametrize("field", _nijenhuis_fields(), ids=lambda f: f.name)
def test_nijenhuis_matches_loop_and_batch_equals_points(field):
    rng = np.random.default_rng(97)
    points = [list(field.base.sample_point(rng)) for _ in range(5)]
    got = nijenhuis(field, points)
    assert got.shape == (5, 3, 3, 3)
    for b, x in enumerate(points):
        assert np.array_equal(got[b], nijenhuis(field, x))
        want = ref_nijenhuis(field, x)
        assert np.abs(got[b] - want).max() <= 8 * EPS * max(1.0, np.abs(want).max())


# -- q(R) on two-tensors -----------------------------------------------------


@pytest.mark.parametrize("key", ["euclidean:3", "sphere:3", "hyperbolic:3", "sphere:2"])
def test_qrh_check_bit_identical_to_loop(key):
    base = manifold_from_key(key)
    rng = np.random.default_rng(99)
    for _ in range(5):
        x = base.sample_point(rng)
        h = random_sym_tensor(base.dim, 2, rng)
        assert qrh_check(base, x, h) == ref_qrh_check(base, x, h)


# -- Killing forms and the modified Ricci tensor -----------------------------


@pytest.mark.parametrize("key, q", [("sphere:3", 1), ("sphere:3", 2), ("sphere:4", 2)])
def test_killing_form_residual_matches_direction_loop(key, q):
    sphere = manifold_from_key(key)
    rng = np.random.default_rng(101)
    good = killing_form_sphere(_killing_form_omega(sphere.coord_dim, q, rng), sphere)
    # an ambient form that is not x -| omega, so the residual is not zero
    bent = constructors.FormField(sphere, q, lambda x: good.amb_fn(x) * x[0], name="bent")
    for u in (good, bent):
        for _ in range(4):
            x = sphere.sample_point(rng)
            got, want = killing_form_residual(u, x), ref_killing_form_residual(u, x)
            assert abs(got - want) <= 8 * EPS * max(1.0, want)
    assert killing_form_residual(bent, x) >= 1e-3


@pytest.mark.parametrize("key", ["sphere:2", "euclidean:3", "hyperbolic:3"])
def test_ricci_killing_residual_bit_identical_to_slot_loop(key):
    base = manifold_from_key(key)
    rng = np.random.default_rng(103)
    x = base.sample_point(rng)
    for _ in range(3):
        X = rng.standard_normal(base.dim)
        assert ricci_killing_residual(base, x, X) == ref_ricci_killing_residual(base, x, X)
