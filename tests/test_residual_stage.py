"""The bits of classify's residual stage, pinned against the wrapped chain.

``classify._residuals`` takes the jet of ``_nabla_jet`` (the components K
and the slots S of nabla K) and computes every residual on raw component
arrays.  The chain of wrapped tensors it replaced (``d_op``/``delta_op``
copies, ``tracefree_part(SymTensor(n, p, S))``, ``cartan_decompose``,
``pi2_star`` and the stacked norms of wrapped tensors) is kept here as the
reference.  Every residual list must carry the same bytes, on random jets
with NaNs of both signs, infinities and signed zeros injected, for pairs
that ``supported_pair`` rejects too, and ``TraceError`` must come from
the same inputs.  n runs over 2..5, and 8 for degrees 1 and 2.
"""

import numpy as np
import pytest

from symkt.cartan import (
    FrameTensor,
    _rows,
    cartan_decompose,
    frame_norm,
    pi1_star,
    pi2_star,
    slot_hooks,
    slot_products,
    slot_sum,
    supported_pair,
)
from symkt.classify import RESIDUAL_KEYS, _residuals
from symkt.errors import TraceError
from symkt.multiindex import exchange_array, sym_size
from symkt.obs import finite_or_nan
from symkt.symtensor import SymTensor, mult_L, norm, trace_Lambda, tracefree_part

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]


def _ref_norms(tensors):
    A = next(iter(tensors.values()))
    comps = np.array([t.comps for t in tensors.values()])
    if isinstance(A, FrameTensor):
        rows = frame_norm(FrameTensor.from_stacked(A.dim, A.degree, comps))
    else:
        rows = norm(SymTensor(A.dim, A.degree, comps))
    return dict(zip(tensors, rows))


def _ref_residuals(vals, S, n, p, use_parts):
    """The residual stage as a chain of wrapped tensors, each operator's
    output copied through ``SymTensor``."""
    K = SymTensor(n, p, vals)
    T = FrameTensor.from_stacked(n, p, S)
    dK = SymTensor(n, p + 1, slot_sum(slot_products(T.comps, p)))
    deltaK = SymTensor(n, p - 1, -slot_sum(slot_hooks(T.comps, p)))
    k = deltaK.scale(-1.0 / (n + p - 1))
    special = T - FrameTensor.from_stacked(n, p, slot_products(_rows(k.comps, n), p - 1))
    frames = {"scale": T, "special_conformal": special}
    if use_parts:
        T0 = T
        if p >= 2:
            T0 = FrameTensor.from_stacked(n, p, tracefree_part(SymTensor(n, p, S)).comps)
        parts = cartan_decompose(T0)
        frames.update(p1=parts.P1, p2=parts.P2, p3=parts.P3)
        if p == 2:
            c2 = (n + 2 * p - 4) / ((n + 2 * p - 2) * (n + p - 3))
            frames["special1"] = T0 - pi2_star(parts.pi2.scale(c2))
    deltas = {"divfree": deltaK}
    if p == 2:
        dtr = SymTensor(n, 1, trace_Lambda(SymTensor(n, p, S)).comps[..., 0])
        deltas["two_tensor"] = dtr - deltaK.scale(2.0)
    norms = {**_ref_norms(frames), **_ref_norms({"killing": dK, "conformal": tracefree_part(dK)}),
             **_ref_norms(deltas)}
    s = norms.pop("scale")
    special = norms.pop("special_conformal")
    scale = finite_or_nan(np.maximum(s, 1.0))
    res = {key: [] for key in RESIDUAL_KEYS}
    for key, value in norms.items():
        res[key] = value / scale
    res["special_conformal"] = special / np.maximum(1.0, s)
    res["tracefree"] = (norm(trace_Lambda(K)) if p >= 2 else 0.0) / scale
    a, ia, b, ib = exchange_array(n, p)
    res["codazzi"] = finite_or_nan(np.abs(S[..., a, ia] - S[..., b, ib]).max(-1)) / scale
    return {key: np.asarray(v, dtype=float).tolist() for key, v in res.items()}


def _outcome(fn, *args):
    """The residuals, or the message of the TraceError raised instead."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except TraceError as err:
            return str(err)


def _bytes(res):
    if isinstance(res, str):
        return res
    return {key: np.asarray(v, dtype=float).tobytes() for key, v in res.items()}


def _slots(kind, B, n, p, rng):
    """B random slot arrays (n, size) of degree p: generic, pure trace
    (L of random slots, p >= 2), or P1-type, pi1*(S) of a trace-free
    degree-(p + 1) S, whose pi2 vanishes up to rounding (p >= 3)."""
    if kind == "trace" and p >= 2:
        W = SymTensor(n, p - 2, rng.standard_normal((B, n, sym_size(n, p - 2))))
        return mult_L(W).comps
    if kind == "pi1" and p >= 3:
        S = tracefree_part(SymTensor(n, p + 1, rng.standard_normal((B, sym_size(n, p + 1)))))
        return pi1_star(S).comps
    return rng.standard_normal((B, n, sym_size(n, p)))


@st.composite
def jets(draw):
    """(vals, S, n, p, use_parts): a random jet of B samples with special
    values written over a few entries of vals and S.  Large pure-trace
    or pi2-free slots reach the trace-free guards of the Cartan parts."""
    # n = 8 at p <= 2: from 8 slots of one entry a plain .sum over the slot
    # axis turns pairwise, where the stage adds in slot order
    n = draw(st.sampled_from([2, 3, 4, 5, 8]))
    p = draw(st.integers(1, 2 if n == 8 else 4))
    B = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-3, 0, 3, 12]))
    vals = scale * rng.standard_normal((B, sym_size(n, p)))
    S = scale * _slots(draw(st.sampled_from(["generic", "trace", "pi1"])), B, n, p, rng)
    for _ in range(draw(st.integers(0, 4))):
        target = draw(st.sampled_from([vals, S]))
        flat = target.reshape(-1)
        flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from(SPECIAL))
    use_parts = draw(st.booleans()) and supported_pair(n, p)
    return vals, S, n, p, use_parts


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(jets())
def test_residual_stage_keeps_the_bits_of_the_wrapped_chain(jet):
    vals, S, n, p, use_parts = jet
    want = _bytes(_outcome(_ref_residuals, vals, S, n, p, use_parts))
    assert _bytes(_outcome(_residuals, vals, S, n, p, use_parts)) == want


@pytest.mark.parametrize("n, p", [(n, p) for n in range(2, 6) for p in range(1, 5)])
def test_every_pair_and_row_is_reached(n, p):
    # each (n, p) with and without the Cartan parts; at p = 2 the special1
    # and two_tensor rows are filled, and (2, 1) is rejected by supported_pair
    rng = np.random.default_rng(10 * n + p)
    size = sym_size(n, p)
    vals, S = rng.standard_normal((3, size)), rng.standard_normal((3, n, size))
    for use_parts in {False, supported_pair(n, p)}:
        got = _residuals(vals, S, n, p, use_parts)
        assert _bytes(got) == _bytes(_ref_residuals(vals, S, n, p, use_parts))
        filled = {key for key, v in got.items() if v}
        assert ({"p1", "p2", "p3"} <= filled) == use_parts
        assert ({"special1"} <= filled) == (use_parts and p == 2)
        assert ({"two_tensor"} <= filled) == (p == 2)


@pytest.mark.parametrize("kind, n, p, guard", [
    ("trace", 5, 2, "cartan_decompose"), ("trace", 3, 3, "cartan_decompose"),
    ("trace", 4, 4, "cartan_decompose"), ("pi1", 5, 3, "pi2_star"), ("pi1", 4, 4, "pi2_star")])
def test_both_guards_raise_where_the_chain_raises(kind, n, p, guard):
    # large pure-trace slots leave a trace-free part of rounding noise
    # (the guard on nabla K_0); large pi2-free slots leave pi2 of rounding
    # noise (the guard before pi2*).  One sample of four suffices.
    rng = np.random.default_rng(p)
    vals = rng.standard_normal((4, sym_size(n, p)))
    S = rng.standard_normal((4, n, sym_size(n, p)))
    S[2] = 1e12 * _slots(kind, 1, n, p, rng)[0]
    want = f"{guard} needs trace-free input"
    assert _outcome(_ref_residuals, vals, S, n, p, True) == want
    assert _outcome(_residuals, vals, S, n, p, True) == want
    assert not isinstance(_outcome(_residuals, vals, S, n, p, False), str)
