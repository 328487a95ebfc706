"""Tests for the three-way split of T (x) Sym^p_0 and the weight operator."""

import numpy as np
import pytest

from symkt.cartan import (
    FrameTensor,
    cartan_decompose,
    conformal_weight,
    frame_inner,
    frame_norm,
    pi1,
    pi1_star,
    pi2,
    pi2_star,
    pi2_constant,
    random_frame_tensor,
    supported_pair,
)
from symkt.errors import DegenerateRankError, TraceError
from symkt.symtensor import SymTensor, mult_L, random_tracefree_tensor

SUPPORTED = [(n, p) for n in (2, 3, 4, 5) for p in (1, 2, 3, 4) if supported_pair(n, p)]


def test_supported_pairs():
    assert (2, 1) not in SUPPORTED
    assert (3, 1) in SUPPORTED and (2, 2) in SUPPORTED
    with pytest.raises(DegenerateRankError):
        cartan_decompose(random_frame_tensor(2, 1, np.random.default_rng(0)))


@pytest.mark.parametrize("n,p", SUPPORTED)
def test_pi1_pi1_star_constant(n, p):
    # pi1 pi1* = (p+1) id on trace-free degree-(p+1) tensors
    rng = np.random.default_rng([1, n, p])
    S = random_tracefree_tensor(n, p + 1, rng)
    got = pi1(pi1_star(S))
    assert np.allclose(got.comps, S.scale(p + 1.0).comps, atol=1e-11)


@pytest.mark.parametrize("n,p", SUPPORTED)
def test_pi2_pi2_star_constant(n, p):
    # pi2 pi2* = (n+2p-2)(n+p-3)/(n+2p-4) id on trace-free degree-(p-1)
    rng = np.random.default_rng([2, n, p])
    S = random_tracefree_tensor(n, p - 1, rng)
    got = pi2(pi2_star(S))
    assert np.allclose(got.comps, S.scale(pi2_constant(n, p)).comps, atol=1e-11)


@pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_cartan_partition_and_orthogonality(n, p):
    rng = np.random.default_rng([3, n, p])
    for _ in range(5):
        T = random_frame_tensor(n, p, rng)
        P1, P2, P3, _, _ = cartan_decompose(T)
        total = P1 + P2 + P3
        diff = total - T
        assert frame_norm(diff) <= 1e-11 * max(1.0, frame_norm(T))
        # pairwise orthogonality
        assert abs(frame_inner(P1, P2)) <= 1e-10 * max(1.0, frame_norm(T) ** 2)
        assert abs(frame_inner(P1, P3)) <= 1e-10 * max(1.0, frame_norm(T) ** 2)
        assert abs(frame_inner(P2, P3)) <= 1e-10 * max(1.0, frame_norm(T) ** 2)
        # idempotence: decomposing a projection returns it in the same summand
        Q1 = cartan_decompose(P1)
        assert frame_norm(Q1.P1 - P1) <= 1e-10 * max(1.0, frame_norm(T))
        assert frame_norm(Q1.P2) <= 1e-10 * max(1.0, frame_norm(T))
        Q2 = cartan_decompose(P2)
        assert frame_norm(Q2.P2 - P2) <= 1e-10 * max(1.0, frame_norm(T))
        Q3 = cartan_decompose(P3)
        assert frame_norm(Q3.P3 - P3) <= 1e-10 * max(1.0, frame_norm(T))


def test_image_of_pi1_star_is_pure_P1():
    rng = np.random.default_rng(9)
    n, p = 4, 2
    S = random_tracefree_tensor(n, p + 1, rng)
    T = pi1_star(S)
    P1, P2, P3, _, _ = cartan_decompose(T)
    assert frame_norm(P1 - T) <= 1e-11 * frame_norm(T)
    assert frame_norm(P2) <= 1e-11 * frame_norm(T)
    assert frame_norm(P3) <= 1e-11 * frame_norm(T)


def test_trace_free_slot_guard():
    slots = [SymTensor.metric(3) for _ in range(3)]
    with pytest.raises(TraceError):
        cartan_decompose(FrameTensor(slots))


def test_pi1_and_pi2_star_trace_guards():
    # one traceful slot (|Lambda| > 1e-9) among trace-free ones still raises
    rng = np.random.default_rng(8)
    slots = [random_tracefree_tensor(3, 2, rng) for _ in range(3)]
    slots[1] = slots[1] + SymTensor.metric(3).scale(1e-6)
    with pytest.raises(TraceError):
        pi1(FrameTensor(slots))
    with pytest.raises(TraceError):
        pi2_star(SymTensor.metric(3).scale(1e-6) + random_tracefree_tensor(3, 2, rng))
    # below the threshold both accept their input
    pi1(FrameTensor([random_tracefree_tensor(3, 2, rng) for _ in range(3)]))
    pi2_star(random_tracefree_tensor(3, 2, rng))


def test_cartan_decompose_guards_at_its_own_tol():
    # slot traces of 3e-7..1.3e-6, and 2e-7 in pi2(T): inside tol=1e-5,
    # outside the default 1e-9, so neither pi1 nor pi2* may re-check at
    # the default inside cartan_decompose
    rng = np.random.default_rng(9)
    n, p = 3, 3
    T = FrameTensor([s + mult_L(SymTensor(n, 1, rng.standard_normal(n))).scale(1e-7)
                     for s in random_frame_tensor(n, p, rng).slots])
    P1, P2, P3, _, _ = cartan_decompose(T, tol=1e-5)
    assert frame_norm(P1 + P2 + P3 - T) <= 1e-12 * frame_norm(T)
    with pytest.raises(TraceError):
        cartan_decompose(T)
    with pytest.raises(TraceError):
        pi1(T)  # called directly, pi1 keeps its own guard
    with pytest.raises(TraceError):
        pi2_star(pi2(T))


@pytest.mark.parametrize("n,p", [(4, 2), (3, 2), (5, 4)])
def test_conformal_weight_projection_identity(n, p):
    # B = p P1 - (n+p-2) P2 - P3 and the pi-star form on random inputs
    rng = np.random.default_rng([4, n, p])
    for _ in range(5):
        T = random_frame_tensor(n, p, rng)
        B = conformal_weight(T)
        P1, P2, P3, s1, s2 = cartan_decompose(T)
        want = P1.scale(float(p)) - P2.scale(float(n + p - 2)) - P3
        assert frame_norm(B - want) <= 1e-10 * max(1.0, frame_norm(T))
        alt = pi1_star(s1) - pi2_star(s2).scale((n + 2 * p - 4) / (n + 2 * p - 2)) - T
        assert frame_norm(B - alt) <= 1e-10 * max(1.0, frame_norm(T))


def test_conformal_weight_hand_example():
    # p=1, n=3, T = e1 (x) e1: expanding the double sum by hand gives
    # slots (0, -e2, -e3).
    n = 3
    e = [SymTensor.basis_vector(n, i) for i in range(n)]
    T = FrameTensor([e[0], SymTensor.zero(n, 1), SymTensor.zero(n, 1)])
    B = conformal_weight(T)
    assert np.allclose(B.slots[0].comps, 0.0)
    assert np.allclose(B.slots[1].comps, (-e[1]).comps)
    assert np.allclose(B.slots[2].comps, (-e[2]).comps)


def test_pi_maps_are_adjoint():
    from symkt.symtensor import inner

    rng = np.random.default_rng(13)
    n, p = 4, 3
    T = random_frame_tensor(n, p, rng)
    S = random_tracefree_tensor(n, p + 1, rng)
    assert np.isclose(inner(pi1(T), S), frame_inner(T, pi1_star(S)), rtol=1e-10)
    R = random_tracefree_tensor(n, p - 1, rng)
    assert np.isclose(inner(pi2(T), R), frame_inner(T, pi2_star(R)), rtol=1e-10)
