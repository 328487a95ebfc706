"""Degree-3 Killing tensors and the operator form of the q(R) identity.

These exercise the full stack at degrees above two: triple products of
Killing fields, the component system of the standard decomposition, and
the three-projection second-order identity assembled directly from the
second covariant derivative.
"""

import numpy as np
import pytest

from symkt.cartan import cartan_decompose, frame_norm
from symkt.constructors import _rotation_generator, killing_vector
from symkt.curvature import qR_act, riemann
from symkt.fields import (
    TensorField,
    d_op,
    delta_op,
    nabla,
    nabla2,
    product_field,
    random_tangential_field,
    tracefree_part_field,
)
from symkt.manifolds import EmbeddedSphere
from symkt.symtensor import (
    SymTensor,
    mult_L,
    norm,
    standard_decomposition,
)


@pytest.fixture(scope="module")
def cubic_killing_field():
    # product of three rotation fields on the 3-sphere: a Killing 3-tensor
    sp = EmbeddedSphere(3)
    xi1 = killing_vector(sp, _rotation_generator(4, 0, 1))
    xi2 = killing_vector(sp, _rotation_generator(4, 1, 2))
    xi3 = killing_vector(sp, _rotation_generator(4, 2, 3))
    return product_field(product_field(xi1, xi2), xi3, name="xi1.xi2.xi3")


def test_triple_product_is_killing(cubic_killing_field):
    K = cubic_killing_field
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        x = K.base.sample_point(rng)
        T = nabla(K, x)
        worst = max(worst, norm(d_op(T)) / max(1.0, frame_norm(T)))
    assert worst <= 1e-10


def test_degree_three_component_system(cubic_killing_field):
    # for K = K0 + L K1 Killing in degree 3 the parts satisfy
    #   d K0 = -L delta K0 / (n+4),  d K1 = delta K0 / (n+4),  delta K1 = 0
    K = cubic_killing_field
    base = K.base
    n = base.dim

    def part(i):
        def comps(x, i=i):
            S = SymTensor(n, 3, K.comps_fn(x))
            return list(standard_decomposition(S).parts[i].comps)

        return TensorField(base, 3 - 2 * i, comps, name=f"K{i}")

    K0, K1 = part(0), part(1)
    rng = np.random.default_rng(5)
    worst = [0.0, 0.0, 0.0]
    for _ in range(5):
        x = base.sample_point(rng)
        T0 = nabla(K0, x)
        scale = max(1.0, frame_norm(T0))
        d0 = d_op(T0)
        del0 = delta_op(T0)
        worst[0] = max(worst[0], norm(d0 + mult_L(del0).scale(1.0 / (n + 4))) / scale)
        T1 = nabla(K1, x)
        d1 = d_op(T1)
        worst[1] = max(worst[1], norm(d1 - del0.scale(1.0 / (n + 4))) / scale)
        worst[2] = max(worst[2], norm(delta_op(T1)) / scale)
    assert max(worst) <= 1e-9


def test_operator_form_of_qR_identity():
    # q(R) K equals  p*A1 - (n+p-2)*A2 - A3  where A_i collects slot b of
    # the i-th projection of sum_a e_a (x) nabla^2_{e_b, e_a} K -- the
    # second-order three-projection identity, assembled independently of
    # the delta d - d delta route.
    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(7)
    field = tracefree_part_field(random_tangential_field(sp, 2, rng))
    n, p = 2, 2
    x = sp.sample_point(rng)
    W = nabla2(field, x)
    parts = [SymTensor.zero(n, p) for _ in range(3)]
    from symkt.cartan import FrameTensor

    for b in range(n):
        T_b = FrameTensor.from_stacked(n, p, W.comps[b])
        P1, P2, P3, _, _ = cartan_decompose(T_b, tol=1e-6)
        parts[0] = parts[0] + P1.slots[b]
        parts[1] = parts[1] + P2.slots[b]
        parts[2] = parts[2] + P3.slots[b]
    combo = (
        parts[0].scale(float(p))
        - parts[1].scale(float(n + p - 2))
        - parts[2]
    )
    got = qR_act(sp, x, field(x), rm=riemann(sp, x))
    assert norm(got - combo) <= 1e-8 * max(1.0, norm(field(x)))
