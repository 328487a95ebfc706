"""Covariant differentiation of tensor fields across backends."""

import numpy as np
import pytest

from symkt.cartan import frame_norm
from symkt.constructors import _rotation_generator, killing_vector
from symkt.errors import DegreeError, ShapeMismatchError
from symkt.fields import (
    TensorField,
    add_fields,
    constant_field,
    d0_op,
    d_op,
    delta_op,
    derived_field,
    field_from_components,
    metric_field,
    nabla,
    nabla2,
    product_field,
    random_polynomial_field,
    random_tangential_field,
    rough_laplacian,
    scalar_field,
    tracefree_part_field,
)
from symkt.manifolds import (
    EmbeddedSphere,
    euclidean_chart,
    manifold_from_key,
    stereographic_sphere_chart,
)
from symkt.multiindex import multi_indices
from symkt.symtensor import (
    SymTensor,
    constant_a,
    mult_L,
    norm,
    random_tracefree_tensor,
    sym_product,
    trace_Lambda,
)

rng0 = np.random.default_rng(2024)


def x_dot_k0_field(chart, k0):
    n = chart.dim

    def comps(x):
        out = []
        for i, j in multi_indices(n, 2):
            out.append(x[i] * k0[j] + x[j] * k0[i])
        return out

    return TensorField(chart, 2, comps, name="x.k0")


@pytest.mark.parametrize(
    "key", ["stereographic:2", "sphere:2", "sphere:3", "hyperbolic:2",
            "product:sphere:2,sphere:2", "conformal:bump:euclidean:3"]
)
def test_metric_field_is_parallel(key):
    base = manifold_from_key(key)
    f = metric_field(base)
    rng = np.random.default_rng(31)
    for _ in range(3):
        x = base.sample_point(rng)
        T = nabla(f, x)
        assert frame_norm(T) <= 1e-13
        assert norm(d_op(T)) <= 1e-13


def test_constant_field_on_flat_space():
    eu = euclidean_chart(3)
    K = random_tracefree_tensor(3, 2, rng0)
    f = constant_field(eu, K)
    x = eu.sample_point(rng0)
    assert frame_norm(nabla(f, x)) == 0.0


def test_position_times_vector_slots():
    eu = euclidean_chart(3)
    k0 = np.array([0.3, -0.7, 0.2])
    f = x_dot_k0_field(eu, k0)
    x = eu.sample_point(rng0)
    T = nabla(f, x)
    k0t = SymTensor.from_vector(k0)
    for i in range(3):
        e = SymTensor.basis_vector(3, i)
        assert norm(T.slots[i] - sym_product(e, k0t)) <= 1e-14


def test_d_and_delta_of_position_field():
    eu = euclidean_chart(3)
    k0 = np.array([0.5, 0.1, -0.4])
    f = x_dot_k0_field(eu, k0)
    x = eu.sample_point(rng0)
    k0t = SymTensor.from_vector(k0)
    T = nabla(f, x)
    assert norm(d_op(T) - mult_L(k0t)) <= 1e-14
    assert norm(delta_op(T) - k0t.scale(-4.0)) <= 1e-14  # -(n+1) with n=3


def test_delta_needs_degree():
    eu = euclidean_chart(2)
    f = scalar_field(eu, lambda x: x[0])
    with pytest.raises(DegreeError):
        delta_op(nabla(f, np.zeros(2)))


def test_gradient_of_scalar_field():
    st = stereographic_sphere_chart(2)
    f = scalar_field(st, lambda x: x[0] * x[1])
    rng = np.random.default_rng(37)
    x = rng.uniform(-0.3, 0.3, 2)
    got = d_op(nabla(f, x))
    # frame is conformal: e_a = (1/sqrt(c)) d_a with c = 4/(1+|x|^2)^2
    c = 4.0 / (1.0 + x @ x) ** 2
    want = np.array([x[1], x[0]]) / np.sqrt(c)
    assert np.allclose(got.comps, want, atol=1e-13)


def test_trace_shift_constant_for_parts():
    # dK_i - a_i L delta K_i is trace-free for K_i in the i-th summand of
    # a degree-p split over a flat chart
    eu = euclidean_chart(4)
    rng = np.random.default_rng(41)
    p, i = 4, 1
    deg_i = p - 2 * i
    base_field = random_polynomial_field(eu, deg_i, rng)
    f0 = tracefree_part_field(base_field)
    x = eu.sample_point(rng)
    T = nabla(f0, x)
    dK = d_op(T)
    deltaK = delta_op(T)
    a_i = constant_a(4, p, i)
    shifted = dK - mult_L(deltaK).scale(a_i)
    assert norm(trace_Lambda(shifted)) <= 1e-10 * max(1.0, norm(dK))


def test_d0_op_matches_tracefree_projection():
    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(43)
    f = tracefree_part_field(random_tangential_field(sp, 2, rng))
    x = sp.sample_point(rng)
    from symkt.symtensor import tracefree_part

    T = nabla(f, x)
    got = d0_op(T)
    want = tracefree_part(d_op(T))
    assert norm(got - want) <= 1e-12


def test_second_derivative_symmetry_flat():
    # nabla^2 is symmetric in its two slots on flat space
    eu = euclidean_chart(3)
    rng = np.random.default_rng(47)
    f = random_polynomial_field(eu, 2, rng)
    x = eu.sample_point(rng)
    W = nabla2(f, x)
    for a in range(3):
        for b in range(3):
            assert norm(SymTensor(3, 2, W.comps[a, b] - W.comps[b, a])) <= 1e-12


def test_rough_laplacian_scalar_flat():
    eu = euclidean_chart(2)
    f = scalar_field(eu, lambda x: x[0] * x[0] + 3.0 * x[1] * x[1])
    x = eu.sample_point(rng0)
    got = rough_laplacian(nabla2(f, x))
    assert np.isclose(got.comps[0], -(2.0 + 6.0))  # nabla*nabla = -Laplace


def test_killing_vector_field_on_sphere():
    sp = EmbeddedSphere(2)
    xi = killing_vector(sp, _rotation_generator(3, 0, 1))
    rng = np.random.default_rng(53)
    for _ in range(5):
        x = sp.sample_point(rng)
        T = nabla(xi, x)
        assert norm(d_op(T)) <= 1e-11 * max(1.0, frame_norm(T))


def test_field_from_coordinate_components_roundtrip():
    # covariant coordinate components against a hand conversion, p = 1
    st = stereographic_sphere_chart(2)

    def cov(x):
        return [x[1], -x[0]]

    f = field_from_components(st, 1, cov)
    rng = np.random.default_rng(59)
    x = rng.uniform(-0.4, 0.4, 2)
    from symkt.manifolds import frame_at

    F = frame_at(st, x)
    want = F.T @ np.array([x[1], -x[0]])
    assert np.allclose(f(x).comps, want, atol=1e-14)


@pytest.mark.parametrize("combine", [product_field, add_fields], ids=["product", "sum"])
def test_fields_on_two_bases_do_not_combine(combine):
    # a field built from fields reads them all at its own base's points
    flat = metric_field(manifold_from_key("euclidean:3"))
    other = random_polynomial_field(manifold_from_key("hyperbolic:3"), 2,
                                    np.random.default_rng(5))
    with pytest.raises(ShapeMismatchError):
        combine(flat, other)


def test_fields_of_two_degrees_do_not_add():
    base, rng = euclidean_chart(3), np.random.default_rng(6)
    with pytest.raises(ShapeMismatchError):
        add_fields(random_polynomial_field(base, 1, rng), random_polynomial_field(base, 2, rng))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_derived_field_reads_its_degree_off_fn(p):
    base = manifold_from_key("sphere:3")
    rng = np.random.default_rng(p)
    f = random_tangential_field(base, p, rng)
    Lf = derived_field(mult_L, f, name="L(f)")
    assert Lf.degree == p + 2 and Lf.base is base
    points = [list(base.sample_point(rng)) for _ in range(4)]
    assert np.array_equal(Lf.batch(points), mult_L(SymTensor(3, p, f.batch(points))).comps)
