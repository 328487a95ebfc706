"""The bits of the geodesic flow, pinned.

``rk4_geodesic`` integrates the geodesic equation with each backend's
``geodesic_rhs``; ``geodesic_drift`` and ``drift_series`` evaluate a first
integral along it.  Each value below is the exact result from two seeded
starts (``initial_condition``) on each manifold of ``CASES``: a trajectory
as the sha256 of the float64 bytes of every ``(x, v)`` it yields (first 16
hex digits), a drift as ``float.hex``.  A value here may move only with a
cause listed in CHANGES.md; a faster integrator that keeps the arithmetic
keeps every digest.  ``python tests/test_golden_geodesic.py`` prints the
digests of the tree it runs on.
"""

import hashlib

import numpy as np
import pytest

from symkt.fields import random_polynomial_field, random_tangential_field
from symkt.geodesic import drift_series, geodesic_drift, initial_condition, rk4_geodesic
from symkt.manifolds import EmbeddedSphere, manifold_from_key

CASES = {
    "sphere:3": lambda: manifold_from_key("sphere:3"),
    "sphere:3/radius-2": lambda: EmbeddedSphere(3, radius=2.0),
    "euclidean:3": lambda: manifold_from_key("euclidean:3"),
    "hyperbolic:3": lambda: manifold_from_key("hyperbolic:3"),
    "stereographic:2": lambda: manifold_from_key("stereographic:2"),
    "product:sphere:2,sphere:2": lambda: manifold_from_key("product:sphere:2,sphere:2"),
    "product:sphere:2,hyperbolic:3": lambda: manifold_from_key("product:sphere:2,hyperbolic:3"),
    "torus:3": lambda: manifold_from_key("torus:3"),
    "product:sphere:2,euclidean:2": lambda: manifold_from_key("product:sphere:2,euclidean:2"),
}

# trajectory: 200 steps of 5e-3; drift: 50 steps of 1e-3 inside the domain;
# series: 20 steps of 2e-3, halved twice
TRAJECTORY = (200, 5e-3)
DRIFT = (50, 1e-3)
SERIES = (20, 2e-3, 2)

GOLDEN = {
    "sphere:3/0/trajectory": "a30dfd637659dfcb",
    "sphere:3/0/drift": "0x1.5c944e42c7a2dp-3",
    "sphere:3/0/series": "0x1.133da20e64a87p-3 0x1.133da20e64cc2p-3 0x1.133da20e64d19p-3",
    "sphere:3/1/trajectory": "9649f98db35a6a72",
    "sphere:3/1/drift": "0x1.f14f9ab06eef2p-8",
    "sphere:3/1/series": "0x1.6554b23d5c1a9p-8 0x1.6554b23d5c1a9p-8 0x1.6554b23d5bf13p-8",
    "sphere:3/radius-2/0/trajectory": "65f62ee8cb364650",
    "sphere:3/radius-2/0/drift": "0x1.6f0c421ca12f0p-5",
    "sphere:3/radius-2/0/series": "0x1.273a1cbee9a6cp-5 0x1.273a1cbee9a52p-5 0x1.273a1cbee9aa0p-5",
    "sphere:3/radius-2/1/trajectory": "281a0dde2b3f054d",
    "sphere:3/radius-2/1/drift": "0x1.92edad26363e8p-4",
    "sphere:3/radius-2/1/series": "0x1.441d1dcf8a873p-4 0x1.441d1dcf8a8cbp-4 0x1.441d1dcf8a8aep-4",
    "euclidean:3/0/trajectory": "52932cfcb9aeb826",
    "euclidean:3/0/drift": "0x1.1dae52a14a800p-20",
    "euclidean:3/0/series": "0x1.c85103650d000p-21 0x1.c85103650c000p-21 0x1.c85103650c000p-21",
    "euclidean:3/1/trajectory": "5e57e43090ed9f47",
    "euclidean:3/1/drift": "0x1.4cefcbd96f600p-17",
    "euclidean:3/1/series": "0x1.0a7549ef9ca80p-17 0x1.0a7549ef9c080p-17 0x1.0a7549ef9c080p-17",
    "hyperbolic:3/0/trajectory": "e2d4005609e9d1cf",
    "hyperbolic:3/0/drift": "0x1.115ee193ad2a5p-2",
    "hyperbolic:3/0/series": "0x1.b7842d040ab1bp-3 0x1.b7842d0417935p-3 0x1.b7842d0418611p-3",
    "hyperbolic:3/1/trajectory": "a5bca0e9a2136dbb",
    "hyperbolic:3/1/drift": "0x1.60d65468de1d7p-5",
    "hyperbolic:3/1/series": "0x1.195e241a508b8p-5 0x1.195e241a5c11bp-5 0x1.195e241a5cc52p-5",
    "stereographic:2/0/trajectory": "98c7c27fff4e8905",
    "stereographic:2/0/drift": "0x1.18372fc405059p-2",
    "stereographic:2/0/series": "0x1.bf52c555b37f1p-3 0x1.bf52c555b4b4cp-3 0x1.bf52c555b4c8cp-3",
    "stereographic:2/1/trajectory": "963ad1c4fe1316a3",
    "stereographic:2/1/drift": "0x1.867333030bed9p-5",
    "stereographic:2/1/series": "0x1.278670dd55d82p-5 0x1.278670dd59d17p-5 0x1.278670dd5a1a0p-5",
    "product:sphere:2,sphere:2/0/trajectory": "84dc8cdda9c3d2dd",
    "product:sphere:2,sphere:2/0/drift": "0x1.eaeb67471e21ap-3",
    "product:sphere:2,sphere:2/0/series": "0x1.867271ac13aedp-3 0x1.867271ac13dc2p-3 0x1.867271ac13db9p-3",
    "product:sphere:2,sphere:2/1/trajectory": "522109fcb0b10ab1",
    "product:sphere:2,sphere:2/1/drift": "0x1.0dd4ff2db78d0p-4",
    "product:sphere:2,sphere:2/1/series": "0x1.ad91106534e14p-5 0x1.ad91106535131p-5 0x1.ad91106535232p-5",
    "product:sphere:2,hyperbolic:3/0/trajectory": "4d354690952647ec",
    "product:sphere:2,hyperbolic:3/0/drift": "0x1.5c708414f7865p-4",
    "product:sphere:2,hyperbolic:3/0/series": "0x1.18497823fb0bfp-4 0x1.18497823fb2d8p-4 0x1.18497823fb295p-4",
    "product:sphere:2,hyperbolic:3/1/trajectory": "186525bd2716833a",
    "product:sphere:2,hyperbolic:3/1/drift": "0x1.188f1eb062c61p-5",
    "product:sphere:2,hyperbolic:3/1/series": "0x1.c78e0f8d0a098p-6 0x1.c78e0f8d07c4fp-6 0x1.c78e0f8d07918p-6",
    "torus:3/0/trajectory": "82282f863788e1f5",
    "torus:3/0/drift": "0x1.29b4600901ad3p-6",
    "torus:3/0/series": "0x1.dc6c53ad5437ap-7 0x1.dc6c53ad53892p-7 0x1.dc6c53ad5381dp-7",
    "torus:3/1/trajectory": "e0de9f4dc80304a9",
    "torus:3/1/drift": "0x1.3691813fd42b5p-8",
    "torus:3/1/series": "0x1.f2a62f189cb57p-9 0x1.f2a62f189d7b5p-9 0x1.f2a62f189c109p-9",
    "product:sphere:2,euclidean:2/0/trajectory": "23570a004f31aa9e",
    "product:sphere:2,euclidean:2/0/drift": "0x1.6792075dda454p-7",
    "product:sphere:2,euclidean:2/0/series": "0x1.1d2529bb96b12p-7 0x1.1d2529bb96b8fp-7 0x1.1d2529bb974d5p-7",
    "product:sphere:2,euclidean:2/1/trajectory": "4de6d3641fbb246e",
    "product:sphere:2,euclidean:2/1/drift": "0x1.1d7d8c82d363dp-7",
    "product:sphere:2,euclidean:2/1/series": "0x1.cea87a403d7cep-8 0x1.cea87a403ce0fp-8 0x1.cea87a403e0cdp-8",
}


def _trajectory_digest(base, x0, v0):
    h = hashlib.sha256()
    for x, v in rk4_geodesic(base, x0, v0, *TRAJECTORY):
        h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _field(base, rng):
    if isinstance(base, EmbeddedSphere):
        return random_tangential_field(base, 2, rng)
    return random_polynomial_field(base, 2, rng)


def digests():
    """The current value of every entry of ``GOLDEN``."""
    out = {}
    for i, (key, make) in enumerate(CASES.items()):
        base = make()
        rng = np.random.default_rng([1920, i])
        field = _field(base, rng)
        for k in range(2):
            x0, v0 = initial_condition(base, rng)
            out[f"{key}/{k}/trajectory"] = _trajectory_digest(base, x0, v0)
            out[f"{key}/{k}/drift"] = geodesic_drift(field, x0, v0, *DRIFT).hex()
            series = drift_series(field, x0, v0, SERIES[0], SERIES[1], halvings=SERIES[2])
            out[f"{key}/{k}/series"] = " ".join(d.hex() for d in series)
    return out


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_geodesic_bits_are_pinned(current, name):
    assert current[name] == GOLDEN[name]


def test_golden_covers_every_digest(current):
    assert sorted(current) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(CASES))
def test_each_right_hand_side_returns_fresh_memory(key):
    # an RK4 step keeps k1 to k4 alive together and yields views into y, so
    # each call must leave y alone and return memory of its own
    base = CASES[key]()
    rng = np.random.default_rng(1921)
    states = [np.concatenate(initial_condition(base, rng)) for _ in range(2)]
    before = [y.copy() for y in states]
    outs = [base.geodesic_rhs(y) for y in states]
    assert not np.shares_memory(outs[0], outs[1])
    for out in outs:
        assert out.shape == states[0].shape
        assert not any(np.shares_memory(out, y) for y in states)
    for y, b in zip(states, before):
        assert y.tobytes() == b.tobytes()
    assert outs[0].tobytes() == base.geodesic_rhs(states[0]).tobytes()


@pytest.mark.parametrize("key", sorted(CASES))
def test_yielded_views_keep_their_values_after_later_steps(key):
    base = CASES[key]()
    x0, v0 = initial_condition(base, np.random.default_rng(1922))
    seen = [(x, v, x.copy(), v.copy()) for x, v in rk4_geodesic(base, x0, v0, 5, 1e-2)]
    for x, v, x_then, v_then in seen:
        assert x.tobytes() == x_then.tobytes() and v.tobytes() == v_then.tobytes()


if __name__ == "__main__":
    for name, value in digests().items():
        print(f'    "{name}": "{value}",')
