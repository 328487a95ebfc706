"""The bits of the second-order path, pinned.

``riemann``, ``lichnerowicz_defect`` and ``hessian`` run on the
second-order jet (``dual.Jet``), and ``nabla(ricci_field)`` runs a
``jacobian`` around a ``hessian``.  Each value below is the exact result
at two seeded points of each of the six manifolds of the ``curvature``
benchmark workload: arrays as the sha256 of their float64 bytes (first 16
hex digits), scalars as ``float.hex``.  A value here may move only with a
cause listed in CHANGES.md; a faster kernel that keeps the arithmetic
keeps every digest.  ``python tests/test_golden_jets.py`` prints the
digests of the tree it runs on.
"""

import hashlib

import numpy as np
import pytest

from symkt.curvature import lichnerowicz_defect, ricci_field, riemann
from symkt.dual import hessian
from symkt.fields import nabla, random_polynomial_field, random_tangential_field
from symkt.manifolds import EmbeddedSphere, manifold_from_key

# manifold -> degree of its random field, as in the curvature workload
DEGREES = {"sphere:2": 2, "sphere:3": 2, "hyperbolic:3": 2, "stereographic:2": 2,
           "product:sphere:2,sphere:2": 1, "conformal:bump:euclidean:3": 2}

GOLDEN = {
    "sphere:2/0/R4": "63d128a17795e2bf",
    "sphere:2/0/defect": "0x1.54a229b234eecp-51",
    "sphere:2/0/hessian": "fbf9deca94c6067a",
    "sphere:2/1/R4": "3a21d96484feae6a",
    "sphere:2/1/defect": "0x1.56344c0ddb859p-52",
    "sphere:2/1/hessian": "82a9744136fa0ab0",
    "sphere:3/0/R4": "6fd629dc6e461eed",
    "sphere:3/0/defect": "0x1.3156e8faf2b06p-52",
    "sphere:3/0/hessian": "e2eeddc65dbb5e4a",
    "sphere:3/1/R4": "42a58d4065fed352",
    "sphere:3/1/defect": "0x1.3464d95807a7ap-51",
    "sphere:3/1/hessian": "b9b5689ffe2881d4",
    "hyperbolic:3/0/R4": "d43dff0a9b5af603",
    "hyperbolic:3/0/defect": "0x1.caccfb37f17acp-51",
    "hyperbolic:3/0/hessian": "5169ea012b75dd94",
    "hyperbolic:3/1/R4": "386c8cb161b4a3c8",
    "hyperbolic:3/1/defect": "0x1.710ceadfb5003p-52",
    "hyperbolic:3/1/hessian": "f7af751b96c10d37",
    "stereographic:2/0/R4": "24bab29ac97b46e9",
    "stereographic:2/0/defect": "0x1.36b14260f014ap-49",
    "stereographic:2/0/hessian": "e77e2140efa189df",
    "stereographic:2/1/R4": "2244f06cb6dd3f67",
    "stereographic:2/1/defect": "0x1.61f8120b55ac4p-51",
    "stereographic:2/1/hessian": "ae14ded39fa7c334",
    "product:sphere:2,sphere:2/0/R4": "f5c7ead603d24535",
    "product:sphere:2,sphere:2/0/defect": "0x1.a7f5fc0aaf760p-54",
    "product:sphere:2,sphere:2/0/hessian": "6d5850d886d435ed",
    "product:sphere:2,sphere:2/1/R4": "b039acb89787bbf8",
    "product:sphere:2,sphere:2/1/defect": "0x1.88bfc2104f8a5p-53",
    "product:sphere:2,sphere:2/1/hessian": "fcce033ad4a38be7",
    "conformal:bump:euclidean:3/0/R4": "327bbc864480023f",
    "conformal:bump:euclidean:3/0/defect": "0x1.2cf2a119d16b9p-51",
    "conformal:bump:euclidean:3/0/hessian": "99d9643c541e0921",
    "conformal:bump:euclidean:3/1/R4": "080dd5543e1d3d03",
    "conformal:bump:euclidean:3/1/defect": "0x1.2ea8c66c93042p-51",
    "conformal:bump:euclidean:3/1/hessian": "cacdc4f2025108c4",
    "nabla-ricci:sphere:2": "756af045756b2425",
}


def _digest(a):
    a = np.ascontiguousarray(a, dtype=float)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()[:16]


def _field(base, degree, rng):
    if isinstance(base, EmbeddedSphere):
        return random_tangential_field(base, degree, rng)
    return random_polynomial_field(base, degree, rng)


def digests():
    """The current value of every entry of ``GOLDEN``."""
    out = {}
    for i, (key, degree) in enumerate(DEGREES.items()):
        base = manifold_from_key(key)
        rng = np.random.default_rng([1913, i])
        field = _field(base, degree, rng)
        for k in range(2):
            x = list(base.sample_point(rng))
            out[f"{key}/{k}/R4"] = _digest(riemann(base, x).R4)
            out[f"{key}/{k}/defect"] = float(lichnerowicz_defect(field, x)).hex()
            vals, grads, hess = hessian(field.comps_fn, x)
            out[f"{key}/{k}/hessian"] = _digest(
                np.concatenate([vals.ravel(), grads.ravel(), hess.ravel()]))
    base = manifold_from_key("sphere:2")
    x = list(base.sample_point(np.random.default_rng([1913, 99])))
    out["nabla-ricci:sphere:2"] = _digest(nabla(ricci_field(base), x).comps)
    return out


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_second_order_bits_are_pinned(current, name):
    assert current[name] == GOLDEN[name]


def test_golden_covers_every_digest(current):
    assert sorted(current) == sorted(GOLDEN)


if __name__ == "__main__":
    for name, value in digests().items():
        print(f'    "{name}": "{value}",')
