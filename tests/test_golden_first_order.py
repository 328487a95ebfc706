"""The bits of the first-order path, pinned.

``_nabla_jet`` gives the components K and nabla K from one jacobian; it
serves ``nabla``, ``classify``, ``d_op``/``delta_op``, ``nijenhuis`` and
condition (d1).  Each value below is the exact result for one catalog
field: ``_nabla_jet`` at one seeded point and at a batch of three, and
every ``classify`` residual at four samples, as the sha256 of their
float64 bytes (first 16 hex digits).  This is the first-order twin of
``test_golden_jets.py``: a value here may move only with a cause listed in
CHANGES.md.  ``python tests/test_golden_first_order.py`` prints the
digests of the tree it runs on.
"""

import hashlib

import numpy as np
import pytest

from symkt.classify import classify
from symkt.constructors import build_constructor, constructor_catalog
from symkt.fields import _nabla_jet

GOLDEN = {
    "broken-hopf-stackel/batch": "c523605ed68d9e4b",
    "broken-hopf-stackel/classify": "3cdc8892ec03f765",
    "broken-hopf-stackel/point": "6922e1ca56ccaed2",
    "broken-killing-form/batch": "101651a39f5b0b81",
    "broken-killing-form/classify": "2f76aa311afee3d4",
    "broken-killing-form/point": "8f22a9d945494d7a",
    "broken-product-ckt/batch": "855baa3c574da5c3",
    "broken-product-ckt/classify": "42df077f698e7295",
    "broken-product-ckt/point": "eb8eceeb21f51add",
    "broken-special-hat/batch": "84356651b7d42cd6",
    "broken-special-hat/classify": "d7ea1ec61e8f7e0d",
    "broken-special-hat/point": "826dd83d05689230",
    "broken-sphere-curvature/batch": "7a018a305bdc3075",
    "broken-sphere-curvature/classify": "a5da986e682574c2",
    "broken-sphere-curvature/point": "350cd16e26f5d687",
    "broken-sym-product/batch": "3c3ac3b0d16ec0a6",
    "broken-sym-product/classify": "ed7a8f099a0ce2af",
    "broken-sym-product/point": "5274ee5297eee5ec",
    "hopf-stackel/batch": "b83f1e9d9c627459",
    "hopf-stackel/classify": "e89ef25887b66594",
    "hopf-stackel/point": "e0ab34c0417b0cf1",
    "killing-form:q=1/batch": "f71b37bcbd4b8330",
    "killing-form:q=1/classify": "3caf27203a8f4ef6",
    "killing-form:q=1/point": "85dbbcf75fe9fa43",
    "killing-form:q=2/batch": "678d9b0e3b52d686",
    "killing-form:q=2/classify": "2fe2eba64abb76a1",
    "killing-form:q=2/point": "e57652a04e2d71e0",
    "metric/batch": "b2b0623fe319be8d",
    "metric/classify": "cd0c346c82d793ae",
    "metric/point": "c73e4e90d45e9fc5",
    "product-ckt/batch": "80ada9c73232cf3d",
    "product-ckt/classify": "94b0c2afea2582df",
    "product-ckt/point": "62a4d083d501b675",
    "sasakian-stackel/batch": "b98aab54a9698049",
    "sasakian-stackel/classify": "5e067cf4f23a79e4",
    "sasakian-stackel/point": "5f27ca6fb8dc2fb1",
    "special-flat-hat/batch": "21402c2d5f07a312",
    "special-flat-hat/classify": "7f67d1933ea95cd5",
    "special-flat-hat/point": "cd7bcf67592604a3",
    "special-flat/batch": "6eef10d563f8e58c",
    "special-flat/classify": "1c4f90337fbbbc19",
    "special-flat/point": "629c871321f66eb9",
    "sphere-curvature-weyl/batch": "00b59739e74209c1",
    "sphere-curvature-weyl/classify": "c89f877d27ea0cc9",
    "sphere-curvature-weyl/point": "f0a7363132767f5c",
    "sphere-curvature/batch": "6f684b90f7a35d45",
    "sphere-curvature/classify": "0280ddc7c7f3307e",
    "sphere-curvature/point": "4cbac5c346ba2739",
    "sym-product-hopf/batch": "b8d841644b58e04e",
    "sym-product-hopf/classify": "e718d1358151a8a2",
    "sym-product-hopf/point": "84b54c644fa9276a",
    "sym-product/batch": "13d61437aee33ab3",
    "sym-product/classify": "82b4a8abfd5c1d49",
    "sym-product/point": "d105794cd6662e96",
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()[:16]


def digests():
    """The current value of every entry of ``GOLDEN``."""
    out = {}
    for i, key in enumerate(constructor_catalog()):
        field = build_constructor(key, seed=5)[0]
        base = field.base
        rng = np.random.default_rng([2029, i])
        points = [list(base.sample_point(rng)) for _ in range(4)]
        out[f"{key}/point"] = _digest(*_nabla_jet(field, points[0]))
        out[f"{key}/batch"] = _digest(*_nabla_jet(field, points[1:]))
        rep = classify(field, samples=4, seed=i)
        out[f"{key}/classify"] = _digest(*(
            [np.nan if v is None else v for v in rep.residuals[name]]
            for name in sorted(rep.residuals)))
    return out


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_first_order_bits_are_pinned(current, name):
    assert current[name] == GOLDEN[name]


def test_golden_covers_every_digest(current):
    assert sorted(current) == sorted(GOLDEN)


if __name__ == "__main__":
    for name, value in digests().items():
        print(f'    "{name}": "{value}",')
