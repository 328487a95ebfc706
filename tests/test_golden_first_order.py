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
from symkt.constructors import (
    build_constructor,
    condition_d1_residual,
    constructor_catalog,
    hopf_split,
    nijenhuis,
)
from symkt.dual import jacobian
from symkt.fields import _nabla_jet
from symkt.manifolds import gamma_frame, manifold_from_key

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


# The raw first-order jet under nabla K, before the connection sums it:
# the jacobian of a field's components and frame at a point and at a
# batch of three, so that each signed zero of J is pinned, not only its
# sum into nabla K; ``gamma_frame`` at a batch of three on each catalog
# manifold; and the Nijenhuis tensor and condition (d1) of the Hopf split
# at a batch of three.
RAW_GOLDEN = {
    "broken-hopf-stackel/jacobian-batch": "65e76ebe9f15a797",
    "broken-hopf-stackel/jacobian-point": "a7650e65b62f18a7",
    "broken-killing-form/jacobian-batch": "fd1bdf017589aebf",
    "broken-killing-form/jacobian-point": "f80b870a6fe05ad8",
    "broken-product-ckt/jacobian-batch": "f662344481974849",
    "broken-product-ckt/jacobian-point": "cf7033378c82ee29",
    "broken-special-hat/jacobian-batch": "fad5ce56409d4387",
    "broken-special-hat/jacobian-point": "5aa676b3abb85056",
    "broken-sphere-curvature/jacobian-batch": "3cfb0ffbb5f401a9",
    "broken-sphere-curvature/jacobian-point": "c5be524ff55de035",
    "broken-sym-product/jacobian-batch": "bc7a257daafc89e9",
    "broken-sym-product/jacobian-point": "23e70f78b35ea53b",
    "gamma_frame/euclidean:3": "87155fe8d7322698",
    "gamma_frame/product:sphere:2,sphere:2": "3b547878639b409f",
    "gamma_frame/sphere:2": "477b8286536c8a84",
    "gamma_frame/sphere:3": "161f062435211c88",
    "gamma_frame/sphere:4": "a3063e3d5f1cecf8",
    "hopf-stackel/jacobian-batch": "143f9dc746fb7ee7",
    "hopf-stackel/jacobian-point": "20fcd1520efb1e29",
    "hopf/condition_d1": "10e8f38719612223",
    "hopf/nijenhuis": "77fe8495f1efccce",
    "killing-form:q=1/jacobian-batch": "a5aaa1c9b5056051",
    "killing-form:q=1/jacobian-point": "dd6a161e4b930147",
    "killing-form:q=2/jacobian-batch": "e7614916e009d49b",
    "killing-form:q=2/jacobian-point": "1456ed2b5ab92aee",
    "metric/jacobian-batch": "4a62c8e7a4c34376",
    "product-ckt/jacobian-batch": "3aa9077d4a0240cb",
    "product-ckt/jacobian-point": "08a987b3f311d79a",
    "sasakian-stackel/jacobian-batch": "584f1a5fa1ff2b14",
    "sasakian-stackel/jacobian-point": "da635d6b01171aba",
    "special-flat-hat/jacobian-batch": "bd3e831f9ba308dd",
    "special-flat-hat/jacobian-point": "b30ddbd9acc3bd29",
    "special-flat/jacobian-batch": "df5688cdd680f440",
    "special-flat/jacobian-point": "d59019c2cc3eb2cd",
    "sphere-curvature-weyl/jacobian-batch": "958d1806d88bf179",
    "sphere-curvature-weyl/jacobian-point": "86cee5a94b43f57d",
    "sphere-curvature/jacobian-batch": "fcc039dbc9c99e29",
    "sphere-curvature/jacobian-point": "f50baec870d74258",
    "sym-product-hopf/jacobian-batch": "7ebfc9741f373316",
    "sym-product-hopf/jacobian-point": "085b28d6ee2c7f19",
    "sym-product/jacobian-batch": "7d539a9f98e68c7e",
    "sym-product/jacobian-point": "7902b9200896002b",
"metric/jacobian-point": "f1dada8606c7e464",
}


def raw_digests():
    """The current value of every entry of ``RAW_GOLDEN``."""
    out = {}
    bases = {}
    for i, key in enumerate(constructor_catalog()):
        field = build_constructor(key, seed=5)[0]
        base = field.base
        bases[base.key] = base
        rng = np.random.default_rng([2031, i])
        points = [list(base.sample_point(rng)) for _ in range(4)]

        def comps_and_frame(y, field=field):
            return [*field.comps_fn(y), *field.base.frame(y).ravel()]

        out[f"{key}/jacobian-point"] = _digest(*jacobian(comps_and_frame, points[0]))
        out[f"{key}/jacobian-batch"] = _digest(*jacobian(comps_and_frame, points[1:]))
    for j, (name, base) in enumerate(sorted(bases.items())):
        rng = np.random.default_rng([2032, j])
        points = [list(base.sample_point(rng)) for _ in range(3)]
        out[f"gamma_frame/{name}"] = _digest(gamma_frame(base, points))
    sphere = manifold_from_key("sphere:3")
    split = hopf_split(sphere)
    field = build_constructor("hopf-stackel", seed=5)[0]
    rng = np.random.default_rng(2033)
    points = [list(sphere.sample_point(rng)) for _ in range(3)]
    out["hopf/nijenhuis"] = _digest(nijenhuis(field, points))
    out["hopf/condition_d1"] = _digest(condition_d1_residual(split, points))
    return out


@pytest.fixture(scope="module")
def current_raw():
    return raw_digests()


@pytest.mark.parametrize("name", sorted(RAW_GOLDEN))
def test_raw_first_order_bits_are_pinned(current_raw, name):
    assert current_raw[name] == RAW_GOLDEN[name]


def test_raw_golden_covers_every_digest(current_raw):
    assert sorted(current_raw) == sorted(RAW_GOLDEN)


if __name__ == "__main__":
    for name, value in digests().items():
        print(f'    "{name}": "{value}",')
    print()
    for name, value in raw_digests().items():
        print(f'    "{name}": "{value}",')
