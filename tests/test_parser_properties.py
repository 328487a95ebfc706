"""Property tests for the input parsers: tensor literals and manifold keys."""

import json

import numpy as np
import pytest

from symkt.errors import ConfigError
from symkt.io import tensor_from_dict, tensor_to_dict
from symkt.manifolds import ConformalRescale, manifold_from_key
from symkt.multiindex import sym_size
from symkt.suites import _parse_range
from symkt.symtensor import SymTensor

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tensors(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    size = sym_size(n, p)
    return SymTensor(n, p, draw(st.lists(FINITE, min_size=size, max_size=size)))


@settings(max_examples=100, deadline=None)
@given(tensors())
def test_tensor_literal_round_trips_bit_for_bit(K):
    doc = tensor_to_dict(K)
    for back in (tensor_from_dict(doc), tensor_from_dict(json.loads(json.dumps(doc)))):
        assert (back.dim, back.degree) == (K.dim, K.degree)
        assert back.comps.tobytes() == K.comps.tobytes()


LEAVES = st.builds("{}:{}".format,
                   st.sampled_from(["euclidean", "sphere", "stereographic",
                                    "hyperbolic", "torus"]),
                   st.integers(2, 3))


def _factor(key):
    return f"({key})" if "," in key else key


def _nest(children):
    return st.one_of(
        st.builds(lambda a, b: f"product:{_factor(a)},{_factor(b)}", children, children),
        st.builds(lambda a: f"conformal:bump:{a}", children),
    )


KEYS = st.recursive(LEAVES, _nest, max_leaves=4)


def _leaf_dims(key):
    return sum(int(tok.split(":")[-1]) for tok in
               key.replace("(", ",").replace(")", ",").split(",")
               if tok and tok.split(":")[-1].isdigit())


@settings(max_examples=60, deadline=None)
@given(KEYS)
def test_manifold_keys_round_trip(key):
    base = manifold_from_key(key)
    assert base.key == key
    assert base.dim == _leaf_dims(key)
    again = manifold_from_key(base.key)
    assert (again.key, again.dim, again.coord_dim) == (key, base.dim, base.coord_dim)


MUTATION_CHARS = st.sampled_from(list("abcdefghijklmnopqrstuvwxyz0123456789:,() -+._"))


@st.composite
def mutated_keys(draw):
    key = draw(KEYS)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(key)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        ch = draw(MUTATION_CHARS)
        if op == "insert":
            key = key[:k] + ch + key[k:]
        elif op == "delete":
            key = key[:k] + key[k + 1:]
        else:
            key = key[:k] + ch + key[k + 1:]
    return key


@settings(max_examples=200, deadline=None)
@given(st.one_of(mutated_keys(), st.text(max_size=40)))
def test_malformed_keys_raise_config_error_only(key):
    try:
        base = manifold_from_key(key)
    except ConfigError:
        return
    # a mutation that still parses is a well-formed key
    assert manifold_from_key(base.key).dim == base.dim
    assert np.isfinite(base.dim)


@settings(max_examples=200, deadline=None)
@given(st.one_of(mutated_keys(), st.text(max_size=40)))
def test_every_parsed_key_is_canonical(key):
    # one manifold, one key: a conformal wrapper names its base by the
    # base's own key, whatever spelling the input used
    try:
        base = manifold_from_key(key)
    except ConfigError:
        return
    assert manifold_from_key(base.key).key == base.key
    if isinstance(base, ConformalRescale):
        assert base.key == "conformal:bump:" + base.base.key


@pytest.mark.parametrize("dim", ["+3", "0_3", " 3", "03", "\uff13"])
def test_dimension_spellings_other_than_plain_digits_raise(dim):
    for key in (f"sphere:{dim}", f"conformal:bump:sphere:{dim}",
                f"product:sphere:{dim},sphere:2"):
        with pytest.raises(ConfigError):
            manifold_from_key(key)


@pytest.mark.parametrize("spec", ["2..+3", "+2..3", "0_2..3", " 2..3", "2..3 ", "2..3\n",
                                  "\uff12..3", "2..\u0663", "2.. 3", "2...3", "2..", "..3"])
def test_range_spellings_other_than_plain_digits_raise(spec):
    with pytest.raises(ConfigError, match="expected LO..HI"):
        _parse_range(spec)


def test_plain_digit_ranges_and_tuples_parse():
    assert _parse_range("2..5") == range(2, 6)
    assert _parse_range("0..0") == range(0, 1)
    assert _parse_range((3, 3)) == range(3, 4)
