"""Tensor literal format: round-trips and validation."""

import json
import math

import numpy as np
import pytest

from symkt.errors import ConfigError
from symkt.io import dump_tensor, dumps_report, load_tensor, tensor_from_dict, tensor_to_dict
from symkt.suites import SuiteCase, SuiteReport
from symkt.symtensor import SymTensor, random_sym_tensor


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    for n, p in ((2, 1), (3, 2), (4, 3), (3, 0)):
        K = random_sym_tensor(n, p, rng)
        path = tmp_path / f"t{n}{p}.json"
        dump_tensor(K, path)
        back = load_tensor(path)
        assert back.dim == n and back.degree == p
        assert all(a == b for a, b in zip(back.comps, K.comps))  # bit-exact


def test_extreme_floats_roundtrip(tmp_path):
    vals = [5e-324, -1.7976931348623157e308, 3.141592653589793, 0.1 + 0.2]
    K = SymTensor(4, 1, vals)
    path = tmp_path / "x.json"
    dump_tensor(K, path)
    back = load_tensor(path)
    assert all(a == b for a, b in zip(back.comps, vals))


def test_omitted_entries_are_zero():
    doc = {"dim": 3, "degree": 2, "entries": [{"index": [1, 2], "value": 2.5}]}
    K = tensor_from_dict(doc)
    assert K[0, 1] == 2.5 and K[1, 0] == 2.5
    assert K[0, 0] == 0.0 and K[2, 2] == 0.0


def test_one_based_sorted_indices_enforced():
    with pytest.raises(ConfigError):
        tensor_from_dict({"dim": 2, "degree": 2,
                          "entries": [{"index": [2, 1], "value": 1.0}]})
    with pytest.raises(ConfigError):
        tensor_from_dict({"dim": 2, "degree": 2,
                          "entries": [{"index": [0, 1], "value": 1.0}]})
    with pytest.raises(ConfigError):
        tensor_from_dict({"dim": 2, "degree": 2,
                          "entries": [{"index": [1], "value": 1.0}]})
    with pytest.raises(ConfigError):
        tensor_from_dict({"dim": 2, "degree": -1, "entries": []})


def test_an_index_listed_twice_is_rejected():
    # the later value does not silently win
    doc = {"dim": 2, "degree": 2, "entries": [{"index": [1, 1], "value": 1.0},
                                              {"index": [1, 2], "value": 3.0},
                                              {"index": [1, 1], "value": 2.0}]}
    with pytest.raises(ConfigError, match=r"index \[1, 1\] is listed twice"):
        tensor_from_dict(doc)
    doc = {"dim": 2, "degree": 0, "entries": [{"index": [], "value": 1.0}] * 2}
    with pytest.raises(ConfigError, match=r"index \[\] is listed twice"):
        tensor_from_dict(doc)


@pytest.mark.parametrize("field", ["dim", "degree"])
@pytest.mark.parametrize("value", [2.9, 2.0, "3", True, False, None, [2]])
def test_dim_and_degree_must_be_integers(field, value):
    doc = {"dim": 3, "degree": 2, "entries": []}
    doc[field] = value
    with pytest.raises(ConfigError, match="must be integers"):
        tensor_from_dict(doc)


def test_non_finite_values_decode_but_files_reject_them(tmp_path):
    doc = {"dim": 3, "degree": 2, "entries": [{"index": [1, 1], "value": "nan"}]}
    assert np.isnan(tensor_from_dict(doc)[0, 0])
    path = tmp_path / "K.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"index \[1, 1\] is not finite"):
        load_tensor(path)
    with pytest.raises(ConfigError, match="must be a number"):
        tensor_from_dict({"dim": 3, "degree": 2,
                          "entries": [{"index": [1, 1], "value": "abc"}]})


def test_zero_entries_omitted_on_write():
    K = SymTensor(3, 2, [1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    doc = tensor_to_dict(K)
    assert len(doc["entries"]) == 2
    assert doc["entries"][0]["index"] == [1, 1]


def test_canonical_report_bytes():
    doc = {"b": 1.5, "a": [1, 2], "c": {"y": True, "x": None}}
    s1 = dumps_report(doc)
    s2 = dumps_report(json.loads(s1))
    assert s1 == s2
    assert s1.startswith('{"a":[1,2]')


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_report_with_nan_case_is_strict_json():
    # cases built directly: the report's own reduction reads NaN for any
    # non-finite sample, and these values are what serialization must carry
    report = SuiteReport("demo", 42, 1e-10, [
        SuiteCase("finite", 1e-12, 1e-10),
        SuiteCase("fail-closed", math.nan, 1e-10),
        SuiteCase("blown-up", math.inf, 1e-10),
        SuiteCase("floor", -math.inf, 1e-3, kind="floor"),
    ])
    text = dumps_report(report.to_dict())
    doc = json.loads(text, parse_constant=_reject_constant)
    values = [case["max_residual"] for case in doc["cases"]]
    assert values == [1e-12, "NaN", "Infinity", "-Infinity"]
    assert doc["pass"] is False
    # finite reports keep their bytes
    finite = SuiteReport("demo", 42, 1e-10)
    finite.samples("finite", [1e-12], 1e-10)
    assert dumps_report(finite.to_dict()) == json.dumps(
        finite.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
