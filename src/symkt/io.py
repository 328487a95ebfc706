"""Tensor literal file format and deterministic report serialization.

Tensor literals are JSON documents::

    {"dim": n, "degree": p,
     "entries": [{"index": [i1, ..., ip], "value": v}, ...]}

with an integer ``dim`` and ``degree`` (a JSON integer, not a float, a
string or a boolean; the degree at most ``multiindex.MAX_DEGREE``, and the
dimension the caller's manifold has, checked before any index table is
built), 1-based, non-decreasing index tuples of integers, each listed
at most once, and numbers (or strings that ``float`` reads) as values;
omitted indices are zero.
Anything else raises ConfigError.  ``tensor_from_dict`` decodes NaN and
infinite values, so a caller can build a non-finite field on purpose (the
benchmark's fail-closed check does); ``load_tensor``, which reads the
literal files given on the command line, rejects them.  Round-trips are
bit-exact for finite floats (shortest-repr JSON floats).  ``finite_number``
rejects a non-finite number given to a constructor as a parameter.
"""

import json
import math

from .errors import ConfigError
from .multiindex import MAX_DEGREE, multi_indices, positions, sym_size
from .symtensor import SymTensor

__all__ = ["tensor_to_dict", "tensor_from_dict", "dump_tensor", "load_tensor",
           "finite_number", "dumps_report"]


def tensor_to_dict(K):
    entries = []
    vals = K.comps
    for k, I in enumerate(multi_indices(K.dim, K.degree)):
        v = float(vals[k])
        if v != 0.0 or math.copysign(1.0, v) < 0.0:  # -0.0 is kept, bit-exact
            entries.append({"index": [i + 1 for i in I], "value": v})
    return {"dim": K.dim, "degree": K.degree, "entries": entries}


def _number(value, what):
    if not isinstance(value, bool):
        try:
            return float(value)
        except (OverflowError, TypeError, ValueError):
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def finite_number(value, what):
    """``value``, an int or a float (not a bool), as a finite float; NaN,
    an infinity, an int beyond the float range or a non-number raises."""
    if _is_int(value) or isinstance(value, float):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def tensor_from_dict(doc, dim=None):
    """The SymTensor of a tensor literal; with ``dim``, the literal must
    have that dimension."""
    try:
        n, p = doc["dim"], doc["degree"]
        entries = doc.get("entries", [])
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed tensor literal: {exc}") from exc
    if not (_is_int(n) and _is_int(p)):
        raise ConfigError(f"tensor literal dim and degree must be integers, "
                          f"got {n!r} and {p!r}")
    if n < 1 or p < 0:
        raise ConfigError("tensor literal needs dim >= 1 and degree >= 0")
    if p > MAX_DEGREE:
        raise ConfigError(f"tensor literal degree {p} is above the cap {MAX_DEGREE}")
    if dim is not None and n != dim:
        raise ConfigError(f"field file dimension {n} != manifold dimension {dim}")
    if not isinstance(entries, list):
        raise ConfigError(f"tensor literal entries must be a list, got {entries!r}")
    comps = [0.0] * sym_size(n, p)
    listed = set()
    for e in entries:
        if not isinstance(e, dict) or "index" not in e or "value" not in e:
            raise ConfigError(f"tensor literal entry {e!r} needs an index and a value")
        index = e["index"]
        if not isinstance(index, list) or not all(_is_int(i) for i in index):
            raise ConfigError(f"index {index!r} must be a list of integers")
        value = _number(e["value"], f"value at index {index}")
        idx = tuple(i - 1 for i in index)
        if len(idx) != p:
            raise ConfigError(f"index {index} has wrong length")
        if list(idx) != sorted(idx):
            raise ConfigError(f"index {index} is not sorted")
        if any(i < 0 or i >= n for i in idx):
            raise ConfigError(f"index {index} out of range for dim {n}")
        if idx in listed:
            raise ConfigError(f"index {index} is listed twice")
        listed.add(idx)
        comps[positions([idx.count(v) for v in range(n)])] = value
    return SymTensor(n, p, comps)


def dump_tensor(K, path):
    with open(path, "w") as fh:
        json.dump(tensor_to_dict(K), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_tensor(path, dim=None):
    """The tensor literal file at ``path``, finite, of dimension ``dim``
    when given."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"tensor literal {path} is not JSON: {exc}") from exc
    K = tensor_from_dict(doc, dim)
    for I, v in zip(multi_indices(K.dim, K.degree), K.comps):
        if not math.isfinite(v):
            raise ConfigError(f"{path}: value at index {[i + 1 for i in I]} is not finite")
    return K


def _strict(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def dumps_report(doc):
    """Canonical strict-JSON bytes for a report: sorted keys, fixed
    separators, and NaN/inf (fail-closed cases) as "NaN", "Infinity" and
    "-Infinity" strings."""
    return json.dumps(_strict(doc), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
