"""Tensor literal file format and deterministic report serialization.

Tensor literals are JSON documents::

    {"dim": n, "degree": p,
     "entries": [{"index": [i1, ..., ip], "value": v}, ...]}

with 1-based, non-decreasing index tuples of integers and numbers (or
strings that ``float`` reads) as values; omitted indices are zero.
Anything else raises ConfigError.  ``tensor_from_dict`` decodes NaN and
infinite values, so a caller can build a non-finite field on purpose (the
benchmark's fail-closed check does); ``load_tensor``, which reads the
literal files given on the command line, rejects them.  Round-trips are
bit-exact for finite floats (shortest-repr JSON floats).
"""

import json
import math

from .errors import ConfigError
from .multiindex import index_position, multi_indices
from .symtensor import SymTensor

__all__ = ["tensor_to_dict", "tensor_from_dict", "dump_tensor", "load_tensor",
           "dumps_report"]


def tensor_to_dict(K):
    entries = []
    vals = K.comps
    for k, I in enumerate(multi_indices(K.dim, K.degree)):
        v = float(vals[k])
        if v != 0.0:
            entries.append({"index": [i + 1 for i in I], "value": v})
    return {"dim": K.dim, "degree": K.degree, "entries": entries}


def _number(value, what):
    if not isinstance(value, bool):
        try:
            return float(value)
        except (OverflowError, TypeError, ValueError):
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def tensor_from_dict(doc):
    try:
        n = int(doc["dim"])
        p = int(doc["degree"])
        entries = doc.get("entries", [])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed tensor literal: {exc}") from exc
    if n < 1 or p < 0:
        raise ConfigError("tensor literal needs dim >= 1 and degree >= 0")
    if not isinstance(entries, list):
        raise ConfigError(f"tensor literal entries must be a list, got {entries!r}")
    pos = index_position(n, p)
    comps = [0.0] * len(pos)
    for e in entries:
        if not isinstance(e, dict) or "index" not in e or "value" not in e:
            raise ConfigError(f"tensor literal entry {e!r} needs an index and a value")
        index = e["index"]
        if not isinstance(index, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in index
        ):
            raise ConfigError(f"index {index!r} must be a list of integers")
        value = _number(e["value"], f"value at index {index}")
        idx = tuple(i - 1 for i in index)
        if len(idx) != p:
            raise ConfigError(f"index {index} has wrong length")
        if list(idx) != sorted(idx):
            raise ConfigError(f"index {index} is not sorted")
        if any(i < 0 or i >= n for i in idx):
            raise ConfigError(f"index {index} out of range for dim {n}")
        comps[pos[idx]] = value
    return SymTensor(n, p, comps)


def dump_tensor(K, path):
    with open(path, "w") as fh:
        json.dump(tensor_to_dict(K), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_tensor(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"tensor literal {path} is not JSON: {exc}") from exc
    K = tensor_from_dict(doc)
    for I, v in zip(multi_indices(K.dim, K.degree), K.comps):
        if not math.isfinite(v):
            raise ConfigError(f"{path}: value at index {[i + 1 for i in I]} is not finite")
    return K


def dumps_report(doc):
    """Canonical JSON bytes for a report: sorted keys, fixed separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
