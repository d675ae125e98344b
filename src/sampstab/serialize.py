"""JSON helpers: arrays are row-major nested lists, complex entries [re, im].

``dump_json`` is ``json.dump(obj, fh, indent=2, sort_keys=True)`` plus a
trailing newline, with every non-finite float written as null (``nulled``):
JSON has no token for inf or NaN.  A report's bulk arrays (kernel, gain,
closed loop) are not JSON: ``save_array`` writes each to a ``.npy`` file in
its own dtype, and the report holds its descriptor.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

# The least integer magnitude that float() rounds past the largest float.
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def matrix_to_json(m: np.ndarray) -> list:
    """Any shape as nested lists of [re, im] pairs: a per-mode vector is one list."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _floats(xs: list) -> np.ndarray:
    """A list of JSON numbers as a float array, in one conversion.

    Booleans, strings and containers are refused by type: numpy would
    convert them silently.
    """
    if not set(map(type, xs)) <= {float, int}:
        bad = next(x for x in xs if type(x) not in (float, int))
        raise ValueError(f"expected a number, got {bad!r}")
    try:
        return np.array(xs, dtype=float)
    except OverflowError:  # an integer beyond the float range
        bad = next(x for x in xs if type(x) is int and abs(x) >= _FLOAT_LIMIT)
        raise ValueError(f"number out of float range: {bad}") from None


def _complexes(entries) -> np.ndarray:
    """Entries, each a plain number or an [re, im] pair, as a complex array."""
    pairs = [e if type(e) is list else (e, 0) for e in entries]
    if not set(map(len, pairs)) <= {2}:
        bad = next(e for e in pairs if len(e) != 2)
        raise ValueError(f"complex entry must be [re, im], got {bad!r}")
    return _floats(list(chain.from_iterable(pairs))).view(complex)


def matrix_from_json(obj) -> np.ndarray:
    """Read a row-major nested list; rows are lists of entries."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix must be a non-empty list of rows")
    values = _complexes(chain.from_iterable(obj))
    if len(set(map(len, obj))) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return values.reshape(len(obj), -1)


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("vector must be a non-empty list")
    return _complexes(obj)


def reals_from_json(obj) -> np.ndarray:
    """A non-empty list of real numbers, such as a mode grid or mask weights."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("vector must be a non-empty list")
    return _floats(obj)


def nulled(obj):
    """obj with each non-finite float, at any depth of dicts and lists, as None (null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: nulled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [nulled(v) for v in obj]
    return obj


def dump_json(obj, path) -> None:
    """Write obj as indent-2, key-sorted JSON and a newline to path; inf and NaN as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(nulled(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def save_array(a: np.ndarray, path: Path) -> dict:
    """Save a to the .npy file path; return its report descriptor.

    The descriptor names the file relative to the report and gives its shape,
    dtype and the SHA-256 of its bytes, read back in blocks so that the file
    is never held whole.
    """
    np.save(path, a, allow_pickle=False)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return {"file": path.name, "shape": list(a.shape), "dtype": str(a.dtype),
            "sha256": digest.hexdigest()}
