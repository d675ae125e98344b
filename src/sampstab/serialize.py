"""JSON helpers: arrays are row-major nested lists, complex entries [re, im].

``dump_json`` streams its document to the file with the exact bytes of
``json.dump(obj, fh, indent=2, sort_keys=True)`` plus a trailing newline.
With an indent, the standard library drops to a pure-Python encoder that
writes one token at a time, and a complex entry is 7 lines; here a matrix row
of [re, im] pairs is formatted as one string and written in one call.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

_INDENT = "  "
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


def dump_json(obj, path) -> None:
    """Write obj as indent-2, key-sorted JSON and a newline, streamed to path."""
    with open(path, "w", encoding="utf-8") as fh:
        _write(fh.write, obj, 0)
        fh.write("\n")


def _scalar(o) -> str:
    """json's token for None, a bool, an int or a float (also a dict key's text).

    Floats are their repr, or NaN / Infinity / -Infinity.
    """
    if type(o) is float and o - o == 0.0:  # the common case first: a finite float
        return float.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (math.inf, -math.inf):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write(write, o, level: int) -> None:
    """Stream o, whose opening token sits at nesting depth level."""
    if isinstance(o, str):
        write(_quote(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            write("[]")
            return
        row = _pair_row(o, level)
        if row is not None:
            write(row)
            return
        inner = "\n" + _INDENT * (level + 1)
        sep = "[" + inner
        for item in o:
            write(sep)
            sep = "," + inner
            _write(write, item, level + 1)
        write("\n" + _INDENT * level + "]")
    elif isinstance(o, dict):
        if not o:
            write("{}")
            return
        inner = "\n" + _INDENT * (level + 1)
        sep = "{" + inner
        for key, value in sorted(o.items()):
            write(sep)
            sep = "," + inner
            write(_quote(key if isinstance(key, str) else _scalar(key)))
            write(": ")
            _write(write, value, level + 1)
        write("\n" + _INDENT * level + "}")
    else:
        write(_scalar(o))


def _pair_row(row, level: int) -> str | None:
    """The text of a list of [float, float] pairs (a matrix row or mode list), else None.

    The floats' reprs are interleaved with the two separators of this depth:
    ",\\n" inside a pair and "\\n],\\n[\\n" between pairs.
    """
    if set(map(type, row)) != {list} or set(map(len, row)) != {2}:
        return None
    flat = list(chain.from_iterable(row))
    if set(map(type, flat)) != {float}:
        return None
    n0 = "\n" + _INDENT * level
    n1 = n0 + _INDENT
    n2 = n1 + _INDENT
    parts = [None] * (2 * len(flat))
    parts[1::2] = ["," + n2, n1 + "]," + n1 + "[" + n2] * len(row)
    parts[-1] = n1 + "]" + n0 + "]"
    parts[0::2] = map(float.__repr__, flat)
    text = "".join(parts)
    if "n" in text:  # nan or inf: only non-finite reprs contain the letter
        parts[0::2] = map(_scalar, flat)
        text = "".join(parts)
    return "[" + n1 + "[" + n2 + text
