"""Canonical JSON emission: fixed 6-decimal floats, insertion-ordered keys.

Every file this package writes goes through :func:`dumps` so that identical
in-memory data always produces identical bytes.
"""

from __future__ import annotations

from json.encoder import encode_basestring

import numpy as np

__all__ = ["dumps", "format_float", "without_negative_zero"]


def format_float(v: float) -> str:
    """Render a float with exactly six fractional digits, without negative zero."""
    s = f"{float(v):.6f}"
    return "0.000000" if s == "-0.000000" else s


def without_negative_zero(text: str) -> str:
    """``text`` with every -0.000000 written 0.000000, as :func:`format_float` writes it.

    ``text`` holds only numbers, each printed with six fractional digits or
    as an integer, and the brackets and commas between them. There
    -0.000000 is only ever a whole number: six digits, then ',', ']' or the end.
    """
    return text.replace("-0.000000", "0.000000")


def _flat_numbers(seq):
    """``seq`` as one JSON array when it holds only Python floats and ints, else None.

    Same text as :func:`format_float` and ``str`` per element; the exact type
    tests leave bools, numpy scalars and everything else to :func:`_emit`.
    """
    parts = []
    for v in seq:
        t = type(v)
        if t is float:
            parts.append(f"{v:.6f}")
        elif t is int:
            parts.append(f"{v}")
        else:
            return None
    return f"[{without_negative_zero(','.join(parts))}]"


def _emit(obj, out: list) -> None:
    if isinstance(obj, np.ndarray) and obj.ndim >= 1 and obj.dtype.kind in "fiu":
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        flat = _flat_numbers(obj)
        if flat is not None:
            out.append(flat)
            return
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray) and obj.ndim >= 1):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k).__name__}")
            out.append(encode_basestring(k))
            out.append(":")
            _emit(v, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list = []
    _emit(obj, out)
    return "".join(out)
