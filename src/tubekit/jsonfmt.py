"""Canonical JSON emission: fixed 6-decimal floats, insertion-ordered keys.

Every file this package writes holds the text :func:`dumps` gives, so that
identical in-memory data always produces identical bytes. The NDJSON writers
get their numbers' text from :func:`_number_rows`, one array pass per field,
which rewrites through :func:`dumps` each row holding a number it cannot
write exactly; no writer has a second way to write a line.
"""

from __future__ import annotations

from json.encoder import encode_basestring

import numpy as np

__all__ = ["dumps", "format_float"]


def format_float(v: float) -> str:
    """Render a float with exactly six fractional digits, without negative zero."""
    s = f"{float(v):.6f}"
    return "0.000000" if s == "-0.000000" else s


def _emit(obj, out: list) -> None:
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


# ---------------------------------------------------------------------------
# the writers' number kernel

_BLOCK_ROWS = 2**12  # rows per array pass, which bounds the pass's temporaries
_LIMIT = 2**32  # digits come from uint32 integer parts, so values stay below it
# For |v| < 2**32, f = |v| - floor(|v|) is exact, and p = f * 1e6 is one
# rounded product of f and the exact 1e6 < 2**20, so |p - f * 10**6| <=
# 10**6 * 2**-53 < 2**-33. rint(p), which rounds ties to even, then rounds
# f * 10**6 as '%.6f' does (correctly, ties to even), unless f * 10**6 lies
# within 2**-33 of a half-integer. Every p within _TIE of one is flagged,
# exact ties included, and its row goes to dumps.
_TIE = 2.0**-30
# The codes a row is written in: a digit is its own value, then the point,
# the sign, the comma and the brackets; _PAD marks a code that writes nothing.
_POINT, _MINUS, _COMMA, _OPEN, _CLOSE, _PAD = range(10, 16)
_ASCII = bytes.maketrans(bytes(range(15)), b"0123456789.-,[]")


def _field_codes(values):
    """``(codes, sizes, flagged)`` for a column (n,) or block (n, k) of numbers.

    Each number gets a field of ``codes`` (see _ASCII) along a new last axis:
    a comma, then its text padded on the left, fixed-point with six decimals
    for floats and plain for integers. ``sizes`` counts the characters a
    field writes. ``flagged`` marks floats that are not finite, whose
    magnitude is 2**32 - 1 or more or whose sixth decimal lies near a
    rounding tie, and integers outside [0, 2**32); their fields hold other
    numbers, and :func:`_number_rows` rewrites their rows.
    """
    if values.dtype.kind == "f":
        mag = np.abs(values)
        flagged = ~(mag < _LIMIT - 1)  # NaN too; so a carry leaves whole < 2**32
        mag[flagged] = 0.0
        whole = np.floor(mag)
        p = np.subtract(mag, whole, out=mag)
        p *= 1e6
        frac = np.rint(p)
        np.subtract(p, frac, out=p)
        flagged |= np.abs(p, out=p) > 0.5 - _TIE
        carry = frac == 1e6
        whole += carry
        frac[carry] = 0.0
        neg = np.signbit(values) & (whole + frac > 0)  # no sign on a value that rounds to 0
        parts = (frac.astype(np.uint32), whole.astype(np.uint32))
        tail = 7  # the point and six decimals
    else:
        flagged = (values < 0) | (values >= _LIMIT)
        parts = (np.where(flagged, 0, values).astype(np.uint32),)
        neg = np.zeros(values.shape, bool)
        tail = 0
    digits = len(str(parts[-1].max(initial=0)))  # of the longest integer part
    codes = np.full(values.shape + (2 + digits + tail,), _PAD, np.uint8)
    codes[..., 0] = _COMMA
    np.copyto(codes[..., 1], _MINUS, where=neg)
    sizes = neg + (2 + tail)  # the comma, the sign, the units digit and the tail
    pos = codes.shape[-1]
    q, r = np.empty_like(parts[0]), np.empty_like(parts[0])  # scratch
    for x in parts:  # the decimals, if any, then the integer part
        integer = x is parts[-1]
        for i in range(digits if integer else 6):  # x is what is left to write
            pos -= 1
            np.floor_divide(x, 10, out=q)
            np.multiply(q, 10, out=r)
            np.subtract(x, r, out=r)
            if not integer or i == 0:
                codes[..., pos] = r
            else:  # a leading zero stays padding
                np.copyto(codes[..., pos], r, casting="unsafe", where=x > 0)
                sizes += x > 0
            x, q = q, x
        if not integer:
            pos -= 1
            codes[..., pos] = _POINT
    return codes, sizes, flagged


def _number_rows(*columns):
    """The text of rows of numbers, computed in whole-array passes.

    Row i holds row i of each of ``columns``, in order: an (n, k) float64
    block, or an (n,) float64 or int64 column. Returns ``(text, ends)``:
    ``text`` is every row, each written ``,[a,b,...]`` (or ``,a`` when the
    only column is one-dimensional), as :func:`dumps` writes its numbers,
    floats through :func:`format_float` and integers through ``str``;
    ``ends`` is the (n + 1,) offsets in ``text`` where each row ends, after
    a 0. A row that holds a number the pass flags (see _field_codes) is
    rewritten by :func:`dumps`, so every row is exact.
    """
    n = len(columns[0])
    flat = len(columns) == 1 and columns[0].ndim == 1
    texts, ends = [], [np.zeros(1, np.int64)]
    for lo in range(0, n, _BLOCK_ROWS):
        block = [column[lo:lo + _BLOCK_ROWS] for column in columns]
        fields = [_field_codes(column) for column in block]
        rows = len(block[0])
        codes = [codes.reshape(rows, -1) for codes, _, _ in fields]
        sizes = sum(sizes.reshape(rows, -1).sum(axis=1) for _, sizes, _ in fields)
        if not flat:  # a comma, then the bracketed numbers
            codes = [np.full((rows, 1), _COMMA, np.uint8), *codes,
                     np.full((rows, 1), _CLOSE, np.uint8)]
            sizes += 2
        codes = np.concatenate(codes, axis=1)
        if not flat:
            codes[:, 1] = _OPEN  # the first number's comma
        text = codes.tobytes().translate(_ASCII, bytes((_PAD,))).decode("ascii")
        flagged = np.flatnonzero(sum(bad.reshape(rows, -1).any(axis=1) for _, _, bad in fields))
        if len(flagged):  # rewrite each flagged row through dumps, and its size
            stops, parts, last = np.cumsum(sizes).tolist(), [], 0
            picked = zip(*(column[flagged].reshape(len(flagged), -1).tolist() for column in block))
            for i, pieces in zip(flagged.tolist(), picked):  # a row's numbers, column by column
                numbers = [v for piece in pieces for v in piece]
                row = "," + dumps(numbers[0] if flat else numbers)
                parts += [text[last:stops[i] - sizes[i]], row]
                sizes[i], last = len(row), stops[i]
            text = "".join([*parts, text[last:]])
        texts.append(text)
        ends.append(np.cumsum(sizes) + ends[-1][-1])
    return "".join(texts), np.concatenate(ends)
