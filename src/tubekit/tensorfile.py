"""Portable named-tensor container (.tkt).

Layout: magic "TKT1", little-endian u32 header length, UTF-8 JSON header
listing [{"name", "shape", "dtype": "f32"}, ...], then each tensor's raw
little-endian float32 data concatenated in header order. Round trips are
bit-exact.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .geometry import _is_integer

__all__ = ["read_tensors", "write_tensors"]

_MAGIC = b"TKT1"


class TensorFileError(ValueError):
    pass


def write_tensors(tensors: dict, path) -> None:
    """Write an ordered {name: array} mapping as float32 tensors."""
    entries = []
    payload = []
    for name, arr in tensors.items():
        if not isinstance(name, str) or not name:
            raise TensorFileError("tensor names must be non-empty strings")
        # asarray keeps a 0-d shape; ascontiguousarray would make it (1,).
        # tobytes() emits C order whatever the layout.
        a = np.asarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(a.shape), "dtype": "f32"})
        payload.append(a.tobytes())
    header = json.dumps(entries, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for chunk in payload:
            fh.write(chunk)


def read_tensors(path) -> dict:
    """Read a .tkt file back into an ordered {name: float32 array} mapping.

    Each tensor's payload is read straight into its own array; its size is
    checked against the file's before anything is allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != _MAGIC:
            raise TensorFileError(f"{path}: not a tensor file (bad magic)")
        if len(head) < 8:
            raise TensorFileError(f"{path}: truncated header")
        (header_len,) = struct.unpack("<I", head[4:8])
        header_end = 8 + header_len
        if size < header_end:
            raise TensorFileError(f"{path}: truncated header")
        try:
            entries = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise TensorFileError(f"{path}: bad header: {exc}") from None
        if not isinstance(entries, list):
            raise TensorFileError(f"{path}: header must be a list")
        out = {}
        offset = header_end
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or set(entry) != {"name", "shape", "dtype"}:
                raise TensorFileError(f"{path}: header entry {i} malformed")
            name = entry["name"]
            shape = entry["shape"]
            if not isinstance(name, str) or not name:
                raise TensorFileError(f"{path}: header entry {i} has a bad name")
            if name in out:
                raise TensorFileError(f"{path}: duplicate tensor name '{name}'")
            if entry["dtype"] != "f32":
                raise TensorFileError(f"{path}: tensor '{name}' has unsupported dtype")
            if not isinstance(shape, list) or any(not _is_integer(d) or d < 0 for d in shape):
                raise TensorFileError(f"{path}: tensor '{name}' has a bad shape")
            count = 1
            for d in shape:
                count *= d
            nbytes = count * 4
            if offset + nbytes > size:
                raise TensorFileError(f"{path}: truncated payload for tensor '{name}'")
            try:
                arr = np.empty(shape, dtype="<f4")
            except ValueError:
                # A zero-size shape with a huge or >64-dim extent passes the size check.
                raise TensorFileError(f"{path}: tensor '{name}' has a bad shape") from None
            if nbytes and fh.readinto(arr) != nbytes:
                raise TensorFileError(f"{path}: truncated payload for tensor '{name}'")
            out[name] = arr
            offset += nbytes
    if offset != size:
        raise TensorFileError(f"{path}: {size - offset} trailing payload bytes")
    return out
