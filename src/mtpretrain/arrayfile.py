"""The one binary layout of the corpus store and the checkpoint.

A file is a 4-byte magic, then ``<IQ`` (version, header length), then a
UTF-8 JSON object whose ``arrays`` entry lists ``{"dtype", "shape"}`` for
each data block, then the blocks themselves: raw little-endian bytes in
manifest order, which fill the file to its last byte. The callers own
their magic, version and the rest of the header; this module owns the
layout, its validation and the atomic write.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

DTYPES = ("<f4", "<u4", "|u1")
_PREFIX = struct.Struct("<IQ")
_START = 4 + _PREFIX.size
_MAX_NDIM = 32


def pack(magic: bytes, version: int, header: dict, arrays) -> bytes:
    """The file bytes for header plus arrays, each of a dtype in DTYPES."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    manifest = [{"dtype": a.dtype.str, "shape": list(a.shape)} for a in arrays]
    blob = json.dumps(dict(header, arrays=manifest),
                      sort_keys=True).encode("utf-8")
    return b"".join([magic, _PREFIX.pack(version, len(blob)), blob]
                    + [a.tobytes() for a in arrays])


def write_atomic(path, data: bytes) -> None:
    """Write data to a temporary file beside path, then rename it over path:
    a write that stops partway leaves the previous file in place. There is
    no fsync, so a process crash is covered and a power loss is not."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read(path, magic: bytes, version: int, error: "type[Exception]"):
    """Read one file: (header, arrays), or error naming the path for any
    short or garbled byte string. The arrays are read-only views of the
    file's bytes, in manifest order."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise error(f"{path}: bad magic {raw[:4]!r}, not a {magic!r} file")
    if len(raw) < _START:
        raise error(f"{path}: truncated header")
    found, header_len = _PREFIX.unpack_from(raw, 4)
    if found != version:
        raise error(f"{path}: unsupported version {found}")
    off = _START + header_len
    if off > len(raw):
        raise error(f"{path}: truncated header")
    try:
        header = json.loads(raw[_START:off].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: corrupt header ({exc!r})") from None
    if not isinstance(header, dict) or not isinstance(header.get("arrays"),
                                                      list):
        raise error(f"{path}: header is not a JSON object with an "
                    f"array manifest")
    arrays = []
    for k, entry in enumerate(header["arrays"]):
        # a dimension larger than the file holds no data unless another
        # is 0, so it is refused before numpy sees it
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and len(shape) <= _MAX_NDIM
                and all(type(d) is int and 0 <= d <= len(raw) for d in shape)
                and entry.get("dtype") in DTYPES):
            raise error(f"{path}: array {k} needs a dtype in {DTYPES} and "
                        f"a shape of non-negative ints, got {entry!r}")
        dtype, count = np.dtype(entry["dtype"]), math.prod(shape)
        if off + count * dtype.itemsize > len(raw):
            raise error(f"{path}: array {k} runs past the end of the file")
        arrays.append(np.frombuffer(raw, dtype=dtype, count=count,
                                    offset=off).reshape(shape))
        off += count * dtype.itemsize
    if off != len(raw):
        raise error(f"{path}: {len(raw) - off} trailing bytes")
    return header, arrays
