"""Binary checkpoint format with bit-exact round-tripping.

Layout (all integers little-endian u32, floats little-endian float64):

    magic "HMRA" | format version | records...
    record: key length | key bytes (utf-8) | rank | dims[rank] | values

Record order follows the mapping's iteration order, so writing the same
state twice produces byte-identical files.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"HMRA"
VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for key, value in arrays.items():
            arr = np.ascontiguousarray(value, dtype="<f8")
            key_bytes = key.encode("utf-8")
            f.write(struct.pack("<I", len(key_bytes)))
            f.write(key_bytes)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; any malformed or truncated content is a DataError."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    pos = 4
    n = len(raw)

    def take(size: int) -> int:
        nonlocal pos
        if pos + size > n:
            raise DataError(f"{path}: truncated at byte {n}; a record needs "
                            f"{pos + size} bytes")
        start, pos = pos, pos + size
        return start

    def u32s(count: int) -> tuple:
        return struct.unpack_from(f"<{count}I", raw, take(4 * count))

    (version,) = u32s(1)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    while pos < n:
        (key_len,) = u32s(1)
        start = take(key_len)
        try:
            key = raw[start:pos].decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: record key at byte {start} is not utf-8") from e
        (rank,) = u32s(1)
        dims = u32s(rank)
        count = math.prod(dims)
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=take(8 * count))
        out[key] = arr.reshape(dims).astype(np.float64, copy=True)
    if not out:
        raise DataError(f"{path}: checkpoint holds no records")
    return out
