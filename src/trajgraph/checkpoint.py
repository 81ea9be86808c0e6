"""Binary checkpoint format with bit-exact round-tripping.

Layout (all integers little-endian u32, floats little-endian float64):

    magic "HMRA" | format version | records...
    record: key length | key bytes (utf-8) | rank | dims[rank] | values

Record order follows the mapping's iteration order, so writing the same
state twice produces byte-identical files.

Checkpoints, datasets and result tables are written through `atomic_open`,
so a crash never leaves a cut file in place of a complete one.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"HMRA"
VERSION = 1


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **open_kw):
    """Write `path` all at once or not at all.

    Yields a temporary file in the same directory (opened as
    `open(path, mode, **open_kw)` would open `path`, so with the same
    permissions); when the block ends without an exception it is flushed,
    synced to disk and renamed over `path`. Otherwise it is deleted and
    `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kw) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    with atomic_open(path, "wb") as f:
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
    """Read a checkpoint; an unreadable path or any malformed or truncated
    content is a DataError."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"{path}: cannot read checkpoint: {e.strerror}") from e
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
        try:   # an empty record may still name a shape numpy cannot hold
            out[key] = arr.reshape(dims).astype(np.float64, copy=True)
        except ValueError as e:
            raise DataError(f"{path}: record {key!r} has unusable dims {dims}") from e
    if not out:
        raise DataError(f"{path}: checkpoint holds no records")
    return out
