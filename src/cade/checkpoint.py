"""Flat binary checkpoint format for named parameter tensors.

Layout (all integers little-endian):

    magic   6 bytes  b"CADEW1"
    count   uint32   number of tensors
    table   per tensor: uint16 name length, utf-8 name,
                        uint8 ndim, uint32 per dimension
    data    per tensor, table order: raw little-endian float64

Round-trips are bit-exact; loaders reject unknown magic or truncated files.
Every run artifact that a later run trusts (checkpoints, the manifest, the
dynamics-study cache) is written through ``write_atomic``; a run's
``metrics.csv`` is trusted once ``ckpt-final.npz``, written after it, exists.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

MAGIC = b"CADEW1"


class CheckpointError(RuntimeError):
    pass


def write_atomic(path, data: bytes | str | Iterable) -> None:
    """Replace ``path`` with ``data`` in one step.

    ``data`` is bytes, a str (UTF-8 encoded) or an iterable of bytes-like
    chunks, each passed to one ``write`` as it comes, so a caller need not
    join them into one copy.  The bytes go to a temporary file beside the
    target, which is then renamed over it, so a reader finds the old file or
    the new one, never a partial write.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in data:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _param_chunks(params: dict[str, np.ndarray]):
    """The checkpoint of ``params`` chunk by chunk: the header's pieces, then
    each array's float64 buffer, a view of the array itself when it is
    already C-ordered little-endian float64."""
    yield MAGIC
    yield struct.pack("<I", len(params))
    for name, arr in params.items():
        raw = name.encode("utf-8")
        shape = np.shape(arr)
        yield struct.pack("<H", len(raw))
        yield raw
        yield struct.pack("<B", len(shape))
        yield struct.pack(f"<{len(shape)}I", *shape)
    for arr in params.values():
        yield np.ascontiguousarray(arr, dtype="<f8").reshape(-1).view(np.uint8)


def save_params(path: str, params: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays; insertion order of ``params`` is preserved.
    The chunks stream to the file, so no copy of the whole checkpoint is
    formed."""
    write_atomic(path, _param_chunks(params))


def load_params(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:6] != MAGIC:
        raise CheckpointError(f"bad magic in {path!r}: {blob[:6]!r}")
    off = 6
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        shapes = []
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            dims = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            shapes.append((name, dims))
        params = {}
        for name, dims in shapes:
            n = int(np.prod(dims, dtype=np.int64)) if dims else 1
            end = off + 8 * n
            if end > len(blob):
                raise CheckpointError(f"truncated data for tensor {name!r}")
            params[name] = np.frombuffer(blob[off:end], dtype="<f8").reshape(dims).copy()
            off = end
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint {path!r}") from exc
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes in {path!r}")
    return params
