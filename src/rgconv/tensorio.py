"""File formats: the RGT1 tensor container and PGM raster export.

RGT1 layout, all integers little-endian:

    magic "RGT1" (4 bytes)
    u32 tensor count
    per tensor:
        u16 name length, then that many ASCII bytes
        u8 dtype code (0 = float64, 1 = float32)
        u8 rank
        rank x u32 dims
        row-major payload (dims product x itemsize bytes)

Round-trips are bit-exact for both dtypes. Parse failures raise Rgt1Error
carrying the byte offset of the offending field.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError, DataError, Rgt1Error, ShapeError

__all__ = ["read_rgt1", "write_rgt1", "write_pgm"]

_MAGIC = b"RGT1"
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_MAX_RANK = 8
_MAX_NAME = 64


def write_rgt1(path, tensors) -> None:
    """Write named arrays to an RGT1 container, atomically.

    ``tensors`` is a dict or an iterable of (name, array) pairs; insertion
    order is preserved in the file. The bytes land under a temporary name
    first and are renamed into place, so a reader never sees a partial file.
    """
    items = list(tensors.items()) if isinstance(tensors, dict) else list(tensors)
    seen = set()
    chunks = [_MAGIC, struct.pack("<I", len(items))]
    for name, arr in items:
        try:
            raw = name.encode("ascii")
        except UnicodeEncodeError:
            raise ConfigError(f"tensor name must be ASCII: {name!r}")
        if not 0 < len(raw) <= _MAX_NAME:
            raise ConfigError(f"tensor name must be 1..{_MAX_NAME} bytes: {name!r}")
        if name in seen:
            raise ConfigError(f"duplicate tensor name: {name!r}")
        seen.add(name)
        a = np.asarray(arr)
        if a.dtype not in _CODES:
            raise ConfigError(f"unsupported dtype {a.dtype} for tensor {name!r}")
        if a.ndim > _MAX_RANK:
            raise ConfigError(f"rank {a.ndim} exceeds {_MAX_RANK} for tensor {name!r}")
        code = _CODES[a.dtype]
        le = a.astype(_DTYPES[code], copy=False)
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<BB", code, a.ndim))
        chunks.append(struct.pack(f"<{a.ndim}I", *a.shape))
        chunks.append(np.ascontiguousarray(le).tobytes())
    blob = b"".join(chunks)

    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise Rgt1Error(f"truncated file while reading {what}", self.pos)
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_rgt1(path) -> dict[str, np.ndarray]:
    """Read an RGT1 container into an ordered {name: array} dict."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    if r.take(4, "magic") != _MAGIC:
        raise Rgt1Error("bad magic, not an RGT1 file", 0)
    (count,) = r.unpack("<I", "tensor count")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        at = r.pos
        (nlen,) = r.unpack("<H", f"name length of tensor {i}")
        if not 0 < nlen <= _MAX_NAME:
            raise Rgt1Error(f"invalid name length {nlen}", at)
        raw = r.take(nlen, f"name of tensor {i}")
        try:
            name = raw.decode("ascii")
        except UnicodeDecodeError:
            raise Rgt1Error("tensor name is not ASCII", at + 2)
        if name in out:
            raise Rgt1Error(f"duplicate tensor name {name!r}", at + 2)
        at = r.pos
        code, rank = r.unpack("<BB", f"dtype/rank of {name!r}")
        if code not in _DTYPES:
            raise Rgt1Error(f"unknown dtype code {code}", at)
        if rank > _MAX_RANK:
            raise Rgt1Error(f"rank {rank} exceeds {_MAX_RANK}", at + 1)
        at = r.pos
        dims = r.unpack(f"<{rank}I", f"dims of {name!r}") if rank else ()
        dt = _DTYPES[code]
        n_items = 1
        for d in dims:
            n_items *= d
        payload = r.take(n_items * dt.itemsize, f"payload of {name!r}")
        out[name] = np.frombuffer(payload, dtype=dt).reshape(dims).copy()
    if r.pos != len(buf):
        raise Rgt1Error(f"{len(buf) - r.pos} trailing bytes after last tensor", r.pos)
    return out


def write_pgm(path, data) -> None:
    """Write a 2D array as an 8-bit binary PGM (P5), min-max normalized.

    A constant input maps to mid-gray 128 by convention.
    """
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"PGM export needs 2D data, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError("raster data contains non-finite values")
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        pix = np.rint((a - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pix = np.full(a.shape, 128, dtype=np.uint8)
    h, w = a.shape
    with open(os.fspath(path), "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
