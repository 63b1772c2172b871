"""Framed binary records, the one file format of checkpoints and embeddings.

A file is an 8-byte magic, a u32 version and a u32 section count. A section,
like a PNG chunk (RFC 2083), is a u32 name length, the UTF-8 name, a u8 dtype
tag, a u32 rank, u32 dimensions, the payload and a CRC32 of all of these,
each little-endian."""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .errors import IntegrityError

_DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("u1"), np.dtype("<u4"))


class Reader:
    """Reads ``fh`` (``what`` in errors), checking lengths against the end."""

    def __init__(self, fh, what: str):
        self.fh, self.what = fh, what
        self.size = os.fstat(fh.fileno()).st_size

    def need(self, count: int, field: str) -> None:
        left = self.size - self.fh.tell()
        if count > left:
            raise IntegrityError(f"{self.what} truncated: {field} needs more "
                                 f"than the {left} bytes left", offset=self.fh.tell())

    def read(self, count: int, field: str) -> bytes:
        self.need(count, field)
        return self.fh.read(count)

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), field))

    def end(self) -> None:
        if self.fh.tell() != self.size:
            raise IntegrityError(f"{self.what} has bytes after its last tensor",
                                 offset=self.fh.tell())


def write(path: str, magic: bytes, version: int,
          sections: list[tuple[str, np.ndarray]]) -> None:
    """Write the named arrays as one file, atomically and durably: through a
    temp file of this call's own, fsynced, renamed over ``path`` and the
    rename fsynced, or removed if writing fails."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(magic + struct.pack("<II", version, len(sections)))
            for name, array in sections:
                array = np.ascontiguousarray(array, array.dtype.newbyteorder("<"))
                encoded = name.encode("utf-8")
                head = struct.pack(f"<I{len(encoded)}sBI{array.ndim}I", len(encoded),
                                   encoded, _DTYPES.index(array.dtype), array.ndim,
                                   *array.shape)
                fh.write(head)
                fh.write(array)
                fh.write(struct.pack("<I", zlib.crc32(array, zlib.crc32(head))))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read(path: str, magic: bytes, version: int, what: str) -> dict[str, tuple]:
    """Each section of the file at ``path`` as name: (array, file offset of
    its payload); ``IntegrityError`` for anything that does not fit."""
    with open(path, "rb") as fh:
        reader = Reader(fh, what)
        if fh.read(len(magic)) != magic:
            raise IntegrityError(f"bad {what} magic", offset=0)
        found, count = reader.unpack("<II", "version and section count")
        if found != version:
            raise IntegrityError(f"unsupported {what} version {found}", offset=8)
        # a section holds at least its name length, dtype tag, rank and CRC
        reader.need(13 * count, f"{count} sections")
        sections = {}
        for _ in range(count):
            head = reader.read(4, "section name length")
            name = reader.read(struct.unpack("<I", head)[0], "section name")
            kind = reader.read(5, "section dtype and rank")
            tag, rank = struct.unpack("<BI", kind)
            if tag >= len(_DTYPES):
                raise IntegrityError(f"unknown dtype tag {tag}", offset=fh.tell())
            dims = reader.read(4 * rank, "section shape")
            offset, shape = fh.tell(), struct.unpack(f"<{rank}I", dims)
            reader.need(math.prod(shape) * _DTYPES[tag].itemsize, "section payload")
            try:  # numpy refuses a zero dimension beside ones too large
                array = np.empty(shape, _DTYPES[tag])
            except ValueError:
                raise IntegrityError(f"section shape {shape} is too large", offset) from None
            fh.readinto(array.reshape(-1).view(np.uint8))
            crc = zlib.crc32(array, zlib.crc32(head + name + kind + dims))
            if reader.unpack("<I", "section CRC") != (crc,):
                raise IntegrityError(f"{what} section fails its CRC",
                                     offset=fh.tell() - 4)
            sections[name.decode("utf-8", errors="replace")] = array, offset
        if len(sections) != count:
            raise IntegrityError(f"{what} repeats a section name")
        reader.end()
    return sections
