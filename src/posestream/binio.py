"""Bounds-checked field reads for the package's little-endian binary files.

Each read names its field, so a short file fails with the file name and the
field where it ends, not with a numpy or struct error.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np


class BinaryReader:
    """Sequential field reads from one open file.

    Every field is checked against the file size (from ``fstat``) before it
    is read, and an array field is read straight into its own buffer, so
    the file's bytes are held once, in the arrays the caller keeps. Use it
    as a context manager: the file is closed on every path out."""

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self.handle = open(path, "rb")
        self.size = os.fstat(self.handle.fileno()).st_size
        self.pos = 0

    def __enter__(self) -> "BinaryReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.handle.close()

    def fail(self, message: str) -> ValueError:
        return ValueError(f"{self.path}: {message}")

    def _check(self, size: int, field: str) -> None:
        if self.pos + size > self.size:
            raise self.fail(f"truncated in {field} ({size} bytes needed at offset {self.pos}, "
                            f"file has {self.size})")

    def _read_into(self, buffer: np.ndarray | bytearray, field: str) -> None:
        if self.handle.readinto(buffer) != len(buffer):
            raise self.fail(f"truncated in {field} (the file shrank while it was read)")
        self.pos += len(buffer)

    def take(self, size: int, field: str) -> bytes:
        self._check(size, field)
        buffer = bytearray(size)
        self._read_into(buffer, field)
        return bytes(buffer)

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), field))

    def array(self, dtype: str, count: int, field: str) -> np.ndarray:
        self._check(np.dtype(dtype).itemsize * count, field)
        values = np.empty(count, dtype=dtype)
        self._read_into(values.view(np.uint8), field)
        return values

    def text(self, length_fmt: str, field: str) -> str:
        (length,) = self.unpack(length_fmt, f"{field} length")
        try:
            return self.take(length, field).decode("utf-8")
        except UnicodeDecodeError:
            raise self.fail(f"{field} is not valid UTF-8") from None

    def finish(self) -> None:
        """Reject bytes left after the last field."""
        if self.pos != self.size:
            raise self.fail(f"{self.size - self.pos} trailing bytes after the last field")
