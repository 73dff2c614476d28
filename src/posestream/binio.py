"""Bounds-checked field reads for the package's little-endian binary files.

Each read names its field, so a short file fails with the file name and the
field where it ends, not with a numpy or struct error.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np


class BinaryReader:
    """Sequential field reads over the bytes of one file."""

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self.data = Path(path).read_bytes()
        self.pos = 0

    def fail(self, message: str) -> ValueError:
        return ValueError(f"{self.path}: {message}")

    def take(self, size: int, field: str) -> bytes:
        if self.pos + size > len(self.data):
            raise self.fail(f"truncated in {field} ({size} bytes needed at offset {self.pos}, "
                            f"file has {len(self.data)})")
        self.pos += size
        return self.data[self.pos - size:self.pos]

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), field))

    def array(self, dtype: str, count: int, field: str) -> np.ndarray:
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count, field), dtype=dtype)

    def text(self, length_fmt: str, field: str) -> str:
        (length,) = self.unpack(length_fmt, f"{field} length")
        try:
            return self.take(length, field).decode("utf-8")
        except UnicodeDecodeError:
            raise self.fail(f"{field} is not valid UTF-8") from None

    def finish(self) -> None:
        """Reject bytes left after the last field."""
        if self.pos != len(self.data):
            raise self.fail(f"{len(self.data) - self.pos} trailing bytes after the last field")
