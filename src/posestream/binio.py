"""The one container of every binary file the package writes.

Filled corpus, checkpoint and spatial model share one little-endian form::

    magic (4 bytes) | u32 version | u32 header length | header JSON object (UTF-8)
    | arrays, in layout order, C order, nothing between them

A ``FileKind`` names the type of every header field and gives a
``layout(header) -> {name: (dtype, shape)}`` of the arrays that follow, so
the header is the schema. ``write`` and ``open`` own every framing check:
bad magic or version, a header that is not a JSON object or has a field of
the wrong type (a dimension 1.5 or true is no integer), a negative
dimension, truncation and trailing bytes. Every size is checked against the
file's (from ``fstat``) before anything is allocated. The ``OpenFile`` that
``open`` returns reads any row range of an array's leading axis straight
into a buffer the caller keeps, so a caller may hold a file's bytes once,
or one part of them at a time, from any number of threads (each read is a
``preadv`` at the rows' offset); a file that shrinks while it is open fails
that read. ``read`` is ``open``, then every array read whole. Each defect
is a ValueError that names the file; a file kind adds only the checks of
what its values mean.

Every array is written and read in its layout's dtype, in one piece:
``write`` refuses an array of another dtype or shape, and ``read_into`` a
buffer of another dtype or row shape, or rows outside the array; a file
kind whose callers hold another dtype casts at its own boundary.
"""

from __future__ import annotations

import json
import math
import os
import struct
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

PREFIX = struct.Struct("<4sII")  # magic, version, header length

Layout = dict[str, tuple[str, tuple[int, ...]]]
T = TypeVar("T")


def _is(value, kind) -> bool:
    """value is exactly of kind (a bool is no int); list[X] and dict[str, X]
    also type every member."""
    origin, args = typing.get_origin(kind) or kind, typing.get_args(kind)
    if type(value) is not origin:
        return False
    members = (value.values() if origin is dict else value) if args else ()
    return all(type(member) is args[-1] for member in members)


@dataclass(frozen=True)
class FileKind:
    """One binary file kind; ``fields`` maps each header field to its type."""

    name: str
    magic: bytes
    version: int
    fields: dict[str, object]
    layout: Callable[[dict], Layout]

    def _check_header(self, path: str | Path, header: dict) -> None:
        for key, kind in self.fields.items():
            if not _is(header.get(key), kind):
                kind = kind.__name__ if isinstance(kind, type) else kind
                raise ValueError(f"{path}: header field '{key}' must be {kind}")

    def write(self, path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
        """Write header and arrays; a header field of the wrong type, or arrays
        that are not the layout's names, shapes and dtypes, are refused before
        any write, so every file written reads back."""
        self._check_header(path, header)
        layout = self.layout(header)
        if list(arrays) != list(layout):
            raise ValueError(f"{path}: arrays {list(arrays)} are not the layout's {list(layout)}")
        for name, (dtype, shape) in layout.items():
            if arrays[name].shape != shape:
                raise ValueError(f"{path}: array '{name}' has shape {arrays[name].shape}, "
                                 f"the header implies {shape}")
            if arrays[name].dtype != dtype:
                raise ValueError(f"{path}: array '{name}' has dtype {arrays[name].dtype}, "
                                 f"the layout's is {np.dtype(dtype)}")
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(PREFIX.pack(self.magic, self.version, len(raw)))
            handle.write(raw)
            for array in arrays.values():
                # Written in place: a copy of a corpus-sized array would set peak memory.
                handle.write(np.ascontiguousarray(array).data)

    def read(self, path: str | Path, build: Callable[[dict, dict[str, np.ndarray]], T]) -> T:
        """``build(header, arrays)`` of a file of this kind: ``open``, then
        every array read whole; a ValueError or TypeError of the layout or
        the build names the file."""
        with self.open(path) as file:
            arrays = {name: file.read(name) for name in file.layout}
        return file.named(build, file.header, arrays)

    def open(self, path: str | Path) -> OpenFile:
        """The file at path, open for reading, once every framing check has
        passed; the caller closes it (it is a context manager)."""

        def fail(message: str) -> ValueError:
            return ValueError(f"{path}: {message}")

        handle = open(path, "rb")
        try:
            size = os.fstat(handle.fileno()).st_size
            prefix = handle.read(PREFIX.size)
            if prefix[:4] != self.magic[:len(prefix)]:
                raise fail(f"not a {self.name} file (bad magic {prefix[:4]!r})")
            if len(prefix) < PREFIX.size:
                raise fail(f"truncated in the prefix (file has {size} bytes)")
            _, version, length = PREFIX.unpack(prefix)
            if version != self.version:
                raise fail(f"unsupported {self.name} version {version} "
                           f"(this reader reads version {self.version})")
            end = PREFIX.size + length
            if end > size:
                raise fail(f"truncated in the header (it ends at {end}, the file at {size})")
            try:
                header = json.loads(handle.read(length).decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # also bad UTF-8, too deep
                raise fail(f"header is not valid JSON ({type(exc).__name__}: {exc})") from None
            if not isinstance(header, dict):
                raise fail(f"header is a JSON {type(header).__name__}, not an object")
            self._check_header(path, header)
            try:
                layout = self.layout(header)
            except (TypeError, ValueError) as exc:
                raise fail(str(exc)) from None
            starts = {}
            for name, (kind, shape) in layout.items():
                if min(shape, default=0) < 0:
                    raise fail(f"array '{name}' has a negative dimension: {shape}")
                starts[name] = end
                end += np.dtype(kind).itemsize * math.prod(shape)
                if end > size:
                    raise fail(f"truncated in array '{name}' (it ends at {end}, "
                               f"the file at {size})")
            if end < size:
                raise fail(f"{size - end} trailing bytes after the last array")
        except BaseException:
            handle.close()
            raise
        return OpenFile(path, handle, header, layout, starts)


class OpenFile:
    """A file whose framing checks have passed: its header, the layout of
    its arrays and where each starts in the file. ``read_into`` fills a
    caller's buffer from any row range of an array's leading axis."""

    def __init__(self, path: str | Path, handle: typing.BinaryIO, header: dict,
                 layout: Layout, starts: dict[str, int]) -> None:
        self.path, self.handle, self.header = path, handle, header
        self.layout, self.starts = layout, starts

    def __enter__(self) -> OpenFile:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.handle.close()

    def named(self, build: Callable[..., T], *args, **kwargs) -> T:
        """build(*args, **kwargs), a ValueError or TypeError of it naming the file."""
        try:
            return build(*args, **kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{self.path}: {exc}") from None

    def read(self, name: str) -> np.ndarray:
        """The whole array name."""
        kind, shape = self.layout[name]
        array = np.empty(shape, kind)
        self.read_into(name, array)
        return array

    def read_into(self, name: str, out: np.ndarray, start: int = 0) -> None:
        """Fill out, a C-contiguous array of the dtype and row shape of the
        array name, with its rows start to start + len(out); another buffer,
        or rows outside the array, are refused naming the file. It reads at
        an absolute offset and moves no file position, so threads may read
        one open file at once."""
        kind, shape = self.layout[name]
        kind, start = np.dtype(kind), int(start)
        if out.dtype != kind or out.shape[1:] != shape[1:] or not out.flags.c_contiguous:
            raise ValueError(f"{self.path}: array '{name}' reads into C-contiguous {kind} rows "
                             f"of shape {shape[1:]}, not {out.dtype} {out.shape}")
        if start < 0 or start + len(out) > shape[0]:
            raise ValueError(f"{self.path}: rows {start} to {start + len(out)} are outside "
                             f"array '{name}' of {shape[0]} rows")
        at, done = self.starts[name] + start * kind.itemsize * math.prod(shape[1:]), 0
        buffer = out.reshape(-1).view(np.uint8)
        while done < out.nbytes:  # one pread returns at most about 2 GiB
            read = os.preadv(self.handle.fileno(), [buffer[done:]], at + done)
            if not read:
                raise ValueError(f"{self.path}: truncated in array '{name}' "
                                 "(the file shrank while it was read)")
            done += read
