"""Run one posestream CLI command with spans around its layers' public functions.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/tracer.py SPANS_JSON <posestream command and flags>

Every public function of ``preprocess``, ``tensorize``, ``convnet`` and
``fusion`` and every ``cli.cmd_*`` entry point is replaced by a wrapper that
records a span: name, start, end and the index of the enclosing span. The
program itself is not changed; its modules look these names up at call time,
so calls between modules and inside a module pass through the wrappers. Spans
stay in memory and are written to SPANS_JSON when the command returns,
together with the times the script started and the command finished, so the
caller can tell interpreter start-up from traced work.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from posestream import cli, convnet, fusion, preprocess, tensorize  # noqa: E402

LAYERS = (preprocess, tensorize, convnet, fusion)

# Calls made from inside these spans are part of the same step and are not
# recorded on their own: a sidecar read is one step even though it parses
# every record, and a score-file read includes its kind inference.
FOLDED = {
    "preprocess.parse_annotation_line",
    "preprocess.read_annotations",
    "preprocess.write_annotations",
    "fusion.read_scores",
}

# Spans whose first argument is a file the call reads or writes; its size in
# bytes is recorded when the call returns.
FILE_ARG = {
    "preprocess.read_annotations",
    "preprocess.write_annotations",
    "tensorize.read_tensor_cache",
    "tensorize.write_tensor_cache",
}


class Tracer:
    """Collects spans as [name, start, end, parent, extra] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.folded = 0

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        folds = name in FOLDED
        if inspect.isgeneratorfunction(fn):
            # One span per item, so reading lines is timed where it happens.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                if self.folded:
                    yield from items
                    return
                try:
                    while True:
                        index = self._open(name)
                        try:
                            item = next(items)
                        except StopIteration:
                            self._close(index)
                            return
                        self._close(index)
                        yield item
                finally:
                    items.close()

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.folded:
                return fn(*args, **kwargs)
            index = self._open(name)
            self.folded += folds
            try:
                result = fn(*args, **kwargs)
            finally:
                self.folded -= folds
                self._close(index)
            self.spans[index][4] = _extra(name, fn, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", value))
        for attr, value in list(vars(cli).items()):
            if attr.startswith("cmd_") and inspect.isfunction(value):
                setattr(cli, attr, self.wrap(f"cli.{attr}", value))


def _extra(name: str, fn, args: tuple, kwargs: dict) -> dict | None:
    if name not in FILE_ARG and name != "convnet.train":
        return None
    params = inspect.signature(fn).bind(*args, **kwargs).arguments
    if name == "convnet.train":
        config = params["config"]
        return {"steps": config.epochs * math.ceil(len(params["data"]) / config.batch_size)}
    return {"bytes": os.path.getsize(next(iter(params.values())))}


def main(argv: list[str]) -> int:
    out, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(command)
    sys.stdout.flush()
    end = time.perf_counter()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"script_start": SCRIPT_START, "end": end, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
