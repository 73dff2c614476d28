"""Oracle: the score and label CSV readers as they read one line at a time.

Each line that is neither blank nor a ``#`` comment is split by its own
``csv.reader``, and every row is checked, in file order, before the next is
read, so the first defective row names its line. ``posestream.fusion``
reads whole files at once; the tests hold its readers to these.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterator

import numpy as np

from posestream.config import ID_RULE, decode_utf8, is_video_id
from posestream.fusion import StreamScores, _truth, consensus


def csv_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every line that is neither blank nor a ``#`` comment;
    bytes that are not UTF-8 raise ValueError naming the file and the line."""
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if not line.startswith("#"):
                    row = next(csv.reader([line]), [])
                    if row:
                        yield lineno, row
        except UnicodeDecodeError:
            decode_utf8(path, Path(path).read_bytes())  # raises, naming the line
            raise


def parse_int(path: str | Path, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} '{text}' is not an integer") from None


def check_id(path: str | Path, lineno: int, video: str) -> None:
    if not is_video_id(video):
        raise ValueError(f"{path}:{lineno}: video id {video!r} {ID_RULE}")


def parse_scores(path: str | Path, lineno: int, fields: list[str]) -> np.ndarray:
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: score is not a number ({exc})") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{path}:{lineno}: score is not finite: {fields}")
    return np.array(values)


def read_scores(path: str | Path, stream: str = "other") -> StreamScores:
    rows = csv_rows(path)
    header_line, header = next(rows, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty score file")
    if len(header) < 2 or header[0] != "video":
        raise ValueError(f"{path}:{header_line}: expected header 'video,class_0,...', got {header}")
    snippet_level = header[1] == "snippet"
    first_class = 2 if snippet_level else 1
    if len(header) - first_class < 1:
        raise ValueError(f"{path}:{header_line}: no class columns found")

    first_seen: dict[tuple[str, int], int] = {}
    per_video: dict[str, list[tuple[int, np.ndarray]]] = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}:{lineno}: row has {len(row)} fields, header has {len(header)}"
            )
        check_id(path, lineno, row[0])
        snippet = parse_int(path, lineno, row[1], "snippet index") if snippet_level else 0
        key = (row[0], snippet)
        if key in first_seen:
            what = f"video '{row[0]}' snippet {snippet}" if snippet_level else f"video '{row[0]}'"
            raise ValueError(f"{path}:{lineno}: duplicate {what}, first on line {first_seen[key]}")
        first_seen[key] = lineno
        per_video.setdefault(row[0], []).append(
            (snippet, parse_scores(path, lineno, row[first_class:]))
        )
    if not per_video:
        raise ValueError(f"{path}:{header_line}: no score rows after the header")

    videos = tuple(sorted(per_video))
    matrix = np.array([
        consensus(np.stack([vec for _, vec in sorted(per_video[v], key=lambda e: e[0])]))
        if snippet_level else per_video[v][0][1]
        for v in videos
    ])
    return StreamScores(stream=stream, videos=videos, matrix=matrix)


def read_labels(path: str | Path, scores: StreamScores | None = None) -> dict[str, int]:
    rows = csv_rows(path)
    _, header = next(rows, (0, None))
    if header != ["video", "label"]:
        raise ValueError(f"{path}: expected header 'video,label'")
    labels: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != 2:
            raise ValueError(f"{path}:{lineno}: malformed labels row {row}")
        check_id(path, lineno, row[0])
        if row[0] in labels:
            raise ValueError(
                f"{path}:{lineno}: duplicate video id '{row[0]}', first on line {first_seen[row[0]]}"
            )
        first_seen[row[0]] = lineno
        label = parse_int(path, lineno, row[1], "label")
        if not 0 <= label < 2**31:
            raise ValueError(f"{path}:{lineno}: label {label} outside [0, 2**31)")
        labels[row[0]] = label
    if scores is not None:
        try:
            _truth(scores.videos, labels, scores.num_classes)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return labels


def write_scores(path: str | Path, stream: StreamScores) -> None:
    """The score writer, one formatted line at a time (no meta line)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("video," + ",".join(f"class_{c}" for c in range(stream.num_classes)) + "\n")
        for video, row in zip(stream.videos, stream.matrix):
            handle.write(video + "," + ",".join(f"{v:.12g}" for v in row) + "\n")
