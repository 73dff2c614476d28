"""Score aggregation: snippet consensus, weighted stream fusion, metrics.

A stream is one sorted tuple of unique video ids and one (videos x classes)
float64 score matrix; its rows are probabilities or raw logits, fused as
given without re-normalization. Snippet-level score files are collapsed to
video level by average pooling on read. Stream fusion takes a mapping of
the given streams, keyed by the names in STREAMS, and one weight per name
in that order: the per-class sum pose*w_p + spatial*w_s + temporal*w_t over
the given streams, so ablations on stream subsets run through the same code
path. A weighting that is zero on every given stream fuses nothing and is
rejected.

Score CSV format: header ``video,class_0,...,class_{C-1}``, one row per
video, sorted by video id. The snippet-level variant inserts a ``snippet``
column after ``video``. A labels CSV is ``video,label``. Lines starting
with ``#`` are metadata comments and are ignored by the readers, which
reject malformed rows naming the file and the line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

# Stream names in weight-column order: a weighting is one
# (w_pose, w_spatial, w_temporal) row.
STREAMS = ("pose", "spatial", "temporal")

# Weight candidates fused at once by search_weights; its temporaries hold
# SEARCH_CHUNK x videos x classes floats.
SEARCH_CHUNK = 64


@dataclass
class StreamScores:
    """Class scores for one stream: row i of ``matrix`` scores ``videos[i]``."""

    stream: str
    videos: tuple[str, ...]
    matrix: np.ndarray  # (len(videos), C) float64, every entry finite

    def __post_init__(self) -> None:
        self.videos = tuple(self.videos)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if not self.videos:
            raise ValueError(f"stream '{self.stream}' has no videos")
        if list(self.videos) != sorted(set(self.videos)):
            raise ValueError(f"stream '{self.stream}': video ids must be sorted and unique")
        if (self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.videos)
                or self.matrix.shape[1] < 1):
            raise ValueError(
                f"stream '{self.stream}': expected a ({len(self.videos)}, classes) score "
                f"matrix, got shape {self.matrix.shape}"
            )
        if not np.isfinite(self.matrix).all():
            raise ValueError(f"stream '{self.stream}' has non-finite scores")

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[1]

    @property
    def scores(self) -> dict[str, np.ndarray]:
        """Video id -> score row."""
        return dict(zip(self.videos, self.matrix))


def consensus(snippets: np.ndarray) -> np.ndarray:
    """Video-level scores as the per-class mean over snippet rows."""
    snippets = np.asarray(snippets, dtype=np.float64)
    if snippets.ndim != 2 or snippets.shape[0] < 1:
        raise ValueError(
            f"expected a (snippets, classes) matrix with >= 1 row, got shape {snippets.shape}"
        )
    return snippets.mean(axis=0)


def _present(streams: Mapping[str, StreamScores]) -> list[tuple[int, StreamScores]]:
    """(weight column, stream) of each given stream; the names must be from
    STREAMS, and the streams must cover identical video sets and class counts."""
    unknown = sorted(set(streams) - set(STREAMS))
    if unknown:
        raise ValueError(f"unknown streams {unknown}, expected names from {STREAMS}")
    present = [(column, name, streams[name]) for column, name in enumerate(STREAMS)
               if name in streams]
    if not present:
        raise ValueError("fusion needs at least one stream")
    _, first_name, first = present[0]
    for _, name, s in present[1:]:
        if s.videos != first.videos:
            raise ValueError(f"stream '{name}' covers a different video set than '{first_name}'")
        if s.num_classes != first.num_classes:
            raise ValueError(
                f"stream '{name}' has {s.num_classes} classes, expected {first.num_classes}"
            )
    return [(column, s) for column, _, s in present]


def _fused(present: list[tuple[int, StreamScores]], weights) -> np.ndarray:
    """(rows, videos, classes) weighted sums for a (rows, 3) weight array,
    added in STREAMS order. A row that is zero on every given stream, or
    whose sum overflows, raises ValueError naming its weights."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != len(STREAMS):
        raise ValueError(f"expected rows of {len(STREAMS)} weights {STREAMS}, "
                         f"got an array of shape {weights.shape}")
    idle = ~weights[:, [column for column, _ in present]].any(axis=1)
    if idle.any():
        bad = tuple(float(w) for w in weights[idle.argmax()])
        raise ValueError(f"weights {bad} are zero on every given stream")
    total = np.zeros((len(weights), *present[0][1].matrix.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        for column, s in present:
            total += weights[:, column, None, None] * s.matrix
    finite = np.isfinite(total).all(axis=(1, 2))
    if not finite.all():
        bad = tuple(float(w) for w in weights[finite.argmin()])
        raise ValueError(f"fused scores are not finite with weights {bad}")
    return total


def fuse(streams: Mapping[str, StreamScores], weights: Sequence[float]) -> StreamScores:
    """Weighted per-class sum of the given streams, one weight per STREAMS name.

    The streams must cover identical video sets and class counts, and some
    given stream needs a nonzero weight. Scores are combined exactly as
    given, added in pose, spatial, temporal order.
    """
    present = _present(streams)
    total = _fused(present, [weights])[0]
    return StreamScores(stream="fused", videos=present[0][1].videos, matrix=total)


@dataclass
class EvalResult:
    """Accuracy report: overall, per class (recall), and the confusion matrix."""

    accuracy: float
    per_class: np.ndarray       # (C,) recall; NaN for classes with no videos
    confusion: np.ndarray       # (C, C) rows true class, columns predicted


def _truth(videos: tuple[str, ...], labels: dict[str, int], classes: int) -> np.ndarray:
    """Label of every video, each checked to exist and to index the classes."""
    missing = [video for video in videos if video not in labels]
    if missing:
        raise ValueError(f"labels missing for videos: {missing[:5]}")
    truth = np.array([labels[video] for video in videos], dtype=np.int64)
    bad = np.flatnonzero((truth < 0) | (truth >= classes))
    if bad.size:
        video = videos[bad[0]]
        raise ValueError(f"label {labels[video]} of video '{video}' out of range for {classes} classes")
    return truth


def evaluate(scores: StreamScores, labels: dict[str, int]) -> EvalResult:
    """Argmax accuracy of a stream against ground-truth labels.

    Every scored video needs a label; ties in the score vector resolve to
    the lowest class id.
    """
    classes = scores.num_classes
    truth = _truth(scores.videos, labels, classes)
    predicted = scores.matrix.argmax(axis=1)
    confusion = np.bincount(
        truth * classes + predicted, minlength=classes * classes
    ).reshape(classes, classes)
    counts = confusion.sum(axis=1)
    per_class = np.where(counts > 0, np.diag(confusion) / np.maximum(counts, 1), np.nan)
    accuracy = float(np.diag(confusion).sum() / confusion.sum())
    return EvalResult(accuracy=accuracy, per_class=per_class, confusion=confusion)


def search_weights(
    streams: Mapping[str, StreamScores],
    labels: dict[str, int],
    weights: Sequence[Sequence[float]],
) -> np.ndarray:
    """Accuracy of every weight row on a labeled split, in row order.

    Rows are fused and scored together, SEARCH_CHUNK at a time, with the same
    per-element operations as ``fuse`` and ``evaluate`` on each one.
    """
    if not len(weights):
        raise ValueError("weight grid is empty")
    present = _present(streams)
    weights = np.asarray(weights, dtype=np.float64)
    videos = present[0][1].videos
    truth = _truth(videos, labels, present[0][1].num_classes)
    hits = np.concatenate([
        (_fused(present, weights[start:start + SEARCH_CHUNK]).argmax(axis=2) == truth).sum(axis=1)
        for start in range(0, len(weights), SEARCH_CHUNK)
    ])
    return hits / len(videos)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _format(value: float) -> str:
    return f"{value:.12g}"


def write_scores(path: str | Path, stream: StreamScores, meta: dict | None = None) -> None:
    classes = stream.num_classes
    lines = []
    if meta:
        joined = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# {joined}")
    lines.append("video," + ",".join(f"class_{c}" for c in range(classes)))
    for video, row in zip(stream.videos, stream.matrix):
        lines.append(video + "," + ",".join(_format(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every line that is neither blank nor a ``#`` comment."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.startswith("#"):
                row = next(csv.reader([line]), [])
                if row:
                    yield lineno, row


def _parse_int(path: str | Path, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} '{text}' is not an integer") from None


def _parse_scores(path: str | Path, lineno: int, fields: list[str]) -> np.ndarray:
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: score is not a number ({exc})") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{path}:{lineno}: score is not finite: {fields}")
    return np.array(values)


def read_scores(path: str | Path, stream: str = "other") -> StreamScores:
    """Read a score CSV; detects the snippet-level variant by its header.

    Non-numeric or non-finite scores, non-integer snippet indices, rows of
    the wrong width, duplicate rows and a file without score rows raise
    ValueError naming the file and the line."""
    rows = _csv_rows(path)
    header_line, header = next(rows, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty score file")
    if len(header) < 2 or header[0] != "video":
        raise ValueError(f"{path}:{header_line}: expected header 'video,class_0,...', got {header}")
    snippet_level = len(header) > 2 and header[1] == "snippet"
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
        snippet = _parse_int(path, lineno, row[1], "snippet index") if snippet_level else 0
        key = (row[0], snippet)
        if key in first_seen:
            what = f"video '{row[0]}' snippet {snippet}" if snippet_level else f"video '{row[0]}'"
            raise ValueError(f"{path}:{lineno}: duplicate {what}, first on line {first_seen[key]}")
        first_seen[key] = lineno
        per_video.setdefault(row[0], []).append(
            (snippet, _parse_scores(path, lineno, row[first_class:]))
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


def write_labels(path: str | Path, labels: dict[str, int], meta: dict | None = None) -> None:
    lines = []
    if meta:
        joined = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# {joined}")
    lines.append("video,label")
    lines.extend(f"{video},{labels[video]}" for video in sorted(labels))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels(path: str | Path) -> dict[str, int]:
    """Read a labels CSV; malformed rows, non-integer labels and duplicate
    ids raise ValueError naming the file and the line."""
    rows = _csv_rows(path)
    _, header = next(rows, (0, None))
    if header != ["video", "label"]:
        raise ValueError(f"{path}: expected header 'video,label'")
    labels: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != 2:
            raise ValueError(f"{path}:{lineno}: malformed labels row {row}")
        if row[0] in labels:
            raise ValueError(
                f"{path}:{lineno}: duplicate video id '{row[0]}', first on line {first_seen[row[0]]}"
            )
        first_seen[row[0]] = lineno
        label = _parse_int(path, lineno, row[1], "label")
        if not 0 <= label < 2**31:
            raise ValueError(f"{path}:{lineno}: label {label} outside [0, 2**31)")
        labels[row[0]] = label
    return labels
