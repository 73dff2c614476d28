"""Score aggregation: snippet consensus, weighted stream fusion, metrics.

A stream is one sorted tuple of unique video ids and one (videos x classes)
float64 score matrix; its rows are probabilities or raw logits, fused as
given without re-normalization. Snippet-level score files are collapsed to
video level by average pooling on read. Stream fusion takes a mapping of
the given streams, keyed by the names in STREAMS, and one weight per name
in that order: the per-class sum pose*w_p + spatial*w_s + temporal*w_t over
the given streams, so ablations on stream subsets run through the same code
path. A weighting that is zero on every given stream fuses nothing and is
rejected. ``fuse`` and ``search_weights`` share one kernel, which fuses a
block of weightings as one (weightings, classes, videos) array.

Score CSV format: header ``video,class_0,...,class_{C-1}``, one row per
video, sorted by video id. The snippet-level variant inserts a ``snippet``
column after ``video``. A labels CSV is ``video,label``. Lines starting
with ``#`` are metadata comments and are ignored by the readers, which
reject malformed rows naming the file and the line. A reader splits, converts
and checks a whole file at once, and walks its rows one at a time only to
name the first bad line of a file that fails a check. Video ids follow the
annotation rule (``config.is_video_id``), so the writers write back every
id the readers accept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, pairwise
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import ID_RULE, check_video_ids, decode_utf8, is_video_id

# Stream names in weight-column order: a weighting is one
# (w_pose, w_spatial, w_temporal) row.
STREAMS = ("pose", "spatial", "temporal")

# Bytes of the two (rows, classes, videos) float64 buffers search_weights
# fuses each block of weight rows into: a block stays in cache, and holds
# at least one row.
SEARCH_BYTES = 2**20


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


def check_aligned(streams: Mapping[str, StreamScores], labels: Mapping[str, str]) -> None:
    """ValueError unless every stream scores the videos of the first, with as
    many classes. The message names the two streams by their labels, and
    the first video one scores and the other lacks, or both class counts."""
    (first, ours), *others = streams.items()
    for name, theirs in others:
        one, other = labels[name], labels[first]
        if theirs.videos != ours.videos:
            video = min(set(theirs.videos) ^ set(ours.videos))
            has, lacks = (one, other) if video in theirs.videos else (other, one)
            raise ValueError(f"{has} scores video '{video}', which {lacks} lacks")
        if theirs.num_classes != ours.num_classes:
            raise ValueError(f"{one} has {theirs.num_classes} classes, "
                             f"{other} has {ours.num_classes}")


def _present(streams: Mapping[str, StreamScores]) -> list[tuple[int, StreamScores]]:
    """(weight column, stream) of each given stream; the names must be from
    STREAMS, and the streams must be aligned (``check_aligned``)."""
    unknown = sorted(set(streams) - set(STREAMS))
    if unknown:
        raise ValueError(f"unknown streams {unknown}, expected names from {STREAMS}")
    given = {name: streams[name] for name in STREAMS if name in streams}
    if not given:
        raise ValueError("fusion needs at least one stream")
    check_aligned(given, {name: f"stream '{name}'" for name in given})
    return [(STREAMS.index(name), s) for name, s in given.items()]


def _fused(present: list[tuple[int, StreamScores]], weights,
           out: np.ndarray | None = None) -> np.ndarray:
    """(rows, classes, videos) weighted sums for a (rows, 3) weight array,
    each entry 0.0 + w_p*s_p + w_s*s_s + w_t*s_t over the given streams, in
    out[0] if given (out[1] takes the products). A row that is zero on every given
    stream, or whose sum overflows, raises ValueError naming its weights."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != len(STREAMS):
        raise ValueError(f"expected rows of {len(STREAMS)} weights {STREAMS}, "
                         f"got an array of shape {weights.shape}")
    idle = ~weights[:, [column for column, _ in present]].any(axis=1)
    if idle.any():
        bad = tuple(float(w) for w in weights[idle.argmax()])
        raise ValueError(f"weights {bad} are zero on every given stream")
    videos, classes = present[0][1].matrix.shape
    total, term = (np.empty((2, len(weights), classes, videos)) if out is None
                   else out[:, :len(weights)])
    total.fill(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for column, s in present:
            total += np.multiply(weights[:, column, None, None], s.matrix.T, out=term)
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
    return StreamScores(stream="fused", videos=present[0][1].videos, matrix=total.T)


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

    Blocks of rows are fused by ``fuse``'s kernel into buffers of about
    SEARCH_BYTES and scored by a running maximum over the classes, whose
    strict ``>`` keeps ties on the lowest class as ``evaluate``'s argmax does.
    """
    if not len(weights):
        raise ValueError("weight grid is empty")
    present = _present(streams)
    weights = np.asarray(weights, dtype=np.float64)
    videos, classes = present[0][1].matrix.shape
    is_truth = np.arange(classes)[:, None] == _truth(present[0][1].videos, labels, classes)
    block = max(1, SEARCH_BYTES // (16 * classes * videos))
    out = np.empty((2, block, classes, videos))
    hits = np.empty(len(weights), dtype=np.int64)
    for start in range(0, len(weights), block):
        total = _fused(present, weights[start:start + block], out)
        top, hit = total[:, 0].copy(), np.repeat(is_truth[:1], len(total), axis=0)
        for c in range(1, classes):
            better = total[:, c] > top  # strict: a tie keeps the lower class
            np.maximum(top, total[:, c], out=top)
            hit &= ~better
            hit |= better & is_truth[c]
        hits[start:start + len(total)] = np.count_nonzero(hit, axis=1)
    return hits / videos


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _write_csv(path: str | Path, meta: dict | None, header: str, videos: Sequence[str],
               line: str, rows: Iterable[tuple]) -> None:
    """Write an optional ``# key=value`` meta line, the header and one line
    per video, formatting every row with line in one pass; an id the readers
    refuse raises ValueError before the file is opened."""
    check_video_ids(videos)
    head = f"# {' '.join(f'{k}={v}' for k, v in sorted(meta.items()))}\n" if meta else ""
    body = ((line + "\n") * len(videos)) % tuple(chain.from_iterable(rows))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{head}{header}\n{body}")


def write_scores(path: str | Path, stream: StreamScores, meta: dict | None = None) -> None:
    """Write a score CSV, each score as ``"%.12g"`` (which equals ``f"{score:.12g}"``)."""
    header = "video," + ",".join(f"class_{c}" for c in range(stream.num_classes))
    _write_csv(path, meta, header, stream.videos, "%s" + ",%.12g" * stream.num_classes,
               zip(stream.videos, *stream.matrix.T.tolist()))


def _csv_rows(path: str | Path) -> tuple[list[int], list[list[str]]]:
    """Line numbers and fields of the lines that are neither blank nor a ``#``
    comment, from one csv.reader that splits each line as a reader of that
    line alone would: a quoted field left open at the end of a line is closed
    there. Bytes that are not UTF-8 raise ValueError naming the file and the
    line."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError:
        decode_utf8(path, Path(path).read_bytes())  # raises, naming the line
        raise
    numbers = [n for n, line in enumerate(lines, 1) if line != "\n" and line[0] != "#"]
    rows: list[list[str]] = []

    def kept() -> Iterator[str]:
        for count, n in enumerate(numbers):
            if len(rows) < count:  # the reader is still in the last line's row
                yield '"'
            yield lines[n - 1]

    for row in csv.reader(kept()):
        rows.append(row)
    return numbers, rows


def _parse_int(path: str | Path, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} '{text}' is not an integer") from None


def _check_id(path: str | Path, lineno: int, video: str) -> None:
    if not is_video_id(video):
        raise ValueError(f"{path}:{lineno}: video id {video!r} {ID_RULE}")


def _check_scores(path: str | Path, lineno: int, fields: list[str]) -> None:
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: score is not a number ({exc})") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{path}:{lineno}: score is not finite: {fields}")


def _score_columns(path: str | Path, numbers: list[int], rows: list[list[str]], width: int,
                   snippet_level: bool) -> tuple[tuple[str, ...], list, np.ndarray]:
    """(ids, (id, snippet index) keys, (classes, rows) scores) of the score
    rows, converted and checked all at once. When a check fails, the rows
    are checked again one at a time, so the error names the first bad line."""
    try:
        if all(len(row) == width for row in rows):
            ids, *columns = zip(*rows)
            snippets = list(map(int, columns.pop(0))) if snippet_level else [0] * len(ids)
            keys = list(zip(ids, snippets))
            values = np.fromiter(map(float, chain.from_iterable(columns)), np.float64)
            if (all(map(is_video_id, ids)) and len(set(keys)) == len(keys)
                    and np.isfinite(values).all()):
                return ids, keys, values.reshape(len(columns), -1)
    except ValueError:
        pass
    first_seen: dict[tuple[str, int], int] = {}
    for lineno, row in zip(numbers, rows):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: row has {len(row)} fields, header has {width}")
        _check_id(path, lineno, row[0])
        snippet = _parse_int(path, lineno, row[1], "snippet index") if snippet_level else 0
        key = (row[0], snippet)
        if key in first_seen:
            what = f"video '{row[0]}' snippet {snippet}" if snippet_level else f"video '{row[0]}'"
            raise ValueError(f"{path}:{lineno}: duplicate {what}, first on line {first_seen[key]}")
        first_seen[key] = lineno
        _check_scores(path, lineno, row[1 + snippet_level:])
    raise AssertionError(f"{path}: the file fails a check that no row fails")


def read_scores(path: str | Path, stream: str = "other") -> StreamScores:
    """Read a score CSV; detects the snippet-level variant by its header.

    Non-numeric or non-finite scores, non-integer snippet indices, rows of
    the wrong width, ids the writer cannot write back, duplicate rows and a
    file without score rows raise ValueError naming the file and the first
    bad line."""
    numbers, rows = _csv_rows(path)
    if not rows:
        raise ValueError(f"{path}: empty score file")
    header_line, header = numbers[0], rows[0]
    if len(header) < 2 or header[0] != "video":
        raise ValueError(f"{path}:{header_line}: expected header 'video,class_0,...', got {header}")
    snippet_level = header[1] == "snippet"
    if len(header) - 1 - snippet_level < 1:
        raise ValueError(f"{path}:{header_line}: no class columns found")
    if len(rows) == 1:
        raise ValueError(f"{path}:{header_line}: no score rows after the header")

    ids, keys, values = _score_columns(path, numbers[1:], rows[1:], len(header), snippet_level)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ordered = [ids[i] for i in order]
    matrix = values.T[order]
    if snippet_level:
        ends = accumulate(len(list(group)) for _, group in groupby(ordered))
        matrix = np.array([consensus(matrix[start:end]) for start, end in pairwise([0, *ends])])
    return StreamScores(stream=stream, videos=tuple(dict.fromkeys(ordered)), matrix=matrix)


def write_labels(path: str | Path, labels: dict[str, int], meta: dict | None = None) -> None:
    """Write a labels CSV, one row per video in id order."""
    videos = sorted(labels)
    _write_csv(path, meta, "video,label", videos, "%s,%s",
               ((video, labels[video]) for video in videos))


def read_labels(path: str | Path, scores: StreamScores | None = None) -> dict[str, int]:
    """Read a labels CSV, converted and checked all at once; malformed rows,
    ids the writer cannot write back, non-integer labels and duplicate ids
    raise ValueError naming the file and the first bad line (found by
    checking the rows again one at a time). Given scores, a video they score
    that has no label, or a label outside their classes, raises ValueError
    naming the file."""
    numbers, rows = _csv_rows(path)
    if rows[:1] != [["video", "label"]]:
        raise ValueError(f"{path}: expected header 'video,label'")
    numbers, rows = numbers[1:], rows[1:]
    try:
        labels = {video: int(label) for video, label in rows}
    except ValueError:  # a row of another width, or a label that is no integer
        labels = {}
    if not (len(labels) == len(rows) and all(map(is_video_id, labels))
            and 0 <= min(labels.values(), default=0) <= max(labels.values(), default=0) < 2**31):
        first_seen: dict[str, int] = {}
        for lineno, row in zip(numbers, rows):
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: malformed labels row {row}")
            _check_id(path, lineno, row[0])
            if row[0] in first_seen:
                raise ValueError(f"{path}:{lineno}: duplicate video id '{row[0]}', first on "
                                 f"line {first_seen[row[0]]}")
            first_seen[row[0]] = lineno
            label = _parse_int(path, lineno, row[1], "label")
            if not 0 <= label < 2**31:
                raise ValueError(f"{path}:{lineno}: label {label} outside [0, 2**31)")
        raise AssertionError(f"{path}: the file fails a check that no row fails")
    if scores is not None:
        try:
            _truth(scores.videos, labels, scores.num_classes)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return labels
