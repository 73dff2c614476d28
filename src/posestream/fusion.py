"""Score aggregation: snippet consensus, weighted stream fusion, metrics.

Streams arrive as per-video class-score vectors (probabilities or raw
logits, fused as given without re-normalization). Snippet-level scores are
collapsed to video level by average pooling. Stream fusion is the weighted
per-class sum pose*w_p + spatial*w_s + temporal*w_t; a missing stream
contributes zero (with a warning) so two-stream ablations run through the
same code path.

Score CSV format: header ``video,class_0,...,class_{C-1}``, one row per
video, sorted by video id. The snippet-level variant inserts a ``snippet``
column after ``video``. A labels CSV is ``video,label``. Lines starting
with ``#`` are metadata comments and are ignored by the readers.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

PROBABILITIES = "probabilities"
LOGITS = "logits"

_PROB_ATOL = 1e-6


@dataclass
class StreamScores:
    """Per-video class scores for one stream."""

    stream: str
    scores: dict[str, np.ndarray]
    kind: str = PROBABILITIES
    snippet_scores: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (PROBABILITIES, LOGITS):
            raise ValueError(f"kind must be '{PROBABILITIES}' or '{LOGITS}', got '{self.kind}'")
        widths = {v.shape for v in self.scores.values()}
        if len(widths) > 1:
            raise ValueError(f"stream '{self.stream}' mixes class counts: {sorted(widths)}")

    @property
    def num_classes(self) -> int:
        if not self.scores:
            raise ValueError(f"stream '{self.stream}' has no videos")
        return next(iter(self.scores.values())).shape[0]

    @property
    def videos(self) -> list[str]:
        return sorted(self.scores)


@dataclass(frozen=True)
class FusionWeights:
    w_pose: float = 1.0
    w_spatial: float = 1.0
    w_temporal: float = 1.0

    def __post_init__(self) -> None:
        if self.w_pose == self.w_spatial == self.w_temporal == 0.0:
            raise ValueError("at least one fusion weight must be nonzero")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_pose, self.w_spatial, self.w_temporal)


def consensus(snippet_scores: np.ndarray) -> np.ndarray:
    """Video-level scores as the per-class mean over snippet rows."""
    snippet_scores = np.asarray(snippet_scores, dtype=np.float64)
    if snippet_scores.ndim != 2 or snippet_scores.shape[0] < 1:
        raise ValueError(
            f"expected a (snippets, classes) matrix with >= 1 row, got shape {snippet_scores.shape}"
        )
    return snippet_scores.mean(axis=0)


def fuse(
    pose: StreamScores | None,
    spatial: StreamScores | None,
    temporal: StreamScores | None,
    weights: FusionWeights = FusionWeights(),
) -> StreamScores:
    """Weighted per-class sum of up to three streams.

    Streams passed as None contribute zero and trigger a warning; the
    remaining streams must cover identical video sets and class counts.
    Scores are combined exactly as given; mixing probabilities with logits
    warns but proceeds.
    """
    named = [("pose", pose), ("spatial", spatial), ("temporal", temporal)]
    present = [(name, s) for name, s in named if s is not None]
    if not present:
        raise ValueError("fusion needs at least one stream")
    for name, _ in named:
        if all(n != name for n, _ in present):
            warnings.warn(f"stream '{name}' missing; it contributes zero to the fusion")

    reference = present[0][1]
    videos = set(reference.scores)
    classes = reference.num_classes
    for name, s in present[1:]:
        if set(s.scores) != videos:
            raise ValueError(
                f"stream '{name}' covers a different video set than '{present[0][0]}'"
            )
        if s.num_classes != classes:
            raise ValueError(
                f"stream '{name}' has {s.num_classes} classes, expected {classes}"
            )
    if len({s.kind for _, s in present}) > 1:
        warnings.warn("fusing streams with mixed normalization states (probabilities vs logits)")

    w = dict(zip(("pose", "spatial", "temporal"), weights.as_tuple()))
    fused = {}
    for video in sorted(videos):
        total = np.zeros(classes)
        for name, s in present:
            total += w[name] * s.scores[video]
        fused[video] = total
    return StreamScores(stream="fused", scores=fused, kind=LOGITS)


@dataclass
class EvalResult:
    """Accuracy report: overall, per class (recall), and the confusion matrix."""

    accuracy: float
    per_class: np.ndarray       # (C,) recall; NaN for classes with no videos
    confusion: np.ndarray       # (C, C) rows true class, columns predicted
    class_counts: np.ndarray    # (C,) videos per true class


def evaluate(scores: StreamScores, labels: dict[str, int]) -> EvalResult:
    """Argmax accuracy of a stream against ground-truth labels.

    Every scored video needs a label; ties in the score vector resolve to
    the lowest class id.
    """
    missing = sorted(set(scores.scores) - set(labels))
    if missing:
        raise ValueError(f"labels missing for videos: {missing[:5]}")
    classes = scores.num_classes
    confusion = np.zeros((classes, classes), dtype=np.int64)
    for video in scores.videos:
        true = labels[video]
        if not 0 <= true < classes:
            raise ValueError(f"label {true} of video '{video}' out of range for {classes} classes")
        predicted = int(np.argmax(scores.scores[video]))
        confusion[true, predicted] += 1
    counts = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(counts > 0, np.diag(confusion) / np.maximum(counts, 1), np.nan)
    accuracy = float(np.diag(confusion).sum() / confusion.sum())
    return EvalResult(
        accuracy=accuracy, per_class=per_class, confusion=confusion, class_counts=counts
    )


def search_weights(
    pose: StreamScores | None,
    spatial: StreamScores | None,
    temporal: StreamScores | None,
    labels: dict[str, int],
    grid: Iterable[tuple[float, float, float]],
) -> tuple[FusionWeights, list[dict]]:
    """Try every weight triple on a validation split; best accuracy wins.

    Ties keep the earliest grid entry. Returns the winning weights and one
    result row per candidate.
    """
    rows = []
    best: tuple[float, FusionWeights] | None = None
    for candidate in grid:
        weights = FusionWeights(*candidate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = evaluate(fuse(pose, spatial, temporal, weights), labels)
        rows.append({"weights": weights.as_tuple(), "accuracy": result.accuracy})
        if best is None or result.accuracy > best[0]:
            best = (result.accuracy, weights)
    if best is None:
        raise ValueError("weight grid is empty")
    return best[1], rows


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _format(value: float) -> str:
    return f"{value:.12g}"


def infer_kind(scores: dict[str, np.ndarray]) -> str:
    """Probabilities iff every row is non-negative and sums to 1 (1e-6)."""
    for vector in scores.values():
        if np.any(vector < 0) or abs(float(vector.sum()) - 1.0) > _PROB_ATOL:
            return LOGITS
    return PROBABILITIES


def write_scores(path: str | Path, stream: StreamScores, meta: dict | None = None) -> None:
    classes = stream.num_classes
    lines = []
    if meta:
        joined = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# {joined}")
    lines.append("video," + ",".join(f"class_{c}" for c in range(classes)))
    for video in stream.videos:
        lines.append(video + "," + ",".join(_format(v) for v in stream.scores[video]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_scores(path: str | Path, stream: str = "other") -> StreamScores:
    """Read a score CSV; detects the snippet-level variant by its header."""
    with open(path, encoding="utf-8") as handle:
        rows = [row for row in csv.reader(line for line in handle if not line.startswith("#"))]
    rows = [row for row in rows if row]
    if not rows:
        raise ValueError(f"{path}: empty score file")
    header = rows[0]
    if len(header) < 2 or header[0] != "video":
        raise ValueError(f"{path}: expected header 'video,class_0,...', got {header}")
    snippet_level = len(header) > 2 and header[1] == "snippet"
    first_class = 2 if snippet_level else 1
    classes = len(header) - first_class
    if classes < 1:
        raise ValueError(f"{path}: no class columns found")

    if snippet_level:
        per_video: dict[str, list[tuple[int, np.ndarray]]] = {}
        for row in rows[1:]:
            if len(row) != len(header):
                raise ValueError(f"{path}: row has {len(row)} fields, header has {len(header)}")
            per_video.setdefault(row[0], []).append(
                (int(row[1]), np.array([float(v) for v in row[2:]]))
            )
        snippets = {
            video: np.stack([vec for _, vec in sorted(entries, key=lambda e: e[0])])
            for video, entries in per_video.items()
        }
        scores = {video: consensus(matrix) for video, matrix in snippets.items()}
        return StreamScores(
            stream=stream, scores=scores, kind=infer_kind(scores), snippet_scores=snippets
        )

    scores = {}
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}: row has {len(row)} fields, header has {len(header)}")
        if row[0] in scores:
            raise ValueError(f"{path}: duplicate video id '{row[0]}'")
        scores[row[0]] = np.array([float(v) for v in row[1:]])
    return StreamScores(stream=stream, scores=scores, kind=infer_kind(scores))


def write_labels(path: str | Path, labels: dict[str, int], meta: dict | None = None) -> None:
    lines = []
    if meta:
        joined = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# {joined}")
    lines.append("video,label")
    lines.extend(f"{video},{labels[video]}" for video in sorted(labels))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels(path: str | Path) -> dict[str, int]:
    with open(path, encoding="utf-8") as handle:
        rows = [row for row in csv.reader(line for line in handle if not line.startswith("#")) if row]
    if not rows or rows[0] != ["video", "label"]:
        raise ValueError(f"{path}: expected header 'video,label'")
    labels = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"{path}: malformed labels row {row}")
        if row[0] in labels:
            raise ValueError(f"{path}: duplicate video id '{row[0]}'")
        labels[row[0]] = int(row[1])
    return labels
