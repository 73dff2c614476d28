"""Pose cleanup ahead of tensor building: normalization and gap filling.

The pipeline order is fixed: linear temporal interpolation runs on raw pixel
coordinates (so torso joints can be recovered before they are needed),
normalization rescales each frame by the torso length and centers it on the
torso midpoint, and spatial interpolation then fills whatever is still
missing by letting visible joints vote through learned pairwise polynomial
models in the scale-free normalized space. Joints nothing can recover are
set to the torso center (0, 0) and flagged synthetic, never left marked
invalid.

A video exists in memory only as rows of a ``PoseCorpus``: the frames of
every video as one set of arrays with per-video frame offsets. The parser
turns an annotation record into a ``(video, coords, flags, label)`` tuple,
that video's corpus fields, and ``PoseCorpus.of`` concatenates the tuples
once. Each stage maps a whole ``PoseCorpus`` to a new one in a few array
passes. Temporal interpolation is the only stage that looks at video
boundaries; the others work frame by frame.

Fill flags carry provenance: 0 missing, 1 observed, 2 temporally
interpolated, 3 spatially interpolated, 4 synthetic fill. Any value > 0
counts as filled.

Annotation interchange format (JSON lines, one record per video)::

    {"video": "clip_001", "label": 3, "n": 15,
     "frames": [[[x, y, vis], ... n joints], ... per frame]}

with vis 1 for visible and 0 for missing, and the optional label in
[0, 2**31). Ids may not contain ``,``, ``"``, CR or LF, nor start with ``#``.
Lines whose JSON object contains a ``_meta`` key are reserved for file
metadata and skipped by the reader.

Annotation files are RFC 8259 JSON lines. They are read as bytes, one line
at a time, and orjson alone decodes each line. A line orjson refuses is
rejected with orjson's message: that covers ``NaN`` and ``Infinity``
tokens, numbers beyond the float64 range, lone surrogate escapes and a
byte-order mark. A line that is not UTF-8 is rejected on its own, naming its
first bad byte.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, Iterator, Sequence

import numpy as np

from . import binio
from .config import ID_RULE, check_video_ids, is_video_id
from .skeleton import SkeletonTopology, upper_body_joints

VIS_MISSING = 0
VIS_OBSERVED = 1
VIS_TEMPORAL = 2
VIS_SPATIAL = 3
VIS_SYNTHETIC = 4


class AnnotationError(ValueError):
    """Malformed annotation record."""


# One video's corpus fields: id, (T, n, 2) coordinates, (T, n) flags and
# label (-1 where absent).
Record = tuple[str, np.ndarray, np.ndarray, int]


@dataclass
class PoseCorpus:
    """The frames of every video of a corpus as one set of arrays.

    Video i owns rows offsets[i] to offsets[i+1] - 1 of coords and flags.
    flags holds fill provenance (0 missing .. 4 synthetic); coordinates are
    only meaningful where flags > 0, and there must be finite in coords_dtype.
    """

    videos: tuple[str, ...]
    labels: np.ndarray   # (V,) int64, -1 where absent
    offsets: np.ndarray  # (V+1,) int64
    coords: np.ndarray   # (F, n, 2) coords_dtype
    flags: np.ndarray    # (F, n) uint8
    coords_dtype: ClassVar[np.dtype] = np.dtype(np.float64)  # NET_DTYPE in a FilledCorpus

    def __post_init__(self) -> None:
        self.videos = tuple(self.videos)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        with np.errstate(over="ignore"):  # a value beyond coords_dtype's range casts to inf
            self.coords = np.asarray(self.coords, dtype=self.coords_dtype)
        self.flags = np.asarray(self.flags, dtype=np.uint8)
        if self.coords.ndim != 3 or self.coords.shape[2] != 2:
            raise ValueError(f"coords must have shape (F, n, 2), got {self.coords.shape}")
        if self.flags.shape != self.coords.shape[:2]:
            raise ValueError(f"flags shape {self.flags.shape} does not match coords "
                             f"{self.coords.shape[:2]}")
        self.check_index(self.videos, self.labels, self.offsets, len(self.coords))
        if not np.isfinite(self.coords).all():
            bad = ((self.flags > 0) & ~np.isfinite(self.coords).all(axis=2)).any(axis=1)
            if bad.any():
                video = self.videos[np.searchsorted(self.offsets, bad.argmax(), side="right") - 1]
                raise ValueError(f"video '{video}' has non-finite {self.coords.dtype} "
                                 "coordinates on filled joints")

    @staticmethod
    def check_index(videos: Sequence[str], labels: np.ndarray, offsets: np.ndarray,
                    frames: int) -> None:
        """The checks of a corpus that need none of its frames: a label per
        video, and offsets that rise from 0 to the frame count."""
        count = len(videos)
        if count == 0:
            raise ValueError("refusing to build an empty corpus")
        if labels.shape != (count,) or offsets.shape != (count + 1,):
            raise ValueError(f"{count} videos need {count} labels and {count + 1} offsets, got "
                             f"{labels.shape} and {offsets.shape}")
        if offsets[0] != 0 or offsets[-1] != frames or np.any(np.diff(offsets) < 1):
            raise ValueError(f"frame offsets must rise from 0 to {frames} with no empty video")

    @classmethod
    def of(cls, records: Sequence[Record]) -> "PoseCorpus":
        """The corpus of the given (video, coords, flags, label) records, in their order."""
        if not records:
            raise ValueError("refusing to build an empty corpus")
        videos, coords, flags, labels = zip(*records)
        if len({c.shape[1] for c in coords}) > 1:
            raise ValueError("corpus videos differ in joint count")
        return cls(
            videos=videos,
            labels=labels,
            offsets=np.cumsum([0] + [len(c) for c in coords], dtype=np.int64),
            coords=np.concatenate(coords),
            flags=np.concatenate(flags),
        )

    @property
    def num_joints(self) -> int:
        return self.coords.shape[1]


# Torso lengths at or below this cannot scale a frame.
TORSO_EPS = 1e-8


def normalize(corpus: PoseCorpus, topology: SkeletonTopology) -> PoseCorpus:
    """Rescale each frame by the torso length and center on the torso midpoint.

    Every filled joint is divided by the distance d between the topology's
    two torso anchors and shifted so the anchor midpoint lands on the
    origin; missing joints are left untouched and stay flagged missing.
    Frames where an anchor joint is missing, d <= TORSO_EPS, or the scale,
    shift or a normalized coordinate is not finite (huge joints over a tiny
    torso) cannot be normalized: they are unusable, and all their joints
    are demoted to missing (zeroed) so downstream filling treats them
    uniformly. Usable frames keep their anchors, so the unusable frames are
    exactly those left with no filled joint.
    """
    if corpus.num_joints != topology.n:
        raise ValueError(
            f"corpus has {corpus.num_joints} joints, topology '{topology.name}' expects {topology.n}"
        )
    flags = corpus.flags.copy()
    filled = flags > 0
    group_a, group_b = (list(group) for group in topology.torso_anchors)
    # Anchor means only over frames whose anchors are all present: the
    # coordinates of missing joints are arbitrary.
    anchored = np.flatnonzero(filled[:, group_a].all(axis=1) & filled[:, group_b].all(axis=1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = corpus.coords[anchored[:, None], group_a].mean(axis=1)
        b = corpus.coords[anchored[:, None], group_b].mean(axis=1)
        d = np.hypot(*(a - b).T)
        centers = (a + b) / (2.0 * d[:, None])
        keep = (d > TORSO_EPS) & np.isfinite(d) & np.isfinite(centers).all(axis=1)
        frames = anchored[keep]
        usable = np.zeros(len(flags), dtype=bool)
        usable[frames] = True
        scale = np.ones(len(flags))
        scale[frames] = d[keep]
        shift = np.zeros((len(flags), 2))
        shift[frames] = centers[keep]
        # Whole frames at once; missing joints and unusable frames are put back.
        coords = corpus.coords / scale[:, None, None]
        coords -= shift[:, None]
    moved = filled & usable[:, None]
    np.copyto(coords, corpus.coords, where=~moved[..., None])
    usable &= (np.isfinite(coords).all(axis=2) | ~moved).all(axis=1)
    coords[~usable] = 0.0
    flags[~usable] = VIS_MISSING
    return replace(corpus, coords=coords, flags=flags)


def temporal_interpolate(corpus: PoseCorpus, max_gap: int = 10) -> PoseCorpus:
    """Fill short visibility gaps per joint by linear interpolation.

    A gap is a run of missing frames bounded on both sides by filled frames
    of the same video. Gaps of length <= max_gap are filled per coordinate
    and flagged temporally interpolated; longer gaps and runs touching a
    video's first or last frame are left missing (no anchor, or the
    linear-motion assumption is not trusted that far). Filled coordinates
    are never modified.
    """
    filled = corpus.flags > 0
    num_frames = len(filled)
    frame = np.arange(num_frames)[:, None]
    lengths = np.diff(corpus.offsets)
    # Nearest filled frame at or before / at or after every (frame, joint),
    # over the whole corpus; one outside the frame's own video is no anchor.
    before = np.where(filled, frame, -1)
    np.maximum.accumulate(before, axis=0, out=before)
    after = np.where(filled, frame, num_frames)
    np.minimum.accumulate(after[::-1], axis=0, out=after[::-1])
    gap = ~filled & (after - before <= max_gap + 1)
    gap &= before >= np.repeat(corpus.offsets[:-1], lengths)[:, None]
    gap &= after < np.repeat(corpus.offsets[1:], lengths)[:, None]
    t, j = np.nonzero(gap)
    t0, t1 = before[t, j], after[t, j]
    del before, after  # freed before the corpus copies, where memory peaks
    coords = corpus.coords.copy()
    flags = corpus.flags.copy()
    steps = (t - t0).astype(np.float64) / (t1 - t0)
    coords[t, j] = coords[t0, j] * (1.0 - steps)[:, None] + coords[t1, j] * steps[:, None]
    flags[t, j] = VIS_TEMPORAL
    return replace(corpus, coords=coords, flags=flags)


# ---------------------------------------------------------------------------
# Spatial interpolation: pairwise polynomial voting
# ---------------------------------------------------------------------------

def _poly_features(xy: np.ndarray, degree: int) -> np.ndarray:
    """Map points (m, 2) to polynomial features (m, 3) or (m, 6)."""
    x, y = xy[:, 0], xy[:, 1]
    cols = [np.ones_like(x), x, y]
    if degree == 2:
        cols += [x * x, x * y, y * y]
    return np.stack(cols, axis=1)


def _feature_count(degree: int) -> int:
    return 3 if degree == 1 else 6


@dataclass
class SpatialModel:
    """Pairwise joint-position predictors used for missing-joint voting.

    For each ordered joint pair (source, target), coeffs[source, target]
    holds polynomial coefficients mapping the source's normalized (x, y) to
    the target's predicted (x, y). Pairs that no training frame fills
    together, or that the fit left out, are untrained and abstain from
    voting. A model fitted on a subset of pairs holds only for the corpus
    the subset was selected on; one fitted on every pair holds for any.

    A model file is a ``binio`` container (magic ``PSPM``) whose header
    holds ``topology_name``, ``degree`` (1 or 2) and ``joints`` n, followed
    by coeffs as float64 (n, n, 3 or 6, 2) and trained as uint8 0/1 (n, n).
    """

    topology_name: str
    degree: int
    coeffs: np.ndarray   # (n, n, n_features, 2)
    trained: np.ndarray  # (n, n) bool

    def predict(self, source, target, xy) -> np.ndarray:
        """Predicted positions of joints target from positions xy of joints source.

        xy is (..., 2) and so is the result. source and target are joint
        indices, or index arrays with one entry per row of xy.
        """
        xy = np.asarray(xy, dtype=np.float64)
        feats = _poly_features(xy.reshape(-1, 2), self.degree)
        return np.matmul(feats[:, None, :], self.coeffs[source, target])[:, 0].reshape(xy.shape)

    def check(self, topology: SkeletonTopology, poly_degree: int | None = None) -> None:
        """ValueError unless the model was fit on topology (and, if given, at poly_degree)."""
        if self.topology_name != topology.name:
            raise ValueError(f"spatial model was fit on '{self.topology_name}', "
                             f"not '{topology.name}'")
        if self.trained.shape != (topology.n, topology.n):
            raise ValueError(f"spatial model has {len(self.trained)} joints, "
                             f"topology '{topology.name}' has {topology.n}")
        if poly_degree is not None and self.degree != poly_degree:
            raise ValueError(f"spatial model has degree {self.degree}, "
                             f"but --poly-degree is {poly_degree}")

    def save(self, path: str | Path) -> None:
        header = {"topology_name": self.topology_name, "degree": self.degree,
                  "joints": len(self.trained)}
        MODEL_FILE.write(path, header, {"coeffs": self.coeffs,
                                        "trained": self.trained.astype(np.uint8)})

    @classmethod
    def load(cls, path: str | Path) -> "SpatialModel":
        """Read a model written by save; ValueError naming the file for
        anything that is not a complete, self-consistent model."""
        return MODEL_FILE.read(path, _model_of)


def _model_layout(header: dict) -> binio.Layout:
    degree, n = header["degree"], header["joints"]
    if degree not in (1, 2):
        raise ValueError(f"spatial model degree must be 1 or 2, got {degree}")
    return {"coeffs": ("<f8", (n, n, _feature_count(degree), 2)), "trained": ("u1", (n, n))}


def _model_of(header: dict, arrays: dict[str, np.ndarray]) -> SpatialModel:
    coeffs, trained = arrays["coeffs"], arrays["trained"]
    if not np.isfinite(coeffs).all():
        raise ValueError("spatial model coeffs have non-finite entries")
    if trained.max(initial=0) > 1:
        raise ValueError("spatial model trained flags must be 0 or 1")
    return SpatialModel(topology_name=header["topology_name"], degree=header["degree"],
                        coeffs=coeffs, trained=trained.view(bool))


MODEL_FILE = binio.FileKind("spatial model", b"PSPM", 1,
                            {"topology_name": str, "degree": int, "joints": int}, _model_layout)


def fit_spatial_model(corpus: PoseCorpus, topology: SkeletonTopology, degree: int = 1,
                      pairs: np.ndarray | None = None) -> SpatialModel:
    """Least-squares fit of ordered joint pairs over a normalized corpus.

    pairs is an (n, n) bool mask [source, target] of the pairs to fit; None
    fits every pair. For each pair the target position is regressed on
    polynomial features of the source position, using every corpus frame
    where both joints are filled. A rank-deficient design (e.g. a
    single-frame corpus) falls back to a mean-offset model: target = source
    + mean(target - source). Pairs outside the mask, and pairs that are
    never filled together, stay untrained. A fitted pair's coefficients do
    not depend on the mask, but a model fitted on a subset (such as
    ``voting_pairs`` of a corpus) holds only for the corpus the subset was
    selected on.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if corpus.num_joints != topology.n:
        raise ValueError(f"corpus has {corpus.num_joints} joints, expected {topology.n}")
    n = topology.n
    pairs = np.ones((n, n), dtype=bool) if pairs is None else np.asarray(pairs, dtype=bool)
    if pairs.shape != (n, n):
        raise ValueError(f"pairs must have shape ({n}, {n}), got {pairs.shape}")
    pairs = pairs & ~np.eye(n, dtype=bool)

    # Joint-major (n, frames, ...) layout: every pair reads two contiguous rows.
    # Missing joints hold arbitrary coordinates; zeros keep the features finite.
    filled = (corpus.flags > 0).T.copy()
    coords = np.where(filled[..., None], corpus.coords.transpose(1, 0, 2), 0.0)

    n_feat = _feature_count(degree)
    coeffs = np.zeros((n, n, n_feat, 2))
    trained = np.zeros((n, n), dtype=bool)

    for s in np.flatnonzero(pairs.any(axis=1)):
        features = _poly_features(coords[s], degree)
        for t in np.flatnonzero(pairs[s]):
            rows = np.flatnonzero(filled[s] & filled[t])
            if not rows.size:
                continue
            target = coords[t].take(rows, axis=0)
            solution, _, rank, _ = np.linalg.lstsq(features.take(rows, axis=0), target, rcond=None)
            if rank < n_feat:
                offset = (target - coords[s].take(rows, axis=0)).mean(axis=0)
                solution = np.zeros((n_feat, 2))
                solution[0] = offset
                solution[1, 0] = 1.0
                solution[2, 1] = 1.0
            coeffs[s, t] = solution
            trained[s, t] = True
    return SpatialModel(topology_name=topology.name, degree=degree, coeffs=coeffs, trained=trained)


@functools.lru_cache(maxsize=8)
def _voter_groups(topology: SkeletonTopology) -> tuple[np.ndarray, np.ndarray]:
    """(n, n) masks [missing joint, voter]: same limb part, and torso voter for
    an upper-body joint."""
    parts = np.array(topology.parts)
    upper = np.isin(np.arange(topology.n), list(upper_body_joints(topology)))
    masks = (parts[:, None] == parts) & (parts[:, None] <= 4), upper[:, None] & (parts == 5)
    for mask in masks:
        mask.flags.writeable = False  # shared by every caller through the cache
    return masks


def _votes(
    flags: np.ndarray, trained: np.ndarray, topology: SkeletonTopology
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The missing (frame, joint) rows t, j of flags, in frame-major order,
    and the (rows, n) mask of each row's voters whose pair [voter, joint] is
    trained: the voter rule of spatial_interpolate, for the fill and for
    voting_pairs alike."""
    same_limb, torso = _voter_groups(topology)
    filled = flags > 0
    t, j = np.nonzero(~filled)
    seen = filled[t]
    limb_voters = seen & same_limb[j]
    torso_voters = seen & torso[j]
    voters = np.where(limb_voters.any(axis=1, keepdims=True), limb_voters,
                      np.where(torso_voters.any(axis=1, keepdims=True), torso_voters, seen))
    return t, j, voters & trained.T[j]


def voting_pairs(corpus: PoseCorpus, topology: SkeletonTopology) -> np.ndarray:
    """The (n, n) mask [voter, missing joint] of the pairs spatial_interpolate
    reads on this normalized corpus: a model fitted on just these pairs
    fills it as a model fitted on every pair does.

    A pair counts when its voter votes on some missing joint and some frame
    fills both of its joints, so that it can be trained at all.
    """
    filled = corpus.flags > 0
    _, j, votes = _votes(corpus.flags, filled.T @ filled, topology)
    row, voter = np.nonzero(votes)
    pairs = np.zeros((topology.n, topology.n), dtype=bool)
    pairs[voter, j[row]] = True
    return pairs


def spatial_interpolate(
    corpus: PoseCorpus, model: SpatialModel, topology: SkeletonTopology
) -> PoseCorpus:
    """Fill still-missing joints from same-frame neighbors.

    Voter selection per missing joint: filled joints of the same body part
    when that part is one of the four limbs; if none, filled torso-group
    (part 5) joints when the missing joint is an upper-body joint; otherwise
    every filled joint in the frame. Each voter with a trained pair model
    predicts the missing position and the fill is the mean prediction
    (untrained voters abstain). Voter sets are taken from the visibility
    state before any fill in the frame, so fills never chain within a frame.
    Joints left without a single vote are set to (0, 0) and flagged
    synthetic; the output has no missing entries.
    """
    model.check(topology)
    if corpus.num_joints != topology.n:
        raise ValueError(f"corpus has {corpus.num_joints} joints, topology expects {topology.n}")

    coords = corpus.coords.copy()
    flags = corpus.flags.copy()
    t, j, votes = _votes(flags, model.trained, topology)
    row, voter = np.nonzero(votes)
    predictions = model.predict(voter, j[row], coords[t[row], voter])
    count = votes.sum(axis=1)
    first = np.cumsum(count) - count

    coords[t, j] = 0.0
    flags[t, j] = VIS_SYNTHETIC
    # Rows with k votes at once, as a (rows, k, 2) mean: that reduces each
    # row's votes in the same order as a mean over that row's vote list.
    for k in np.flatnonzero(np.bincount(count)[1:]) + 1:
        rows = np.flatnonzero(count == k)
        coords[t[rows], j[rows]] = predictions[first[rows, None] + np.arange(k)].mean(axis=1)
        flags[t[rows], j[rows]] = VIS_SPATIAL
    return replace(corpus, coords=coords, flags=flags)


def zero_fill(corpus: PoseCorpus) -> PoseCorpus:
    """Set every missing joint to (0, 0) synthetic, with no model voting.

    Baseline used to measure what interpolation buys; also the final
    fallback the full pipeline applies via spatial_interpolate.
    """
    coords = corpus.coords.copy()
    flags = corpus.flags.copy()
    missing = flags == VIS_MISSING
    coords[missing] = 0.0
    flags[missing] = VIS_SYNTHETIC
    return replace(corpus, coords=coords, flags=flags)


# ---------------------------------------------------------------------------
# Annotation file I/O
# ---------------------------------------------------------------------------

def _parse_frames(frames: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, n, 2) float64 coordinates and (T, n) visibility of a ``frames`` list.

    A well-formed list passes with one ``np.array`` call and array checks.
    Any other list is walked triple by triple in row-major order, and the
    first defect raises AnnotationError naming its frame and joint.
    """
    try:
        table = np.array(frames)
    except (ValueError, TypeError, OverflowError):
        table = None
    if table is not None and table.shape == (len(frames), n, 3) and table.dtype.kind in "biuf":
        coords, vis = table[..., :2].astype(np.float64), table[..., 2]
        if ((vis == 0) | (vis == 1)).all() and np.isfinite(coords[vis == 1]).all():
            return coords, vis.astype(np.uint8)
    for t, frame in enumerate(frames):
        if not isinstance(frame, list) or len(frame) != n:
            raise AnnotationError(f"frame {t} does not have exactly {n} joint entries")
        for j, entry in enumerate(frame):
            if not isinstance(entry, list) or len(entry) != 3:
                raise AnnotationError(f"frame {t} joint {j} is not an [x, y, vis] triple")
            x, y, v = entry
            if not all(isinstance(f, (int, float)) for f in (x, y, v)):
                raise AnnotationError(f"frame {t} joint {j} has non-numeric entries")
            if v not in (0, 1):
                raise AnnotationError(f"frame {t} joint {j} visibility must be 0 or 1, got {v!r}")
            try:
                x, y = float(x), float(y)
            except OverflowError:
                raise AnnotationError(
                    f"frame {t} joint {j} has an integer coordinate outside the float64 range"
                ) from None
            if v and not (math.isfinite(x) and math.isfinite(y)):
                raise AnnotationError(f"frame {t} joint {j} visible with non-finite coordinates")
    # No defect: integers too large for int64 (or no joints) kept the fast path away.
    table = np.array(frames, dtype=np.float64).reshape(len(frames), n, 3)
    return table[..., :2], table[..., 2].astype(np.uint8)


def pose_from_record(record: dict, n_expected: int | None = None) -> Record:
    """Parse one annotation record into its corpus fields; raises
    AnnotationError on any defect."""
    if not isinstance(record, dict):
        raise AnnotationError("record is not a JSON object")
    try:
        video = record["video"]
        n = int(record["n"])
        frames = record["frames"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise AnnotationError(f"missing or malformed field: {exc}") from None
    if not isinstance(video, str) or not video:
        raise AnnotationError("'video' must be a non-empty string")
    if not is_video_id(video):
        raise AnnotationError(f"video id {video!r} {ID_RULE}")
    if n_expected is not None and n != n_expected:
        raise AnnotationError(f"record has n={n}, expected n={n_expected}")
    if not isinstance(frames, list) or not frames:
        raise AnnotationError("'frames' must be a non-empty list")
    coords, vis = _parse_frames(frames, n)
    label = record.get("label")
    if label is not None and (type(label) is not int or not 0 <= label < 2**31):
        # reprlib: a label nested thousands deep would exhaust repr's recursion.
        raise AnnotationError(f"'label' must be an integer in [0, 2**31), "
                              f"got {reprlib.repr(label)}")
    return video, coords, vis, -1 if label is None else label


# orjson builds nested values recursively with no depth limit: 53,000 nested
# objects overflowed an 8 MB stack, ~160 bytes of stack per level and ~32 per
# byte of line. So a line goes to orjson only when it is at most
# _ORJSON_MAX_BYTES long or has at most _ORJSON_MAX_OPENERS opening brackets
# (each bound keeps the stack under ~2 MB); any other is rejected as nested
# too deeply. A record of T frames and n joints has 1 + T * (n + 1) opening
# brackets.
_ORJSON_MAX_BYTES = 1 << 16
_ORJSON_MAX_OPENERS = 8192


def parse_annotation_line(line: bytes, n_expected: int | None = None) -> Record | None:
    """One annotation line (UTF-8 bytes) to its corpus fields; None for ``_meta`` lines.

    Raises AnnotationError for bytes that are not UTF-8 and JSON syntax
    errors as well as schema violations, so callers can choose between
    failing fast and skipping bad records.
    """
    import orjson  # only commands that read annotations pay for the import

    if (len(line) <= _ORJSON_MAX_BYTES
            or line.count(b"[") + line.count(b"{") <= _ORJSON_MAX_OPENERS):
        try:
            obj = orjson.loads(line)
        except orjson.JSONDecodeError as exc:
            error = exc.msg
        else:
            if isinstance(obj, dict) and "_meta" in obj:
                return None
            return pose_from_record(obj, n_expected=n_expected)
    else:
        error = "nested too deeply"
    try:
        line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AnnotationError(f"line is not UTF-8 (bad byte at offset {exc.start})") from None
    raise AnnotationError(f"invalid JSON ({error})")


def iter_annotation_lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """(line number, raw bytes) for every non-blank line of an annotation file.

    Lines end at LF, CR or CR LF, and a line is blank when ``str.strip``
    empties its text: the lines and numbers a text-mode reader sees, without
    decoding the file, so one line that is not UTF-8 fails alone.
    """
    lineno = 0
    with open(path, "rb", buffering=1 << 17) as handle:  # records run to tens of KB
        for chunk in handle:
            for line in chunk.splitlines() if b"\r" in chunk else (chunk,):
                lineno += 1
                if not _is_blank(line):
                    yield lineno, line


def _is_blank(line: bytes) -> bool:
    """Whether ``str.strip`` empties the line's text."""
    if b"!" <= line.lstrip()[:1] <= b"~":  # the usual case: a line starting '{'
        return False
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


def write_annotations(path: str | Path, corpus: PoseCorpus, meta: dict | None = None) -> None:
    """One annotation line per video; fill provenance collapses to vis 1.

    An id the reader would reject (see ``config.is_video_id``), or a meta
    value that is not finite or lies beyond the float64 range, raises
    ValueError before the file is opened.

    Each line is, byte for byte, ``json.dumps(record)`` of the record
    ``{"video": ..., "n": ..., "frames": [[[x, y, vis], ...], ...]}`` with
    float coordinates, vis 0 or 1 and ``"label"`` last where it is not -1,
    after an optional ``json.dumps({"_meta": meta}, sort_keys=True)`` line.
    A coordinate that is not finite, which only a missing joint can hold and
    no stage reads, is written as 0.0, so every line is RFC 8259 JSON.

    A video's frames are one (T, n, 3) float64 array of x, y and vis, which
    orjson writes compactly. That text holds only numbers, brackets and
    commas, so two byte replaces make it json's: each vis loses its ``.0``
    (only a vis is followed by ``]``) and each comma gains a space. orjson
    writes the shortest round-trip digits, as ``repr`` does, but where
    ``repr`` switches to exponent form it writes ``0.00001`` or ``1e16``. So
    a video with a coordinate nonzero below 1e-4 or at least 1e16 in
    magnitude has its frames written by a compact ``json.dumps`` instead,
    before the same replaces. The envelope around the frames, the id above
    all, is always ``json.dumps``'s.
    """
    import orjson  # only commands that write annotations pay for the import

    check_video_ids(corpus.videos)
    head = b""
    if meta is not None:
        head = json.dumps({"_meta": meta}, sort_keys=True, allow_nan=False).encode() + b"\n"
        try:
            orjson.loads(head)
        except orjson.JSONDecodeError as exc:  # an integer beyond the float64 range
            raise ValueError(f"meta is not RFC 8259 JSON ({exc.msg})") from None
    joints = np.concatenate((corpus.coords, (corpus.flags > 0)[..., None]), axis=2)
    np.nan_to_num(joints, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    size = np.abs(joints[..., :2])
    plain = ((size == 0) | ((size >= 1e-4) & (size < 1e16))).all(axis=(1, 2))
    plain = np.logical_and.reduceat(plain, corpus.offsets[:-1])  # no video is empty
    with open(path, "wb") as handle:
        handle.write(head)
        for i, video in enumerate(corpus.videos):
            frames = joints[corpus.offsets[i]:corpus.offsets[i + 1]]
            if plain[i]:
                text = orjson.dumps(frames, option=orjson.OPT_SERIALIZE_NUMPY)
            else:
                text = json.dumps(frames.tolist(), separators=(",", ":")).encode()
            text = text.replace(b".0]", b"]").replace(b",", b", ")
            label = b"" if corpus.labels[i] < 0 else b', "label": %d' % corpus.labels[i]
            handle.write(b'{"video": %s, "n": %d, "frames": %s%s}\n'
                         % (json.dumps(video).encode(), corpus.num_joints, text, label))
