"""Pose cleanup ahead of tensor building: normalization and gap filling.

The pipeline order is fixed: linear temporal interpolation runs on raw pixel
coordinates (so torso joints can be recovered before they are needed),
normalization rescales each frame by the torso length and centers it on the
torso midpoint, and spatial interpolation then fills whatever is still
missing by letting visible joints vote through learned pairwise polynomial
models in the scale-free normalized space. Joints nothing can recover are
set to the torso center (0, 0) and flagged synthetic, never left marked
invalid.

A parsed annotation record is a ``PoseSequence``; ``PoseCorpus.of``
concatenates the records once into a ``PoseCorpus``, the frames of every
video as one set of arrays with per-video frame offsets. Each stage maps a
whole ``PoseCorpus`` to a new one in a few array passes. Temporal
interpolation is the only stage that looks at video boundaries; the others
work frame by frame.

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
"""

from __future__ import annotations

import functools
import json
import math
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .skeleton import SkeletonTopology, upper_body_joints

VIS_MISSING = 0
VIS_OBSERVED = 1
VIS_TEMPORAL = 2
VIS_SPATIAL = 3
VIS_SYNTHETIC = 4


class AnnotationError(ValueError):
    """Malformed annotation record."""


@dataclass
class PoseSequence:
    """Per-frame 2D joints for one person in one video, in pixel coordinates:
    one annotation record.

    coords has shape (T, n, 2) and visibility (T, n); coordinates are only
    meaningful where visibility > 0.
    """

    video: str
    coords: np.ndarray
    visibility: np.ndarray
    label: int | None = None

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.visibility = np.asarray(self.visibility, dtype=np.uint8)
        if self.coords.ndim != 3 or self.coords.shape[2] != 2:
            raise ValueError(f"coords must have shape (T, n, 2), got {self.coords.shape}")
        if self.visibility.shape != self.coords.shape[:2]:
            raise ValueError(
                f"visibility shape {self.visibility.shape} does not match coords {self.coords.shape[:2]}"
            )
        filled = self.coords[self.visibility > 0]
        if filled.size and not np.isfinite(filled).all():
            raise ValueError(f"video '{self.video}': non-finite coordinates on visible joints")

    @property
    def num_frames(self) -> int:
        return self.coords.shape[0]

    @property
    def num_joints(self) -> int:
        return self.coords.shape[1]


@dataclass
class PoseCorpus:
    """The frames of every video of a corpus as one set of arrays.

    Video i owns rows offsets[i] to offsets[i+1] - 1 of coords and flags.
    flags holds fill provenance (0 missing .. 4 synthetic); coordinates are
    only meaningful where flags > 0.
    """

    videos: tuple[str, ...]
    labels: np.ndarray   # (V,) int64, -1 where absent
    offsets: np.ndarray  # (V+1,) int64
    coords: np.ndarray   # (F, n, 2) float64
    flags: np.ndarray    # (F, n) uint8

    def __post_init__(self) -> None:
        self.videos = tuple(self.videos)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.flags = np.asarray(self.flags, dtype=np.uint8)
        count = len(self.videos)
        if count == 0:
            raise ValueError("refusing to build an empty corpus")
        if self.labels.shape != (count,) or self.offsets.shape != (count + 1,):
            raise ValueError(f"{count} videos need {count} labels and {count + 1} offsets, got "
                             f"{self.labels.shape} and {self.offsets.shape}")
        if self.coords.ndim != 3 or self.coords.shape[2] != 2:
            raise ValueError(f"coords must have shape (F, n, 2), got {self.coords.shape}")
        if self.flags.shape != self.coords.shape[:2]:
            raise ValueError(f"flags shape {self.flags.shape} does not match coords "
                             f"{self.coords.shape[:2]}")
        if (self.offsets[0] != 0 or self.offsets[-1] != len(self.coords)
                or np.any(np.diff(self.offsets) < 1)):
            raise ValueError(f"frame offsets must rise from 0 to {len(self.coords)} "
                             "with no empty video")
        if not np.isfinite(self.coords).all():
            bad = ((self.flags > 0) & ~np.isfinite(self.coords).all(axis=2)).any(axis=1)
            if bad.any():
                video = self.videos[np.searchsorted(self.offsets, bad.argmax(), side="right") - 1]
                raise ValueError(f"video '{video}' has non-finite coordinates on filled joints")

    @classmethod
    def of(cls, poses: Sequence[PoseSequence]) -> "PoseCorpus":
        """The corpus of the given records, in their order."""
        if not poses:
            raise ValueError("refusing to build an empty corpus")
        if len({p.num_joints for p in poses}) > 1:
            raise ValueError("corpus videos differ in joint count")
        return cls(
            videos=tuple(p.video for p in poses),
            labels=np.array([-1 if p.label is None else p.label for p in poses], dtype=np.int64),
            offsets=np.cumsum([0] + [p.num_frames for p in poses], dtype=np.int64),
            coords=np.concatenate([p.coords for p in poses]),
            flags=np.concatenate([p.visibility for p in poses]),
        )

    @property
    def num_joints(self) -> int:
        return self.coords.shape[1]


def normalize(corpus: PoseCorpus, topology: SkeletonTopology, eps: float = 1e-8) -> PoseCorpus:
    """Rescale each frame by the torso length and center on the torso midpoint.

    Every filled joint is divided by the distance d between the topology's
    two torso anchors and shifted so the anchor midpoint lands on the
    origin; missing joints are left untouched and stay flagged missing.
    Frames where an anchor joint is missing, d <= eps, or the scale, shift
    or a normalized coordinate is not finite (huge joints over a tiny
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
        keep = (d > eps) & np.isfinite(d) & np.isfinite(centers).all(axis=1)
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


_MODEL_FIELDS = ("topology_name", "degree", "coeffs", "trained", "counts")


@dataclass
class SpatialModel:
    """Pairwise joint-position predictors used for missing-joint voting.

    For each ordered joint pair (source, target), coeffs[source, target]
    holds polynomial coefficients mapping the source's normalized (x, y) to
    the target's predicted (x, y). Pairs with fewer than the minimum number
    of training samples are left untrained and abstain from voting.
    """

    topology_name: str
    degree: int
    coeffs: np.ndarray   # (n, n, n_features, 2)
    trained: np.ndarray  # (n, n) bool
    counts: np.ndarray   # (n, n) int64

    def predict(self, source, target, xy) -> np.ndarray:
        """Predicted positions of joints target from positions xy of joints source.

        xy is (..., 2) and so is the result. source and target are joint
        indices, or index arrays with one entry per row of xy.
        """
        xy = np.asarray(xy, dtype=np.float64)
        feats = _poly_features(xy.reshape(-1, 2), self.degree)
        return np.matmul(feats[:, None, :], self.coeffs[source, target])[:, 0].reshape(xy.shape)

    def save(self, path: str | Path) -> None:
        # Write through a handle so numpy cannot append a .npz suffix.
        with open(path, "wb") as handle:
            np.savez(
                handle,
                topology_name=np.array(self.topology_name),
                degree=np.array(self.degree),
                coeffs=self.coeffs,
                trained=self.trained,
                counts=self.counts,
            )

    @classmethod
    def load(cls, path: str | Path) -> "SpatialModel":
        """Read a model written by save; ValueError naming the file and the field
        for anything that is not a complete, self-consistent model."""
        fields: dict[str, np.ndarray] = {}
        # Through a handle: np.load leaks the file it opened when the zip is bad.
        with open(path, "rb") as handle:
            try:
                archive = np.load(handle, allow_pickle=False)
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise ValueError(f"{path}: not a spatial model .npz file ({exc})") from None
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError(f"{path}: not a spatial model .npz file (a single .npy array)")
            with archive:
                for name in _MODEL_FIELDS:
                    if name not in archive.files:
                        raise ValueError(f"{path}: spatial model field '{name}' is missing")
                    try:
                        fields[name] = archive[name]
                    except (ValueError, EOFError, OSError, zipfile.BadZipFile) as exc:
                        raise ValueError(
                            f"{path}: spatial model field '{name}' is unreadable ({exc})"
                        ) from None

        def bad(name: str, rule: str) -> ValueError:
            array = fields[name]
            return ValueError(f"{path}: spatial model field '{name}' must be {rule}, "
                              f"got {array.dtype} array of shape {array.shape}")

        name, degree, coeffs, trained, counts = (fields[k] for k in _MODEL_FIELDS)
        if name.shape != () or name.dtype.kind != "U":
            raise bad("topology_name", "a string")
        if degree.shape != () or degree.dtype.kind not in "iu" or int(degree) not in (1, 2):
            raise bad("degree", "the integer 1 or 2")
        n_feat = _feature_count(int(degree))
        n = coeffs.shape[0] if coeffs.ndim else 0
        if coeffs.dtype.kind != "f" or coeffs.shape != (n, n, n_feat, 2):
            raise bad("coeffs", f"a float (n, n, {n_feat}, 2) array for degree {int(degree)}")
        if not np.isfinite(coeffs).all():
            raise ValueError(f"{path}: spatial model field 'coeffs' has non-finite entries")
        if trained.dtype != bool or trained.shape != (n, n):
            raise bad("trained", f"a bool ({n}, {n}) array")
        if counts.dtype.kind not in "iu" or counts.shape != (n, n):
            raise bad("counts", f"an integer ({n}, {n}) array")
        return cls(topology_name=str(name), degree=int(degree),
                   coeffs=coeffs.astype(np.float64), trained=trained, counts=counts)


def fit_spatial_model(
    corpus: PoseCorpus,
    topology: SkeletonTopology,
    degree: int = 1,
    min_samples: int = 1,
) -> SpatialModel:
    """Least-squares fit of every ordered joint pair over a normalized corpus.

    For each pair the target position is regressed on polynomial features of
    the source position, using every corpus frame where both joints are
    filled. A rank-deficient design (e.g. a single-frame corpus) falls back
    to a mean-offset model: target = source + mean(target - source). Pairs
    with fewer than min_samples joint observations stay untrained.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if corpus.num_joints != topology.n:
        raise ValueError(f"corpus has {corpus.num_joints} joints, expected {topology.n}")

    # Joint-major (n, frames, ...) layout: every pair reads two contiguous rows.
    # Missing joints hold arbitrary coordinates; zeros keep the features finite.
    filled = (corpus.flags > 0).T.copy()
    coords = np.where(filled[..., None], corpus.coords.transpose(1, 0, 2), 0.0)

    n = topology.n
    n_feat = _feature_count(degree)
    coeffs = np.zeros((n, n, n_feat, 2))
    trained = np.zeros((n, n), dtype=bool)
    counts = np.zeros((n, n), dtype=np.int64)

    for s in range(n):
        features = _poly_features(coords[s], degree)
        for t in range(n):
            if s == t:
                continue
            rows = np.flatnonzero(filled[s] & filled[t])
            counts[s, t] = rows.size
            if rows.size < max(min_samples, 1):
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
    return SpatialModel(
        topology_name=topology.name, degree=degree, coeffs=coeffs, trained=trained, counts=counts
    )


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
    if model.topology_name != topology.name:
        raise ValueError(
            f"spatial model was fit on '{model.topology_name}', not '{topology.name}'"
        )
    n = topology.n
    if corpus.num_joints != n:
        raise ValueError(f"corpus has {corpus.num_joints} joints, topology expects {n}")
    if model.trained.shape != (n, n):
        raise ValueError(f"spatial model has {model.trained.shape[0]} joints, topology expects {n}")

    coords = corpus.coords.copy()
    flags = corpus.flags.copy()
    same_limb, torso = _voter_groups(topology)

    # One row per missing (frame, joint), in frame-major order.
    filled = flags > 0
    t, j = np.nonzero(~filled)
    seen = filled[t]
    limb_voters = seen & same_limb[j]
    torso_voters = seen & torso[j]
    voters = np.where(limb_voters.any(axis=1, keepdims=True), limb_voters,
                      np.where(torso_voters.any(axis=1, keepdims=True), torso_voters, seen))
    votes = voters & model.trained.T[j]
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

def pose_to_record(pose: PoseSequence) -> dict:
    """Annotation record for one video; fill provenance collapses to vis 1."""
    frames = [
        [
            [float(x), float(y), 1 if v > 0 else 0]
            for (x, y), v in zip(frame_xy, frame_vis)
        ]
        for frame_xy, frame_vis in zip(pose.coords, pose.visibility)
    ]
    record: dict = {"video": pose.video, "n": pose.num_joints, "frames": frames}
    if pose.label is not None:
        record["label"] = int(pose.label)
    return record


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


def pose_from_record(record: dict, n_expected: int | None = None) -> PoseSequence:
    """Parse one annotation record; raises AnnotationError on any defect."""
    if not isinstance(record, dict):
        raise AnnotationError("record is not a JSON object")
    try:
        video = record["video"]
        n = int(record["n"])
        frames = record["frames"]
    except (KeyError, TypeError, ValueError) as exc:
        raise AnnotationError(f"missing or malformed field: {exc}") from None
    if not isinstance(video, str) or not video:
        raise AnnotationError("'video' must be a non-empty string")
    # Score and label CSVs join fields with bare commas, one row per line, and
    # the corpus file stores ids as UTF-8, which has no unpaired surrogates.
    if video.startswith("#") or any(c in ',"\r\n' or "\ud800" <= c <= "\udfff" for c in video):
        raise AnnotationError(
            f"video id {video!r} must not contain ',', '\"', CR, LF or unpaired "
            "surrogates, nor start with '#'"
        )
    if n_expected is not None and n != n_expected:
        raise AnnotationError(f"record has n={n}, expected n={n_expected}")
    if not isinstance(frames, list) or not frames:
        raise AnnotationError("'frames' must be a non-empty list")
    coords, vis = _parse_frames(frames, n)
    label = record.get("label")
    if label is not None and (type(label) is not int or not 0 <= label < 2**31):
        raise AnnotationError(f"'label' must be an integer in [0, 2**31), got {label!r}")
    try:
        return PoseSequence(video=video, coords=coords, visibility=vis, label=label)
    except ValueError as exc:
        raise AnnotationError(str(exc)) from None


def parse_annotation_line(line: str, n_expected: int | None = None) -> PoseSequence | None:
    """One annotation line to a PoseSequence; None for ``_meta`` lines.

    Raises AnnotationError for JSON syntax errors as well as schema
    violations, so callers can choose between failing fast and skipping
    bad records.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise AnnotationError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise AnnotationError("invalid JSON (nested too deeply)") from None
    if isinstance(obj, dict) and "_meta" in obj:
        return None
    return pose_from_record(obj, n_expected=n_expected)


def iter_annotation_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, raw text) for every non-blank line of an annotation file."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                yield lineno, line


def write_annotations(
    path: str | Path, poses: Iterable[PoseSequence], meta: dict | None = None
) -> None:
    lines = []
    if meta is not None:
        lines.append(json.dumps({"_meta": meta}, sort_keys=True))
    lines.extend(json.dumps(pose_to_record(p)) for p in poses)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
