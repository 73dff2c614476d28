"""Pose cleanup ahead of tensor building: normalization and gap filling.

The pipeline order is fixed: linear temporal interpolation runs on raw pixel
coordinates (so torso joints can be recovered before they are needed),
normalization rescales each frame by the torso length and centers it on the
torso midpoint, and spatial interpolation then fills whatever is still
missing by letting visible joints vote through learned pairwise polynomial
models in the scale-free normalized space. Joints nothing can recover are
set to the torso center (0, 0) and flagged synthetic, never left marked
invalid.

Visibility flags carry provenance: 0 missing, 1 observed, 2 temporally
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

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

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
    """Per-frame 2D joints for one person in one video, in pixel coordinates.

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
class NormalizedPoseSequence(PoseSequence):
    """A pose sequence in torso units: torso length 1, torso midpoint at (0, 0).

    frame_usable marks frames whose torso segment could be resolved; on
    unusable frames every joint is demoted to missing (their raw pixel
    coordinates have no meaning in normalized space).
    """

    frame_usable: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.frame_usable is None:
            self.frame_usable = np.ones(self.num_frames, dtype=bool)
        else:
            self.frame_usable = np.asarray(self.frame_usable, dtype=bool)
        if self.frame_usable.shape != (self.num_frames,):
            raise ValueError("frame_usable must have one entry per frame")


def _anchor_point(coords: np.ndarray, vis: np.ndarray, group: tuple[int, ...]) -> np.ndarray | None:
    """Mean position of an anchor group, or None if any member is missing."""
    idx = list(group)
    if np.any(vis[idx] == 0):
        return None
    return coords[idx].mean(axis=0)


def normalize(
    pose: PoseSequence, topology: SkeletonTopology, eps: float = 1e-8
) -> NormalizedPoseSequence:
    """Rescale each frame by the torso length and center on the torso midpoint.

    Every filled joint is divided by the distance d between the topology's
    two torso anchors and shifted so the anchor midpoint lands on the
    origin; missing joints are left untouched and stay flagged missing.
    Frames where an anchor joint is missing or d <= eps cannot be
    normalized: they are flagged unusable and all their joints are demoted
    to missing (zeroed) so downstream filling treats them uniformly.
    """
    if pose.num_joints != topology.n:
        raise ValueError(
            f"video '{pose.video}' has {pose.num_joints} joints, topology "
            f"'{topology.name}' expects {topology.n}"
        )
    coords = pose.coords.copy()
    vis = pose.visibility.copy()
    usable = np.ones(pose.num_frames, dtype=bool)
    group_a, group_b = topology.torso_anchors
    for t in range(pose.num_frames):
        a = _anchor_point(coords[t], vis[t], group_a)
        b = _anchor_point(coords[t], vis[t], group_b)
        if a is None or b is None:
            usable[t] = False
            continue
        d = float(np.hypot(*(a - b)))
        if d <= eps:
            usable[t] = False
            continue
        center = (a + b) / (2.0 * d)
        filled = vis[t] > 0
        coords[t, filled] = coords[t, filled] / d - center
    coords[~usable] = 0.0
    vis[~usable] = VIS_MISSING
    return NormalizedPoseSequence(
        video=pose.video,
        coords=coords,
        visibility=vis,
        label=pose.label,
        frame_usable=usable,
    )


def temporal_interpolate(pose: PoseSequence, max_gap: int = 10) -> PoseSequence:
    """Fill short visibility gaps per joint by linear interpolation.

    A gap is a run of missing frames bounded on both sides by filled frames.
    Gaps of length <= max_gap are filled per coordinate and flagged
    temporally interpolated; longer gaps and runs touching the sequence
    boundary are left missing (no anchor, or the linear-motion assumption
    is not trusted that far). Filled/visible coordinates are never modified.
    """
    coords = pose.coords.copy()
    vis = pose.visibility.copy()
    for j in range(pose.num_joints):
        anchors = np.flatnonzero(vis[:, j] > 0)
        for t0, t1 in zip(anchors[:-1], anchors[1:]):
            gap = t1 - t0 - 1
            if gap == 0 or gap > max_gap:
                continue
            steps = np.arange(1, gap + 1, dtype=np.float64) / (t1 - t0)
            coords[t0 + 1:t1, j] = (
                coords[t0, j] * (1.0 - steps)[:, None] + coords[t1, j] * steps[:, None]
            )
            vis[t0 + 1:t1, j] = VIS_TEMPORAL
    return replace(pose, coords=coords, visibility=vis)


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
    the target's predicted (x, y). Pairs with fewer than the minimum number
    of training samples are left untrained and abstain from voting.
    """

    topology_name: str
    degree: int
    coeffs: np.ndarray   # (n, n, n_features, 2)
    trained: np.ndarray  # (n, n) bool
    counts: np.ndarray   # (n, n) int64

    def predict(self, source: int, target: int, xy: np.ndarray) -> np.ndarray:
        feats = _poly_features(np.asarray(xy, dtype=np.float64)[None, :], self.degree)
        return feats[0] @ self.coeffs[source, target]

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
        with np.load(path, allow_pickle=False) as data:
            return cls(
                topology_name=str(data["topology_name"]),
                degree=int(data["degree"]),
                coeffs=data["coeffs"],
                trained=data["trained"],
                counts=data["counts"],
            )


def fit_spatial_model(
    corpus: Iterable[NormalizedPoseSequence],
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
    sequences = list(corpus)
    if not sequences:
        raise ValueError("spatial model corpus is empty")
    for seq in sequences:
        if seq.num_joints != topology.n:
            raise ValueError(
                f"corpus video '{seq.video}' has {seq.num_joints} joints, expected {topology.n}"
            )

    coords = np.concatenate([s.coords for s in sequences], axis=0)
    filled = np.concatenate([s.visibility for s in sequences], axis=0) > 0

    n = topology.n
    n_feat = _feature_count(degree)
    coeffs = np.zeros((n, n, n_feat, 2))
    trained = np.zeros((n, n), dtype=bool)
    counts = np.zeros((n, n), dtype=np.int64)

    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            both = filled[:, s] & filled[:, t]
            m = int(both.sum())
            counts[s, t] = m
            if m < max(min_samples, 1):
                continue
            src = coords[both, s]
            design = _poly_features(src, degree)
            target = coords[both, t]
            solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
            if rank < n_feat:
                offset = (target - src).mean(axis=0)
                solution = np.zeros((n_feat, 2))
                solution[0] = offset
                solution[1, 0] = 1.0
                solution[2, 1] = 1.0
            coeffs[s, t] = solution
            trained[s, t] = True
    return SpatialModel(
        topology_name=topology.name, degree=degree, coeffs=coeffs, trained=trained, counts=counts
    )


def spatial_interpolate(
    pose: NormalizedPoseSequence,
    model: SpatialModel,
    topology: SkeletonTopology,
) -> NormalizedPoseSequence:
    """Fill still-missing joints from same-frame neighbors, frame by frame.

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
    if pose.num_joints != topology.n:
        raise ValueError(f"pose has {pose.num_joints} joints, topology expects {topology.n}")

    coords = pose.coords.copy()
    vis = pose.visibility.copy()
    upper = upper_body_joints(topology)
    parts = topology.parts

    for t in range(pose.num_frames):
        before = vis[t].copy()
        for j in np.flatnonzero(before == 0):
            voters: list[int] = []
            if parts[j] in (1, 2, 3, 4):
                voters = [v for v in np.flatnonzero(before > 0) if parts[v] == parts[j]]
            if not voters and j in upper:
                voters = [v for v in np.flatnonzero(before > 0) if parts[v] == 5]
            if not voters:
                voters = list(np.flatnonzero(before > 0))
            votes = [
                model.predict(v, j, coords[t, v]) for v in voters if model.trained[v, j]
            ]
            if votes:
                coords[t, j] = np.mean(votes, axis=0)
                vis[t, j] = VIS_SPATIAL
            else:
                coords[t, j] = 0.0
                vis[t, j] = VIS_SYNTHETIC
    return replace(pose, coords=coords, visibility=vis)


def zero_fill(pose: NormalizedPoseSequence) -> NormalizedPoseSequence:
    """Set every missing joint to (0, 0) synthetic, with no model voting.

    Baseline used to measure what interpolation buys; also the final
    fallback the full pipeline applies via spatial_interpolate.
    """
    coords = pose.coords.copy()
    vis = pose.visibility.copy()
    missing = vis == 0
    coords[missing] = 0.0
    vis[missing] = VIS_SYNTHETIC
    return replace(pose, coords=coords, visibility=vis)


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
    coords = np.zeros((len(frames), n, 2))
    vis = np.zeros((len(frames), n), dtype=np.uint8)
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
            if v and not (np.isfinite(x) and np.isfinite(y)):
                raise AnnotationError(f"frame {t} joint {j} visible with non-finite coordinates")
            coords[t, j] = (x, y)
            vis[t, j] = v
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
    if isinstance(obj, dict) and "_meta" in obj:
        return None
    return pose_from_record(obj, n_expected=n_expected)


def iter_annotation_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, raw text) for every non-blank line of an annotation file."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                yield lineno, line


def read_annotations(path: str | Path, n_expected: int | None = None) -> list[PoseSequence]:
    """Strict reader: every record must parse, errors carry line numbers."""
    poses = []
    for lineno, line in iter_annotation_lines(path):
        try:
            pose = parse_annotation_line(line, n_expected=n_expected)
        except AnnotationError as exc:
            raise AnnotationError(f"line {lineno}: {exc}") from None
        if pose is not None:
            poses.append(pose)
    return poses


def write_annotations(
    path: str | Path, poses: Iterable[PoseSequence], meta: dict | None = None
) -> None:
    lines = []
    if meta is not None:
        lines.append(json.dumps({"_meta": meta}, sort_keys=True))
    lines.extend(json.dumps(pose_to_record(p)) for p in poses)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
