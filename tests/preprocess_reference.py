"""Loop implementations of the preprocess stages and the annotation
writer, kept as test oracles.

These are the per-video, per-frame, per-joint and per-triple loops that
``posestream.preprocess`` replaced with array-at-a-time code over a whole
``PoseCorpus``. Each stage here takes and returns one ``Pose``, a video's
corpus fields as a named tuple, so ``PoseCorpus.of`` concatenates a list of
them. They are not used by the package; the property tests in
``test_preprocess.py`` check the corpus stages and ``write_annotations``
against these loops, run video by video and concatenated, on random inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from posestream.preprocess import (
    VIS_MISSING,
    VIS_SPATIAL,
    VIS_SYNTHETIC,
    VIS_TEMPORAL,
    AnnotationError,
    SpatialModel,
)
from posestream.skeleton import SkeletonTopology, upper_body_joints


class Pose(NamedTuple):
    """One video: (T, n, 2) coordinates, (T, n) fill flags, label -1 where absent."""

    video: str
    coords: np.ndarray
    flags: np.ndarray
    label: int = -1

    @property
    def num_frames(self) -> int:
        return self.coords.shape[0]

    @property
    def num_joints(self) -> int:
        return self.coords.shape[1]


def pose_to_record(pose: Pose) -> dict:
    """Annotation record for one video; fill provenance collapses to vis 1."""
    frames = [
        [
            [float(x), float(y), 1 if v > 0 else 0]
            for (x, y), v in zip(frame_xy, frame_vis)
        ]
        for frame_xy, frame_vis in zip(pose.coords, pose.flags)
    ]
    record: dict = {"video": pose.video, "n": pose.num_joints, "frames": frames}
    if pose.label >= 0:
        record["label"] = int(pose.label)
    return record


def pose_from_record(record: dict, n_expected: int | None = None) -> Pose:
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
    return Pose(video, coords, vis, -1 if label is None else label)


def _anchor_point(coords: np.ndarray, vis: np.ndarray, group: tuple[int, ...]) -> np.ndarray | None:
    idx = list(group)
    if np.any(vis[idx] == 0):
        return None
    return coords[idx].mean(axis=0)


def normalize(pose: Pose, topology: SkeletonTopology, eps: float = 1e-8):
    coords = pose.coords.copy()
    vis = pose.flags.copy()
    usable = np.ones(pose.num_frames, dtype=bool)
    group_a, group_b = topology.torso_anchors
    for t in range(pose.num_frames):
        a = _anchor_point(coords[t], vis[t], group_a)
        b = _anchor_point(coords[t], vis[t], group_b)
        if a is None or b is None:
            usable[t] = False
            continue
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            d = np.hypot(*(a - b))
            center = (a + b) / (2.0 * d)
            filled = vis[t] > 0
            coords[t, filled] = coords[t, filled] / d - center
        if not (d > eps and np.isfinite(d) and np.isfinite(center).all()
                and np.isfinite(coords[t, filled]).all()):
            usable[t] = False
    coords[~usable] = 0.0
    vis[~usable] = VIS_MISSING
    return pose._replace(coords=coords, flags=vis)


def temporal_interpolate(pose: Pose, max_gap: int = 10) -> Pose:
    coords = pose.coords.copy()
    vis = pose.flags.copy()
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
    return pose._replace(coords=coords, flags=vis)


def _poly_features(xy: np.ndarray, degree: int) -> np.ndarray:
    x, y = xy[:, 0], xy[:, 1]
    cols = [np.ones_like(x), x, y]
    if degree == 2:
        cols += [x * x, x * y, y * y]
    return np.stack(cols, axis=1)


def predict(model: SpatialModel, source: int, target: int, xy: np.ndarray) -> np.ndarray:
    """One voter's prediction, as the scalar ``SpatialModel.predict`` made it."""
    feats = _poly_features(np.asarray(xy, dtype=np.float64)[None, :], model.degree)
    return feats[0] @ model.coeffs[source, target]


def fit_spatial_model(corpus, topology: SkeletonTopology, degree: int = 1, min_samples: int = 1):
    sequences = list(corpus)
    coords = np.concatenate([s.coords for s in sequences], axis=0)
    filled = np.concatenate([s.flags for s in sequences], axis=0) > 0
    n = topology.n
    n_feat = 3 if degree == 1 else 6
    coeffs = np.zeros((n, n, n_feat, 2))
    trained = np.zeros((n, n), dtype=bool)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            both = filled[:, s] & filled[:, t]
            m = int(both.sum())
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
    return SpatialModel(topology_name=topology.name, degree=degree, coeffs=coeffs, trained=trained)


def spatial_interpolate(pose: Pose, model: SpatialModel, topology: SkeletonTopology):
    coords = pose.coords.copy()
    vis = pose.flags.copy()
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
            votes = [predict(model, v, j, coords[t, v]) for v in voters if model.trained[v, j]]
            if votes:
                coords[t, j] = np.mean(votes, axis=0)
                vis[t, j] = VIS_SPATIAL
            else:
                coords[t, j] = 0.0
                vis[t, j] = VIS_SYNTHETIC
    return pose._replace(coords=coords, flags=vis)
