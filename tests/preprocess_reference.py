"""Loop implementations of the preprocess stages and the annotation
writer, and the json-only annotation line parser, kept as test oracles.

These are the per-video, per-frame, per-joint and per-triple loops that
``posestream.preprocess`` replaced with array-at-a-time code over a whole
``PoseCorpus``. Each stage here takes and returns one ``Pose``, a video's
corpus fields as a named tuple, so ``PoseCorpus.of`` concatenates a list of
them. They are not used by the package; the property tests in
``test_preprocess.py`` check the corpus stages and ``write_annotations``
against these loops, run video by video and concatenated, on random inputs,
and the orjson line parser against ``parse_annotation_line`` here.
"""

from __future__ import annotations

import json
import reprlib
from typing import NamedTuple

import numpy as np

from posestream import preprocess
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
    """Annotation record for one video; fill provenance collapses to vis 1,
    and a coordinate that is not finite (a missing joint's) is written as 0."""
    frames = [
        [
            [float(x) if np.isfinite(x) else 0.0, float(y) if np.isfinite(y) else 0.0,
             1 if v > 0 else 0]
            for (x, y), v in zip(frame_xy, frame_vis)
        ]
        for frame_xy, frame_vis in zip(pose.coords, pose.flags)
    ]
    record: dict = {"video": pose.video, "n": pose.num_joints, "frames": frames}
    if pose.label >= 0:
        record["label"] = int(pose.label)
    return record


def parse_annotation_line(line: str, n_expected: int | None = None):
    """One line of text to its corpus fields through the stdlib json decoder
    alone: the accepted records and rejection messages the parser keeps."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise AnnotationError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise AnnotationError("invalid JSON (nested too deeply)") from None
    except ValueError as exc:
        raise AnnotationError(f"invalid JSON ({exc})") from None
    if isinstance(obj, dict) and "_meta" in obj:
        return None
    return preprocess.pose_from_record(obj, n_expected=n_expected)


def is_video_id(video: object) -> bool:
    """The id rule as a per-character loop: the oracle of the one compiled
    character class ``config.is_video_id`` matches."""
    return (isinstance(video, str) and video != "" and not video.startswith("#")
            and not any(c in ',"\r\n' or "\ud800" <= c <= "\udfff" for c in video))


def pose_from_record(record: dict, n_expected: int | None = None) -> Pose:
    if not isinstance(record, dict):
        raise AnnotationError("record is not a JSON object")
    try:
        video = record["video"]
        n = record["n"]
        frames = record["frames"]
    except KeyError as exc:
        raise AnnotationError(f"missing or malformed field: {exc}") from None
    if type(n) is not int:
        raise AnnotationError(f"'n' must be an integer, got {reprlib.repr(n)}")
    if not isinstance(video, str) or not video:
        raise AnnotationError("'video' must be a non-empty string")
    if not is_video_id(video):
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
            continue
        for j in np.flatnonzero(filled):
            # A finite joint can lie so far out that its distance overflows
            # to inf; it is beyond the radius all the same.
            with np.errstate(over="ignore"):
                far = np.hypot(*coords[t, j]) > preprocess.PLAUSIBLE_RADIUS
            if far:
                coords[t, j] = 0.0
                vis[t, j] = VIS_MISSING
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


def _features(xy: np.ndarray) -> np.ndarray:
    x, y = xy[:, 0], xy[:, 1]
    return np.stack([np.ones_like(x), x, y], axis=1)


def predict(model: SpatialModel, source: int, target: int, xy: np.ndarray) -> np.ndarray:
    """One voter's prediction, as the scalar ``SpatialModel.predict`` made it."""
    feats = _features(np.asarray(xy, dtype=np.float64)[None, :])
    return feats[0] @ model.coeffs[source, target]


def fit_spatial_model(corpus, topology: SkeletonTopology, min_samples: int = 1):
    """One ``lstsq`` per pair, over the frames that fill both joints. A pair
    is rank-deficient when it has fewer frames m than features p, or when the
    singular values of its design, on the source centered at its mean over
    the frames that fill it, are at most sqrt(p * m * eps) apart in ratio."""
    sequences = list(corpus)
    coords = np.concatenate([s.coords for s in sequences], axis=0)
    filled = np.concatenate([s.flags for s in sequences], axis=0) > 0
    n = topology.n
    n_feat = 3
    coeffs = np.zeros((n, n, n_feat, 2))
    trained = np.zeros((n, n), dtype=bool)
    for s in range(n):
        if not filled[:, s].any():
            continue
        center = coords[filled[:, s], s].mean(axis=0)
        for t in range(n):
            if s == t:
                continue
            both = filled[:, s] & filled[:, t]
            m = int(both.sum())
            if m < max(min_samples, 1):
                continue
            src = coords[both, s]
            target = coords[both, t]
            values = np.linalg.svd(_features(src - center), compute_uv=False)
            if m >= n_feat and values[-1] > np.sqrt(n_feat * m * np.finfo(float).eps) * values[0]:
                solution = np.linalg.lstsq(_features(src), target, rcond=None)[0]
            else:
                offset = (target - src).mean(axis=0)
                solution = np.zeros((n_feat, 2))
                solution[0] = offset
                solution[1, 0] = 1.0
                solution[2, 1] = 1.0
            coeffs[s, t] = solution
            trained[s, t] = True
    return SpatialModel(topology_name=topology.name, joint_names=topology.joint_names,
                        coeffs=coeffs, trained=trained)


def design_conditions(corpus, topology: SkeletonTopology) -> np.ndarray:
    """(n, n) condition number [source, target] of each pair's design, on the
    source centered as fit_spatial_model centers it and with unit columns:
    the kappa that bounds the error of a fit through the normal equations.
    inf where the pair has fewer frames than features or a feature that is
    0 on every frame, 0 where it has no frame."""
    coords = np.concatenate([s.coords for s in corpus], axis=0)
    filled = np.concatenate([s.flags for s in corpus], axis=0) > 0
    n = topology.n
    kappa = np.zeros((n, n))
    for s in range(n):
        if not filled[:, s].any():
            continue
        center = coords[filled[:, s], s].mean(axis=0)
        for t in range(n):
            both = filled[:, s] & filled[:, t]
            if s == t or not both.any():
                continue
            design = _features(coords[both, s] - center)
            norms = np.linalg.norm(design, axis=0)
            if len(design) < design.shape[1] or not norms.all():
                kappa[s, t] = np.inf
                continue
            values = np.linalg.svd(design / norms, compute_uv=False)
            kappa[s, t] = values[0] / values[-1]
    return kappa


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
