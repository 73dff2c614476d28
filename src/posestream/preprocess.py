"""Pose cleanup ahead of tensor building: normalization and gap filling.

The pipeline order is fixed: linear temporal interpolation runs on raw pixel
coordinates (so torso joints can be recovered before they are needed),
normalization rescales each frame by the torso length, centers it on the
torso midpoint and demotes joints too far off the torso to be a pose, and
spatial interpolation then fills whatever is still missing by letting
visible joints vote through learned pairwise affine models in the
scale-free normalized space. Joints nothing can recover are set to the
torso center (0, 0) and flagged synthetic, never left marked invalid.

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
from typing import Iterator, Sequence

import numpy as np

from . import binio
from .config import ID_RULE, check_corpus_index, check_video_ids, is_video_id
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
    only meaningful where flags > 0, and there must be finite.
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
        if self.coords.ndim != 3 or self.coords.shape[2] != 2:
            raise ValueError(f"coords must have shape (F, n, 2), got {self.coords.shape}")
        if self.flags.shape != self.coords.shape[:2]:
            raise ValueError(f"flags shape {self.flags.shape} does not match coords "
                             f"{self.coords.shape[:2]}")
        check_corpus_index(self.videos, self.labels, self.offsets, len(self.coords))
        if not np.isfinite(self.coords).all():
            bad = ((self.flags > 0) & ~np.isfinite(self.coords).all(axis=2)).any(axis=1)
            if bad.any():
                video = self.videos[np.searchsorted(self.offsets, bad.argmax(), side="right") - 1]
                raise ValueError(f"video '{video}' has non-finite {self.coords.dtype} "
                                 "coordinates on filled joints")

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

# A joint farther than this many torso lengths from the torso center is a
# detection error, not a pose (no limb reaches that far), and the spatial fit
# would carry it into the fills of every other video. The bound also keeps
# every coordinate the fit sums, and the float32 corpus, far from overflow.
PLAUSIBLE_RADIUS = 10.0


def normalize(corpus: PoseCorpus, topology: SkeletonTopology) -> PoseCorpus:
    """Rescale each frame by the torso length and center on the torso midpoint.

    Every filled joint is divided by the distance d between the topology's
    two torso anchors and shifted so the anchor midpoint lands on the
    origin; missing joints are left untouched and stay flagged missing.
    Frames where an anchor joint is missing, d <= TORSO_EPS, or the scale,
    shift or a normalized coordinate is not finite (huge joints over a tiny
    torso) cannot be normalized: they are unusable, and all their joints
    are demoted to missing (zeroed) so downstream filling treats them
    uniformly. In the frames that remain, a filled joint farther than
    PLAUSIBLE_RADIUS from the origin is demoted to missing (zeroed) too. So
    a frame is left with no filled joint when it is unusable or when every
    joint it has lies beyond the radius.
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
        far = np.hypot(coords[..., 0], coords[..., 1]) > PLAUSIBLE_RADIUS
    moved = filled & usable[:, None]
    np.copyto(coords, corpus.coords, where=~moved[..., None])
    usable &= (np.isfinite(coords).all(axis=2) | ~moved).all(axis=1)
    demoted = ~usable[:, None] | (moved & far)
    coords[demoted] = 0.0
    flags[demoted] = VIS_MISSING
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
# Spatial interpolation: pairwise affine voting
# ---------------------------------------------------------------------------

@dataclass
class SpatialModel:
    """Pairwise joint-position predictors used for missing-joint voting.

    For each ordered joint pair (source, target), coeffs[source, target]
    holds the affine map from the source's normalized (x, y) to the
    target's predicted (x, y): rows for the features 1, x and y. Pairs that
    no training frame fills together are untrained and abstain from voting.

    A model file is a ``binio`` container (magic ``PSPM``, version 2) whose
    header holds ``topology_name`` and ``joint_names`` (n names, in joint
    order), followed by coeffs as float64 (n, n, 3, 2) and trained as uint8
    0/1 (n, n).
    """

    topology_name: str
    joint_names: tuple[str, ...]
    coeffs: np.ndarray   # (n, n, 3, 2)
    trained: np.ndarray  # (n, n) bool

    def predict(self, source, target, xy) -> np.ndarray:
        """Predicted positions of joints target from positions xy of joints source.

        xy is (..., 2) and so is the result. source and target are joint
        indices, or index arrays with one entry per row of xy.
        """
        xy = np.asarray(xy, dtype=np.float64)
        x, y = xy.reshape(-1, 2).T
        feats = np.stack((np.ones_like(x), x, y), axis=1)
        return np.matmul(feats[:, None, :], self.coeffs[source, target])[:, 0].reshape(xy.shape)

    def check(self, topology: SkeletonTopology) -> None:
        """ValueError unless the model was fit on topology: its name, and its
        joint names in order."""
        if self.topology_name != topology.name:
            raise ValueError(f"spatial model was fit on '{self.topology_name}', "
                             f"not '{topology.name}'")
        if len(self.joint_names) != topology.n:
            raise ValueError(f"spatial model has {len(self.joint_names)} joints, "
                             f"topology '{topology.name}' has {topology.n}")
        for index, (ours, theirs) in enumerate(zip(self.joint_names, topology.joint_names)):
            if ours != theirs:
                raise ValueError(f"spatial model joint {index} is '{ours}', "
                                 f"topology '{topology.name}' has '{theirs}' there")

    def save(self, path: str | Path) -> None:
        header = {"topology_name": self.topology_name, "joint_names": list(self.joint_names)}
        MODEL_FILE.write(path, header, {"coeffs": self.coeffs,
                                        "trained": self.trained.astype(np.uint8)})

    @classmethod
    def load(cls, path: str | Path) -> "SpatialModel":
        """Read a model written by save; ValueError naming the file for
        anything that is not a complete, self-consistent model."""
        return MODEL_FILE.read(path, _model_of)


def _model_layout(header: dict) -> binio.Layout:
    n = len(header["joint_names"])
    return {"coeffs": ("<f8", (n, n, 3, 2)), "trained": ("u1", (n, n))}


def _model_of(header: dict, arrays: dict[str, np.ndarray]) -> SpatialModel:
    coeffs, trained = arrays["coeffs"], arrays["trained"]
    if not np.isfinite(coeffs).all():
        raise ValueError("spatial model coeffs have non-finite entries")
    if trained.max(initial=0) > 1:
        raise ValueError("spatial model trained flags must be 0 or 1")
    return SpatialModel(topology_name=header["topology_name"],
                        joint_names=tuple(header["joint_names"]),
                        coeffs=coeffs, trained=trained.view(bool))


MODEL_FILE = binio.FileKind("spatial model", b"PSPM", 2,
                            {"topology_name": str, "joint_names": list[str]}, _model_layout)


# The moment pass sums this many frames at a time, which bounds its temporaries.
_MOMENT_BLOCK = 512


def fit_spatial_model(corpus: PoseCorpus, topology: SkeletonTopology) -> SpatialModel:
    """Least-squares affine fit of every ordered joint pair over a normalized corpus.

    For each pair (source, target) the target position is regressed on the
    p = 3 features 1, x and y of the source position, using every corpus
    frame where both joints are filled. Pairs that are never filled
    together stay untrained. The model holds for any corpus of the
    topology, not only the one it was fitted on.

    Method: a p-feature fit needs only its p x p moment sums. Each source's
    coordinates are centered at their mean over the frames that fill the
    source. One pass over blocks of frames then takes, as GEMMs against the
    filled mask and the zero-filled targets, the sums over each pair's frames
    of the centered monomials 1, x, y, x*x, x*y, y*y and of the features
    times the target: every pair's normal equations at once. A pair is
    rank-deficient when the smallest eigenvalue of its centered moment
    matrix is at most p * count * eps times the largest, that is when the
    singular values of its centered design are at most sqrt(p * count * eps)
    apart in ratio (about 3e-6 at 15k frames): below that, rounding in the
    sums could decide the fit. Such a pair falls back to a mean-offset
    model, target = source + mean(target - source), as does a pair of fewer
    frames than features (a single-frame corpus, say). The others are solved
    on the diagonally scaled moment matrix and mapped back to the features
    of the uncentered source. Solving normal equations bounds the coefficients'
    relative error by about kappa**2 * eps, kappa the condition number of
    the scaled centered design (Golub and Van Loan, Matrix Computations,
    5.3); on synthetic torso-normalized corpora of thousands of frames the
    coefficients came within 1e-11 of a per-pair ``lstsq``, relative to each
    pair's largest. A filled coordinate so large that the sums of its
    products overflow float64 raises ValueError naming its joint.
    """
    if corpus.num_joints != topology.n:
        raise ValueError(f"corpus has {corpus.num_joints} joints, expected {topology.n}")
    n, p = topology.n, 3
    coeffs = np.zeros((n, n, p, 2))
    trained = np.zeros((n, n), dtype=bool)

    # Each (x, y) is taken as one complex number, so that the (frames, n)
    # mask selects whole points; missing joints hold arbitrary coordinates,
    # and zeros keep the sums finite.
    filled = corpus.flags > 0
    points = np.ascontiguousarray(corpus.coords, dtype=np.float64).view(np.complex128)[..., 0]
    sums = np.zeros((6 * n, 3 * n))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, naming the joint
        means = np.sum(points, axis=0, where=filled) / np.maximum(filled.sum(axis=0), 1)
        for start in range(0, len(points), _MOMENT_BLOCK):
            mask = filled[start:start + _MOMENT_BLOCK]
            block = points[start:start + _MOMENT_BLOCK]
            xy = np.where(mask, block, 0)
            centered = np.where(mask, block - means, 0)
            x, y = centered.real, centered.imag
            # The constant is 0 where the source is missing.
            features = np.stack((mask, x, y, x * x, x * y, y * y), axis=1)
            targets = np.stack((mask, xy.real, xy.imag), axis=1)
            sums += features.reshape(len(mask), -1).T @ targets.reshape(len(mask), -1)
    # sums[k, s, c, t]: over the frames filling both s and t, monomial k of
    # the centered source s times 1, x or y of the target t (c = 0, 1, 2).
    sums = sums.reshape(6, n, 3, n)
    if not np.isfinite(sums).all():
        bad = ~np.isfinite(sums)
        source = bad[:, :, 0].any(axis=(0, 2))
        joint = np.argmax(source if source.any() else bad.any(axis=(0, 1, 2)))
        raise ValueError(f"joint '{topology.joint_names[joint]}' has coordinates too large "
                         "for the spatial fit: the sums of their products overflow float64")

    center = np.stack((means.real, means.imag), axis=1)
    s, t = np.nonzero(~np.eye(n, dtype=bool) & (sums[0, :, 0] > 0))
    moments = sums[:, s, :, t]  # (pairs, monomials, 3)
    count = moments[:, 0, 0]
    # The centered design's moment matrix: feature i times feature j is monomial [i][j].
    gram = moments[:, [[0, 1, 2], [1, 3, 4], [2, 4, 5]], 0]  # (pairs, p, p)
    cross = moments[:, :p, 1:]  # (pairs, p, 2): its features times the target
    eigenvalues = np.linalg.eigvalsh(gram)
    full = (count >= p) & (eigenvalues[:, 0]
                           > p * count * np.finfo(np.float64).eps * eigenvalues[:, -1])

    scale = np.sqrt(np.diagonal(gram[full], axis1=1, axis2=2))
    solved = np.linalg.solve(gram[full] / scale[:, :, None] / scale[:, None, :],
                             cross[full] / scale[..., None]) / scale[..., None]
    # On the centered source (x + a, y + b), with (a, b) minus the source's
    # mean, the fit c0 + c1 (x + a) + c2 (y + b) has constant c0 + a c1 + b c2.
    a, b = -center[s[full]].T
    solved[:, 0] += a[:, None] * solved[:, 1]
    solved[:, 0] += b[:, None] * solved[:, 2]
    coeffs[s[full], t[full]] = solved

    rest = ~full
    offset = (cross[rest, 0] - moments[rest, 1:3, 0]) / count[rest, None] - center[s[rest]]
    coeffs[s[rest], t[rest], 0] = offset
    coeffs[s[rest], t[rest], 1, 0] = 1.0
    coeffs[s[rest], t[rest], 2, 1] = 1.0
    trained[s, t] = True
    return SpatialModel(topology.name, topology.joint_names, coeffs, trained)


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
    model.check(topology)
    if corpus.num_joints != topology.n:
        raise ValueError(f"corpus has {corpus.num_joints} joints, topology expects {topology.n}")

    same_limb, torso = _voter_groups(topology)
    filled = corpus.flags > 0
    t, j = np.nonzero(~filled)
    seen = filled[t]
    limb_voters = seen & same_limb[j]
    torso_voters = seen & torso[j]
    voters = np.where(limb_voters.any(axis=1, keepdims=True), limb_voters,
                      np.where(torso_voters.any(axis=1, keepdims=True), torso_voters, seen))
    votes = voters & model.trained.T[j]
    row, voter = np.nonzero(votes)
    predictions = model.predict(voter, j[row], corpus.coords[t[row], voter])
    count = votes.sum(axis=1)
    first = np.cumsum(count) - count

    unvoted = zero_fill(corpus)
    coords, flags = unvoted.coords, unvoted.flags
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
