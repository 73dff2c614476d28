"""Snippet sampling, pose-tensor assembly, and the filled-corpus file.

A video is split into K equal segments and one snippet frame is chosen per
segment (uniformly at random within the segment, or at its midpoint). The
pose tensor stacks, per snippet, the (x, y) coordinates of every joint
visit along the skeleton's traversal path into one row of width 2L, with a
velocity channel (row-to-row first difference) and an acceleration channel
(difference of differences) alongside; both derivative channels have an
all-zero first row. Result shape: K x 2L x 3.

``preprocess`` writes its filled, normalized frames to one filled-corpus
file, from which ``train`` and ``eval`` build tensors (``corpus_tensors``).

Filled-corpus file (little-endian binary)::

    magic b"PCRP" | u32 version
    | str topology name | u32 tour length L | u32 x L Euler-tour joint indices
    | str config hash | u64 seed | u32 video count V | u32 joint count n
    | u64 x (V+1) frame offsets (0 first, strictly increasing, last = total frames F)
    | i32 x V labels (-1 if absent) | str x V video ids
    | float64 x (F*n*2) coordinates, in (frame, joint, xy) order
    | u8 x (F*n) fill-provenance flags (1 observed .. 4 synthetic)

where ``str`` is a u32 byte length followed by UTF-8 bytes. Video i owns
frames offsets[i] to offsets[i+1] - 1.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .binio import BinaryReader
from .preprocess import VIS_OBSERVED, VIS_SYNTHETIC, NormalizedPoseSequence
from .skeleton import TraversalPath

CORPUS_MAGIC = b"PCRP"
CORPUS_VERSION = 1
CHANNELS = 3

SAMPLING_MODES = ("random", "center")


@dataclass(frozen=True)
class SnippetPlan:
    """Chosen frame index per segment for one video."""

    frames: tuple[int, ...]
    num_frames: int

    def __post_init__(self) -> None:
        if any(f < 0 or f >= self.num_frames for f in self.frames):
            raise ValueError("snippet frame index outside the video")
        if any(b < a for a, b in zip(self.frames, self.frames[1:])):
            raise ValueError("snippet frames must be non-decreasing")

    @property
    def k(self) -> int:
        return len(self.frames)


def plan_snippets(
    num_frames: int, k: int = 15, mode: str = "random", seed: int | Sequence[int] = 0
) -> SnippetPlan:
    """Pick one frame per segment.

    Segment s covers frame indices [floor(s*F/K), floor((s+1)*F/K)). Random
    mode draws uniformly inside each segment from a generator seeded with
    ``seed``; center mode takes (lo + hi) // 2. When F < K some segments
    are empty; an empty segment reuses the nearest earlier chosen frame
    (leading empties borrow from the first non-empty segment), keeping the
    plan length K and monotone.
    """
    if num_frames < 1:
        raise ValueError("cannot sample snippets from an empty video")
    if k < 1:
        raise ValueError(f"segment count must be >= 1, got {k}")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode '{mode}'; use one of {SAMPLING_MODES}")

    rng = np.random.default_rng(seed)
    chosen: list[int | None] = []
    for s in range(k):
        lo = (s * num_frames) // k
        hi = ((s + 1) * num_frames) // k
        if hi <= lo:
            chosen.append(None)
        elif mode == "center":
            chosen.append((lo + hi) // 2)
        else:
            chosen.append(int(rng.integers(lo, hi)))

    first = next(i for i, c in enumerate(chosen) if c is not None)
    for i in range(first):
        chosen[i] = chosen[first]
    for i in range(first + 1, k):
        if chosen[i] is None:
            chosen[i] = chosen[i - 1]
    return SnippetPlan(frames=tuple(chosen), num_frames=num_frames)  # type: ignore[arg-type]


@dataclass
class PoseTensor:
    """K x 2L x 3 tensor for one video, with its id and label."""

    data: np.ndarray
    video: str
    label: int | None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[2] != CHANNELS:
            raise ValueError(f"tensor must have shape (K, width, {CHANNELS}), got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError(f"tensor for video '{self.video}' contains non-finite values")

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def build_pose_tensor(
    pose: NormalizedPoseSequence,
    path: TraversalPath,
    plan: SnippetPlan,
) -> PoseTensor:
    """Assemble the position/velocity/acceleration tensor for one video.

    Row k of channel 0 concatenates the (x, y) of each traversal-path joint
    at snippet frame k. Channel 1 row k is channel0[k] - channel0[k-1] and
    channel 2 repeats the differencing on channel 1; row 0 of both is zero.
    Differences are taken between chosen snippets as-is, whatever the frame
    gap between them.

    The pose must be fully filled; missing joints are a caller error.
    """
    if plan.num_frames != pose.num_frames:
        raise ValueError(
            f"plan covers {plan.num_frames} frames but video '{pose.video}' has {pose.num_frames}"
        )
    if np.any(pose.visibility == 0):
        raise ValueError(
            f"video '{pose.video}' still has missing joints; interpolate before tensorizing"
        )
    if max(path.joints) >= pose.num_joints:
        raise ValueError(
            f"traversal path references joint {max(path.joints)}, pose has {pose.num_joints}"
        )

    frames = np.asarray(plan.frames, dtype=np.intp)
    joints = np.asarray(path.joints, dtype=np.intp)
    positions = pose.coords[frames][:, joints, :].reshape(plan.k, 2 * len(joints))

    velocity = np.zeros_like(positions)
    acceleration = np.zeros_like(positions)
    if plan.k > 1:
        velocity[1:] = positions[1:] - positions[:-1]
        acceleration[1:] = velocity[1:] - velocity[:-1]

    return PoseTensor(
        data=np.stack([positions, velocity, acceleration], axis=-1),
        video=pose.video,
        label=pose.label,
    )


# ---------------------------------------------------------------------------
# Filled corpus
# ---------------------------------------------------------------------------

@dataclass
class FilledCorpus:
    """The filled, normalized poses of one preprocess run, the Euler
    tour their tensors follow, and the run's seed and config hash."""

    path: TraversalPath
    seed: int
    config_hash: str
    poses: list[NormalizedPoseSequence]


def _video_seed(base_seed: int, video: str, epoch: int | None = None) -> list[int]:
    """Stable per-video (and optionally per-epoch) seed sequence."""
    digest = hashlib.sha256(video.encode("utf-8")).digest()
    parts = [base_seed, int.from_bytes(digest[:8], "little")]
    if epoch is not None:
        parts.append(epoch)
    return parts


def corpus_tensors(
    corpus: FilledCorpus, k: int, mode: str, seed: int, epoch: int | None = None
) -> list[PoseTensor]:
    """One pose tensor per corpus video; a video's plan is seeded by ``seed``,
    its id and, when given, the epoch, never by the other videos."""
    return [
        build_pose_tensor(
            seq,
            corpus.path,
            plan_snippets(seq.num_frames, k=k, mode=mode, seed=_video_seed(seed, seq.video, epoch)),
        )
        for seq in corpus.poses
    ]


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write_corpus(path: str | Path, corpus: FilledCorpus) -> None:
    """Write a filled corpus in the binary layout of the module docstring."""
    poses = corpus.poses
    if not poses:
        raise ValueError("refusing to write an empty corpus")
    joints = poses[0].num_joints
    if any(s.num_joints != joints for s in poses):
        raise ValueError("corpus videos differ in joint count")
    flags = np.concatenate([s.visibility for s in poses])
    if np.any((flags < VIS_OBSERVED) | (flags > VIS_SYNTHETIC)):
        raise ValueError("corpus has missing joints; fill them before writing")
    with open(path, "wb") as handle:
        handle.write(CORPUS_MAGIC)
        handle.write(struct.pack("<I", CORPUS_VERSION))
        handle.write(_pack_text(corpus.path.topology))
        handle.write(struct.pack("<I", len(corpus.path)))
        handle.write(np.asarray(corpus.path.joints, dtype="<u4").tobytes())
        handle.write(_pack_text(corpus.config_hash))
        handle.write(struct.pack("<QII", corpus.seed, len(poses), joints))
        handle.write(np.cumsum([0] + [s.num_frames for s in poses], dtype="<u8").tobytes())
        labels = [-1 if s.label is None else s.label for s in poses]
        handle.write(np.asarray(labels, dtype="<i4").tobytes())
        for seq in poses:
            handle.write(_pack_text(seq.video))
        for seq in poses:
            handle.write(seq.coords.astype("<f8").tobytes())
        handle.write(flags.astype("u1").tobytes())


def read_corpus(path: str | Path) -> FilledCorpus:
    """Read and validate a filled-corpus file; errors name the file and the field."""
    reader = BinaryReader(path)
    magic = reader.take(4, "magic")
    if magic != CORPUS_MAGIC:
        raise reader.fail(f"not a filled-corpus file (bad magic {magic!r})")
    (version,) = reader.unpack("I", "version")
    if version != CORPUS_VERSION:
        raise reader.fail(f"unsupported corpus version {version}")
    topology = reader.text("I", "topology name")
    (tour_length,) = reader.unpack("I", "tour length")
    tour = tuple(int(j) for j in reader.array("<u4", tour_length, "tour joints"))
    config_hash = reader.text("I", "config hash")
    seed, count, joints = reader.unpack("QII", "seed, video count and joint count")
    if count == 0:
        raise reader.fail("video count is 0")
    if not tour or max(tour) >= joints:
        raise reader.fail(f"tour joints do not index the {joints} joints")
    offsets = reader.array("<u8", count + 1, "frame offsets").astype(np.int64)
    if offsets[0] != 0 or np.any(np.diff(offsets) <= 0):
        raise reader.fail("frame offsets do not start at 0 and strictly increase")
    labels = reader.array("<i4", count, "labels").tolist()
    if min(labels) < -1:
        raise reader.fail("labels below -1 (-1 marks an absent label)")
    videos = [reader.text("I", f"video id {i}") for i in range(count)]
    if len(set(videos)) != count:
        raise reader.fail("video ids are not unique")
    frames = int(offsets[-1])
    coords = reader.array("<f8", frames * joints * 2, "coordinates").reshape(frames, joints, 2)
    flags = reader.array("u1", frames * joints, "fill flags").reshape(frames, joints)
    reader.finish()
    if np.any((flags < VIS_OBSERVED) | (flags > VIS_SYNTHETIC)):
        raise reader.fail(f"fill flags outside {VIS_OBSERVED}-{VIS_SYNTHETIC}")
    if not np.isfinite(coords).all():
        raise reader.fail("coordinates contain non-finite values")
    poses = [
        NormalizedPoseSequence(video, coords[lo:hi], flags[lo:hi], None if label < 0 else label)
        for video, label, lo, hi in zip(videos, labels, offsets[:-1], offsets[1:])
    ]
    return FilledCorpus(TraversalPath(joints=tour, topology=topology), seed, config_hash, poses)


def stack_tensors(tensors: Iterable[PoseTensor]) -> tuple[np.ndarray, np.ndarray]:
    """(N, K, width, 3) data array and (N,) label array for training/eval."""
    tensors = list(tensors)
    missing = [t.video for t in tensors if t.label is None]
    if missing:
        raise ValueError(f"tensors without labels: {missing[:5]}")
    data = np.stack([t.data for t in tensors])
    labels = np.array([t.label for t in tensors], dtype=np.int64)
    return data, labels
