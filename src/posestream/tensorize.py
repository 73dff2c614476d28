"""Snippet sampling, pose-tensor assembly, and the filled-corpus file.

A video is split into K equal segments and one snippet frame is chosen per
segment (uniformly at random within the segment, or at its midpoint). The
pose tensor stacks, per snippet, the (x, y) coordinates of every joint
visit along the skeleton's traversal path into one row of width 2L, with a
velocity channel (row-to-row first difference) and an acceleration channel
(difference of differences) alongside; both derivative channels have an
all-zero first row. Result shape: K x 2L x 3.

``preprocess`` writes its filled, normalized frames to one filled-corpus
file. ``FilledCorpus`` holds that file's arrays as they are on disk, and
``train`` and ``eval`` build the tensors of every video at once from them
(``corpus_tensors``): the segment bounds of all videos as one (V, K) array,
one random draw per video, then one gather of the chosen frames and two
differences over the whole (V, K, 2L) position array.

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
from typing import Sequence

import numpy as np

from .binio import BinaryReader
from .preprocess import VIS_OBSERVED, VIS_SYNTHETIC, NormalizedPoseSequence
from .skeleton import TraversalPath

CORPUS_MAGIC = b"PCRP"
CORPUS_VERSION = 1
CHANNELS = 3

SAMPLING_MODES = ("random", "center")


# ---------------------------------------------------------------------------
# Filled corpus
# ---------------------------------------------------------------------------

@dataclass
class FilledCorpus:
    """The filled, normalized frames of one preprocess run, the Euler tour
    their tensors follow, and the run's seed and config hash.

    Video i owns rows offsets[i] to offsets[i+1] - 1 of coords and flags.
    """

    path: TraversalPath
    seed: int
    config_hash: str
    coords: np.ndarray   # (F, n, 2) float64
    flags: np.ndarray    # (F, n) uint8 fill provenance
    offsets: np.ndarray  # (V+1,) int64
    videos: tuple[str, ...]
    labels: np.ndarray   # (V,) int64, -1 where absent

    @classmethod
    def from_poses(
        cls, path: TraversalPath, seed: int, config_hash: str,
        poses: Sequence[NormalizedPoseSequence],
    ) -> "FilledCorpus":
        if not poses:
            raise ValueError("refusing to build an empty corpus")
        if len({p.num_joints for p in poses}) > 1:
            raise ValueError("corpus videos differ in joint count")
        return cls(
            path, seed, config_hash,
            coords=np.concatenate([p.coords for p in poses]),
            flags=np.concatenate([p.visibility for p in poses]),
            offsets=np.cumsum([0] + [p.num_frames for p in poses], dtype=np.int64),
            videos=tuple(p.video for p in poses),
            labels=np.array([-1 if p.label is None else p.label for p in poses], dtype=np.int64),
        )


def _video_seed(base_seed: int, video: str, epoch: int | None = None) -> list[int]:
    """Stable per-video (and optionally per-epoch) seed sequence."""
    digest = hashlib.sha256(video.encode("utf-8")).digest()
    parts = [base_seed, int.from_bytes(digest[:8], "little")]
    if epoch is not None:
        parts.append(epoch)
    return parts


def _segment_frames(frames: np.ndarray, k: int, mode: str, seeds: list) -> np.ndarray:
    """(V, K) chosen frame of every segment of videos with the given frame counts.

    Segment s covers frame indices [floor(s*F/K), floor((s+1)*F/K)). Random
    mode draws uniformly inside each non-empty segment, in segment order,
    from a generator seeded with that video's entry of ``seeds``; center
    mode takes (lo + hi) // 2. When F < K some segments are empty; an empty
    segment reuses the nearest earlier chosen frame (leading empties borrow
    from the first non-empty segment), keeping every row monotone.
    """
    steps = np.arange(k + 1)
    bounds = steps * frames[:, None] // k
    lo, hi = bounds[:, :-1], bounds[:, 1:]
    full = hi > lo
    if mode == "center":
        chosen = (lo + hi) // 2
    else:
        chosen = np.empty_like(lo)
        for row, seed in enumerate(seeds):
            keep = full[row]
            chosen[row, keep] = np.random.default_rng(seed).integers(lo[row, keep], hi[row, keep])
    # Each segment takes the frame of the last non-empty segment at or before
    # it, or of the first non-empty one when there is none.
    source = np.maximum.accumulate(np.where(full, steps[:-1], -1), axis=1)
    source = np.where(source < 0, full.argmax(axis=1)[:, None], source)
    return np.take_along_axis(chosen, source, axis=1)


def corpus_tensors(
    corpus: FilledCorpus, k: int, mode: str, seed: int, epoch: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(V, K, 2L, 3) pose tensors and (V,) labels (-1 where absent) of the
    corpus videos, in corpus order.

    Row k of channel 0 concatenates the (x, y) of each traversal-path joint
    at snippet frame k. Channel 1 row k is channel0[k] - channel0[k-1] and
    channel 2 repeats the differencing on channel 1; row 0 of both is zero.
    Differences are taken between chosen snippets as-is, whatever the frame
    gap between them. A video's snippets are seeded by ``seed``, its id and,
    when given, the epoch, never by the other videos.
    """
    if k < 1:
        raise ValueError(f"segment count must be >= 1, got {k}")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode '{mode}'; use one of {SAMPLING_MODES}")
    if np.any(np.diff(corpus.offsets) < 1):
        raise ValueError("cannot sample snippets from an empty video")
    if np.any(corpus.flags < VIS_OBSERVED):
        raise ValueError("corpus still has missing joints; interpolate before tensorizing")
    if max(corpus.path.joints) >= corpus.coords.shape[1]:
        raise ValueError(f"traversal path references joint {max(corpus.path.joints)}, "
                         f"corpus has {corpus.coords.shape[1]}")
    seeds = [_video_seed(seed, video, epoch) for video in corpus.videos] if mode == "random" else []
    frames = _segment_frames(np.diff(corpus.offsets), k, mode, seeds) + corpus.offsets[:-1, None]
    joints = np.asarray(corpus.path.joints, dtype=np.intp)
    positions = corpus.coords[frames[:, :, None], joints].reshape(len(frames), k, -1)
    velocity = np.zeros_like(positions)
    acceleration = np.zeros_like(positions)
    velocity[:, 1:] = positions[:, 1:] - positions[:, :-1]
    acceleration[:, 1:] = velocity[:, 1:] - velocity[:, :-1]
    return np.stack([positions, velocity, acceleration], axis=-1), corpus.labels.copy()


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write_corpus(path: str | Path, corpus: FilledCorpus) -> None:
    """Write a filled corpus in the binary layout of the module docstring."""
    if np.any((corpus.flags < VIS_OBSERVED) | (corpus.flags > VIS_SYNTHETIC)):
        raise ValueError("corpus has missing joints; fill them before writing")
    finite = np.isfinite(corpus.coords).all(axis=(1, 2))
    if not finite.all():
        video = corpus.videos[np.searchsorted(corpus.offsets, finite.argmin(), side="right") - 1]
        raise ValueError(f"video '{video}' has non-finite coordinates")
    with open(path, "wb") as handle:
        handle.write(CORPUS_MAGIC)
        handle.write(struct.pack("<I", CORPUS_VERSION))
        handle.write(_pack_text(corpus.path.topology))
        handle.write(struct.pack("<I", len(corpus.path)))
        handle.write(np.asarray(corpus.path.joints, dtype="<u4").tobytes())
        handle.write(_pack_text(corpus.config_hash))
        handle.write(struct.pack("<QII", corpus.seed, len(corpus.videos), corpus.coords.shape[1]))
        handle.write(corpus.offsets.astype("<u8").tobytes())
        handle.write(corpus.labels.astype("<i4").tobytes())
        for video in corpus.videos:
            handle.write(_pack_text(video))
        # Buffers written in place: a copy of the whole corpus would set peak memory.
        handle.write(np.ascontiguousarray(corpus.coords, "<f8").data)
        handle.write(np.ascontiguousarray(corpus.flags, "u1").data)


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
    labels = reader.array("<i4", count, "labels").astype(np.int64)
    if labels.min() < -1:
        raise reader.fail("labels below -1 (-1 marks an absent label)")
    videos = tuple(reader.text("I", f"video id {i}") for i in range(count))
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
    return FilledCorpus(TraversalPath(joints=tour, topology=topology), seed, config_hash,
                        coords, flags, offsets, videos, labels)
