"""Per-video snippet planning, tensor assembly and the snippet hash, kept as
test oracles.

These are the per-segment and per-video loops that
``posestream.tensorize.corpus_tensors`` replaced with one array pass over
the whole corpus, and the snippet hash in Python ``int`` arithmetic mod
2**64, where ``tensorize`` runs it in uint64 numpy arrays. They are not
used by the package; ``test_tensorize.py`` checks ``corpus_tensors``
against them on random corpora.
"""

from __future__ import annotations

import hashlib

import numpy as np

from posestream.skeleton import TraversalPath
from posestream.tensorize import FilledCorpus

MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix(x: int) -> int:
    """splitmix64's finalizer of a 64-bit int."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def digest(video: str) -> int:
    """The first 8 bytes of the id's sha256, little-endian."""
    return int.from_bytes(hashlib.sha256(video.encode("utf-8")).digest()[:8], "little")


def segment_word(seed: int, video_digest: int, epoch: int | None, segment: int) -> int:
    """The 64-bit hash of (seed, video digest, epoch, segment)."""
    key = mix((seed + GOLDEN) & MASK)
    key = mix(((key ^ video_digest) + GOLDEN) & MASK)
    key = mix(((key ^ (0 if epoch is None else epoch + 1)) + GOLDEN) & MASK)
    return mix((key + (segment + 1) * GOLDEN) & MASK)


def plan_snippets(
    num_frames: int, k: int = 15, mode: str = "random", seed: int = 0,
    video_digest: int = 0, epoch: int | None = None,
) -> tuple[int, ...]:
    """One frame per segment: the multiply-shift of its word's top 32 bits
    into it, or its midpoint; empty segments reuse the nearest earlier
    choice (leading ones the first)."""
    chosen: list[int | None] = []
    for s in range(k):
        lo = (s * num_frames) // k
        hi = ((s + 1) * num_frames) // k
        if hi <= lo:
            chosen.append(None)
        elif mode == "center":
            chosen.append((lo + hi) // 2)
        else:
            word = segment_word(seed, video_digest, epoch, s)
            chosen.append(lo + (((word >> 32) * (hi - lo)) >> 32))

    first = next(i for i, c in enumerate(chosen) if c is not None)
    for i in range(first):
        chosen[i] = chosen[first]
    for i in range(first + 1, k):
        if chosen[i] is None:
            chosen[i] = chosen[i - 1]
    return tuple(chosen)  # type: ignore[arg-type]


def build_pose_tensor(
    coords: np.ndarray, path: TraversalPath, frames: tuple[int, ...]
) -> np.ndarray:
    """(K, 2L, 3) positions, velocity and acceleration of one video's (T, n, 2) frames."""
    k = len(frames)
    picked = np.asarray(frames, dtype=np.intp)
    joints = np.asarray(path.joints, dtype=np.intp)
    positions = coords[picked][:, joints, :].reshape(k, 2 * len(joints))
    velocity = np.zeros_like(positions)
    acceleration = np.zeros_like(positions)
    if k > 1:
        velocity[1:] = positions[1:] - positions[:-1]
        acceleration[1:] = velocity[1:] - velocity[:-1]
    return np.stack([positions, velocity, acceleration], axis=-1)


def corpus_tensors(
    corpus: FilledCorpus, k: int, mode: str, seed: int, epoch: int | None = None
) -> np.ndarray:
    """One plan and one tensor per video, stacked in corpus order."""
    tensors = []
    for video, lo, hi in zip(corpus.videos, corpus.offsets[:-1], corpus.offsets[1:]):
        frames = plan_snippets(int(hi - lo), k=k, mode=mode, seed=seed,
                               video_digest=digest(video), epoch=epoch)
        tensors.append(build_pose_tensor(corpus.coords[lo:hi], corpus.path, frames))
    return np.stack(tensors)
