"""Per-video snippet planning and tensor assembly, kept as test oracles.

These are the per-segment and per-video loops that
``posestream.tensorize.corpus_tensors`` replaced with one array pass over
the whole corpus. They are not used by the package; ``test_tensorize.py``
checks ``corpus_tensors`` against them on random corpora.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from posestream.skeleton import TraversalPath
from posestream.tensorize import FilledCorpus, _video_seed


def plan_snippets(
    num_frames: int, k: int = 15, mode: str = "random", seed: int | Sequence[int] = 0
) -> tuple[int, ...]:
    """One frame per segment: random inside it, or its midpoint; empty
    segments reuse the nearest earlier choice (leading ones the first)."""
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
        frames = plan_snippets(int(hi - lo), k=k, mode=mode, seed=_video_seed(seed, video, epoch))
        tensors.append(build_pose_tensor(corpus.coords[lo:hi], corpus.path, frames))
    return np.stack(tensors)
