"""Snippet sampling, pose-tensor assembly, and the filled-corpus file.

A video is split into K equal segments and one snippet frame is chosen per
segment (uniformly at random within the segment, or at its midpoint). The
pose tensor stacks, per snippet, the (x, y) coordinates of every joint
visit along the skeleton's traversal path into one row of width 2L, with a
velocity channel (row-to-row first difference) and an acceleration channel
(difference of differences) alongside; both derivative channels have an
all-zero first row. Result shape: K x 2L x 3.

``preprocess`` writes its filled, normalized frames to one filled-corpus
file. ``FilledCorpus`` is the ``preprocess.PoseCorpus`` of those frames
plus the file header (Euler tour, seed, config hash), with the file's
arrays as they are on disk. ``corpus_tensors`` builds the tensors of the
rows it is given (``train``: every video, in an epoch's order; ``eval``:
one slice) from their segment bounds as one (R, K) array, one random draw
per video, one gather of the chosen frames and two differences over the
whole (R, K, 2L) position array.

The filled-corpus file is a ``binio`` container (magic ``PCRP``). Its
header holds ``topology`` (the name), ``tour`` (the Euler tour's joint
indices), ``config_hash``, ``seed``, ``videos`` (the ids, in order),
``frames`` F and ``joints`` n; the arrays that follow it are::

    offsets  int64   (V+1,)     0 first, strictly increasing, last = F
    labels   int64   (V,)       -1 where absent
    coords   float64 (F, n, 2)  in (frame, joint, xy) order
    flags    uint8   (F, n)     fill provenance, 1 observed .. 4 synthetic

Video i owns frames offsets[i] to offsets[i+1] - 1.

``OpenCorpus`` holds the file open: opening it checks the framing, the
header, the offsets and the labels, and keeps them; its ``read`` returns
the ``FilledCorpus`` of any videos, reading their frames with one read per
run of videos that follow each other in the file, and that corpus's own
checks cover those frames. ``read_corpus`` is that read of every video
(``train``); ``eval`` reads one slice of videos at a time, so it never
holds the corpus's frames.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binio
from .config import SAMPLING_MODES, check_video_ids
from .preprocess import VIS_OBSERVED, VIS_SYNTHETIC, PoseCorpus
from .skeleton import TraversalPath

CORPUS_MAGIC = b"PCRP"
CORPUS_VERSION = 2
CHANNELS = 3


# ---------------------------------------------------------------------------
# Filled corpus
# ---------------------------------------------------------------------------

@dataclass
class FilledCorpus(PoseCorpus):
    """A filled corpus as one file holds it: the normalized frames of one
    preprocess run, the Euler tour their tensors follow, and the run's seed
    and config hash."""

    path: TraversalPath
    seed: int
    config_hash: str

    def __post_init__(self) -> None:
        super().__post_init__()
        self.check_header(self.videos, self.labels, self.path, self.num_joints, self.seed)
        if np.any((self.flags < VIS_OBSERVED) | (self.flags > VIS_SYNTHETIC)):
            raise ValueError(f"fill flags outside {VIS_OBSERVED}-{VIS_SYNTHETIC}: "
                             "a filled corpus has no missing joints")

    @staticmethod
    def check_header(videos: tuple[str, ...], labels: np.ndarray, path: TraversalPath,
                     joints: int, seed: int) -> None:
        """The checks of a filled corpus's ids, labels, tour and seed, which
        need none of its frames."""
        if labels.min() < -1:
            raise ValueError("labels below -1 (-1 marks an absent label)")
        check_video_ids(videos)
        if len(set(videos)) != len(videos):
            raise ValueError("video ids are not unique")
        if not path.joints or min(path.joints) < 0 or max(path.joints) >= joints:
            raise ValueError(f"tour joints do not index the {joints} joints")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")

    def tensor_shape(self, k: int) -> tuple[int, int, int]:
        """(K, 2L, CHANNELS): the shape of one video's tensor at k segments."""
        return k, 2 * len(self.path), CHANNELS


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
    corpus: FilledCorpus, rows: np.ndarray, k: int, mode: str, seed: int,
    epoch: int | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """(R, K, 2L, 3) pose tensors of the corpus videos at the indices
    ``rows``, in that order.

    Row k of channel 0 concatenates the (x, y) of each traversal-path joint
    at snippet frame k. Channel 1 row k is channel0[k] - channel0[k-1] and
    channel 2 repeats the differencing on channel 1; row 0 of both is zero.
    Differences are taken between chosen snippets as-is, whatever the frame
    gap between them. A video's snippets are seeded by ``seed``, its id and,
    when given, the epoch, never by the other videos, so a video's tensor
    is the same whichever rows are asked for. The three channels are
    written into one array: out, a float64 array of the result's shape,
    when given (``eval`` reuses one for every slice), else a new one.
    """
    if k < 1:
        raise ValueError(f"segment count must be >= 1, got {k}")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode '{mode}'; use one of {SAMPLING_MODES}")
    rows = np.asarray(rows, dtype=np.intp)
    seeds = ([_video_seed(seed, corpus.videos[row], epoch) for row in rows]
             if mode == "random" else [])
    starts = corpus.offsets[rows]
    frames = _segment_frames(corpus.offsets[rows + 1] - starts, k, mode, seeds) + starts[:, None]
    joints = np.asarray(corpus.path.joints, dtype=np.intp)
    shape = (len(rows), *corpus.tensor_shape(k))
    tensors = np.empty(shape) if out is None else out
    if tensors.shape != shape or tensors.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}")
    positions, velocity, acceleration = np.moveaxis(tensors, -1, 0)
    positions[...] = corpus.coords[frames[:, :, None], joints].reshape(len(rows), k, -1)
    velocity[:, 0] = acceleration[:, 0] = 0
    np.subtract(positions[:, 1:], positions[:, :-1], out=velocity[:, 1:])
    np.subtract(velocity[:, 1:], velocity[:, :-1], out=acceleration[:, 1:])
    return tensors


def _corpus_layout(header: dict) -> binio.Layout:
    count, frames, joints = len(header["videos"]), header["frames"], header["joints"]
    return {
        "offsets": ("<i8", (count + 1,)),
        "labels": ("<i8", (count,)),
        "coords": ("<f8", (frames, joints, 2)),
        "flags": ("u1", (frames, joints)),
    }


CORPUS_FILE = binio.FileKind(
    "filled-corpus", CORPUS_MAGIC, CORPUS_VERSION,
    {"topology": str, "tour": list[int], "config_hash": str, "seed": int,
     "videos": list[str], "frames": int, "joints": int},
    _corpus_layout,
)


def write_corpus(path: str | Path, corpus: FilledCorpus) -> None:
    """Write a filled corpus in the layout of the module docstring."""
    header = {
        "topology": corpus.path.topology, "tour": list(corpus.path.joints),
        "config_hash": corpus.config_hash, "seed": corpus.seed, "videos": list(corpus.videos),
        "frames": len(corpus.coords), "joints": corpus.num_joints,
    }
    arrays = {"offsets": corpus.offsets, "labels": corpus.labels, "coords": corpus.coords,
              "flags": corpus.flags}
    CORPUS_FILE.write(path, header, arrays)


class OpenCorpus:
    """A filled-corpus file held open: every framing check, and every check
    of its header, offsets and labels, runs when it opens, and ``read``
    reads the frames of any videos. It is a context manager that closes the
    file."""

    def __init__(self, path: str | Path) -> None:
        self.file = CORPUS_FILE.open(path)
        try:
            header = self.file.header
            self.videos: tuple[str, ...] = tuple(header["videos"])
            self.offsets, self.labels = self.file.read("offsets"), self.file.read("labels")
            self.path = TraversalPath(tuple(header["tour"]), header["topology"])
            self.seed, self.config_hash = header["seed"], header["config_hash"]
            self.num_joints = header["joints"]
            self.file.named(FilledCorpus.check_index, self.videos, self.labels, self.offsets,
                            header["frames"])
            self.file.named(FilledCorpus.check_header, self.videos, self.labels, self.path,
                            self.num_joints, self.seed)
        except BaseException:
            self.file.close()
            raise

    tensor_shape = FilledCorpus.tensor_shape

    def __enter__(self) -> OpenCorpus:
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    def read(self, rows: np.ndarray | None = None) -> FilledCorpus:
        """The FilledCorpus of the videos at the indices rows (every video if
        None), in that order, read with one read of coords and one of flags
        per run of videos whose frames follow each other in the file; that
        corpus's checks of the frames name the file."""
        rows = np.arange(len(self.videos)) if rows is None else np.asarray(rows, np.intp)
        starts, stops = self.offsets[rows], self.offsets[rows + 1]
        offsets = np.concatenate([[0], np.cumsum(stops - starts)])
        coords = np.empty((offsets[-1], self.num_joints, 2))
        flags = np.empty((offsets[-1], self.num_joints), np.uint8)
        runs = np.flatnonzero(np.r_[True, starts[1:] != stops[:-1], True])
        for first, end in zip(runs[:-1], runs[1:]):
            self.file.read_into("coords", coords[offsets[first]:offsets[end]], starts[first])
            self.file.read_into("flags", flags[offsets[first]:offsets[end]], starts[first])
        return self.file.named(
            FilledCorpus, tuple(self.videos[row] for row in rows), self.labels[rows], offsets,
            coords, flags, path=self.path, seed=self.seed, config_hash=self.config_hash)


def read_corpus(path: str | Path) -> FilledCorpus:
    """Read and validate a filled-corpus file; errors name the file."""
    with OpenCorpus(path) as corpus:
        return corpus.read()
