"""Snippet sampling, pose-tensor assembly, and the filled-corpus file.

A video is split into K equal segments and one snippet frame is chosen per
segment (uniformly at random within the segment, or at its midpoint). The
pose tensor stacks, per snippet, the (x, y) coordinates of every joint
visit along the skeleton's traversal path into one row of width 2L, with a
velocity channel (row-to-row first difference) and an acceleration channel
(difference of differences) alongside; both derivative channels have an
all-zero first row. Result shape: K x 2L x 3.

The random draw is counter-based (Salmon et al., "Parallel Random Numbers:
As Easy as 1, 2, 3", SC 2011): the frame of segment s is a keyed hash of
(seed, video digest, epoch, s), with no generator state. splitmix64's
finalizer (``_mix``) absorbs the seed, the first 8 bytes of the sha256 of
the video id (as a little-endian u64; each ``FilledCorpus`` hashes its ids
once), and the epoch word (0 without an epoch, epoch + 1 with one), each
added to the golden-ratio increment; the word of segment s is
``_mix(key + (s + 1) * golden)``. The top 32 bits r of that word map into
the segment's [lo, hi) as lo + (r * (hi - lo)) >> 32 (Lemire's
multiply-shift), so each frame of a segment of width w is drawn with a
probability within 2**-32 of 1/w: a relative bias of at most w / 2**32.
All of it is uint64 numpy arithmetic, wrapping mod 2**64, on np.uint64
operands only.

``preprocess`` writes its filled, normalized frames to one filled-corpus
file. ``FilledCorpus`` holds the frames of such a file (ids, labels,
offsets and NET_DTYPE coordinates) and its header (Euler tour, seed,
config hash). ``corpus_tensors`` builds the NET_DTYPE tensors of the rows
it is given (``train``: every video, in an epoch's order; ``eval``: one
slice) from their segment bounds as one (R, K) array, one hash pass over
all (R, K) segments, one gather of the chosen frames and two differences
over the whole (R, K, 2L) position array.

The filled-corpus file is a ``binio`` container (magic ``PCRP``). Its
header holds ``topology`` (the name), ``tour`` (the Euler tour's joint
indices), ``config_hash``, ``seed``, ``videos`` (the ids, in order),
``frames`` F and ``joints`` n; the arrays that follow it are::

    offsets  int64   (V+1,)     0 first, strictly increasing, last = F
    labels   int64   (V,)       -1 where absent
    coords   float32 (F, n, 2)  in (frame, joint, xy) order

Video i owns frames offsets[i] to offsets[i+1] - 1. Every joint of a filled
corpus is filled; the fill provenance stays in the preprocess report.

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
from functools import cached_property
from pathlib import Path

import numpy as np

from . import binio
from .config import NET_DTYPE, SAMPLING_MODES, check_corpus_index, check_video_ids
from .skeleton import TraversalPath

CORPUS_MAGIC = b"PCRP"
CORPUS_VERSION = 4
CHANNELS = 3


# ---------------------------------------------------------------------------
# Filled corpus
# ---------------------------------------------------------------------------

@dataclass
class FilledCorpus:
    """A filled corpus as one file holds it: the normalized frames of one
    preprocess run, as NET_DTYPE coordinates, every joint filled, the Euler
    tour their tensors follow, and the run's seed and config hash. Video i
    owns rows offsets[i] to offsets[i+1] - 1 of coords."""

    videos: tuple[str, ...]
    labels: np.ndarray   # (V,) int64, -1 where absent
    offsets: np.ndarray  # (V+1,) int64
    coords: np.ndarray   # (F, n, 2) NET_DTYPE
    path: TraversalPath
    seed: int
    config_hash: str

    def __post_init__(self) -> None:
        self.videos = tuple(self.videos)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        with np.errstate(over="ignore"):  # a value beyond NET_DTYPE's range casts to inf
            self.coords = np.asarray(self.coords, dtype=NET_DTYPE)
        if self.coords.ndim != 3 or self.coords.shape[2] != 2:
            raise ValueError(f"coords must have shape (F, n, 2), got {self.coords.shape}")
        check_corpus_index(self.videos, self.labels, self.offsets, len(self.coords))
        self.check_header(self.videos, self.labels, self.path, self.num_joints, self.seed)
        finite = np.isfinite(self.coords).all(axis=(1, 2))
        if not finite.all():
            video = self.videos[np.searchsorted(self.offsets, finite.argmin(), side="right") - 1]
            raise ValueError(f"video '{video}' has non-finite {NET_DTYPE} coordinates on "
                             "filled joints")

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
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")

    @property
    def num_joints(self) -> int:
        return self.coords.shape[1]

    @cached_property
    def digests(self) -> np.ndarray:
        """(V,) uint64: the first 8 bytes of each id's sha256, little-endian."""
        return np.frombuffer(b"".join(hashlib.sha256(video.encode("utf-8")).digest()[:8]
                                      for video in self.videos), "<u8").astype(np.uint64)

    def tensor_shape(self, k: int) -> tuple[int, int, int]:
        """(K, 2L, CHANNELS): the shape of one video's tensor at k segments."""
        return k, 2 * len(self.path), CHANNELS


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of a uint64 array, in place."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _segment_words(seed: int, digests: np.ndarray, epoch: int | None, k: int) -> np.ndarray:
    """(R, K) uint64 hash of (seed, digest, epoch, segment) per row and segment."""
    key = _mix(np.full(len(digests), seed, np.uint64) + _GOLDEN)
    key = _mix((key ^ digests) + _GOLDEN)
    key = _mix((key ^ np.uint64(0 if epoch is None else epoch + 1)) + _GOLDEN)
    return _mix(key[:, None] + np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN)


def _segment_frames(frames: np.ndarray, k: int, words: np.ndarray | None) -> np.ndarray:
    """(V, K) chosen frame of every segment of videos with the given frame counts.

    Segment s covers frame indices [floor(s*F/K), floor((s+1)*F/K)). Random
    mode (words, the (V, K) ``_segment_words``, given) maps each segment's
    word into it by multiply-shift (module docstring); center mode (words
    None) takes (lo + hi) // 2. When F < K some segments are empty; an empty
    segment reuses the nearest earlier chosen frame (leading empties borrow
    from the first non-empty segment), keeping every row monotone.
    """
    steps = np.arange(k + 1)
    bounds = steps * frames[:, None] // k
    lo, hi = bounds[:, :-1], bounds[:, 1:]
    full = hi > lo
    if words is None:
        chosen = (lo + hi) // 2
    else:
        # The product fits 64 bits for any segment under 2**32 frames, which
        # is every segment of a corpus that fits in memory.
        top, width = words >> np.uint64(32), (hi - lo).astype(np.uint64)
        chosen = lo + (top * width >> np.uint64(32)).astype(np.int64)
    # Each segment takes the frame of the last non-empty segment at or before
    # it, or of the first non-empty one when there is none.
    source = np.maximum.accumulate(np.where(full, steps[:-1], -1), axis=1)
    source = np.where(source < 0, full.argmax(axis=1)[:, None], source)
    return np.take_along_axis(chosen, source, axis=1)


def _index_rows(rows: object, count: int) -> np.ndarray:
    """rows as a 1-D intp array of indices of count videos; ValueError
    naming the first row that is not one."""
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise ValueError(f"rows must be a 1-D sequence of video indices, got shape {rows.shape}")
    for row in rows.tolist():
        if type(row) is not int or not 0 <= row < count:
            raise ValueError(f"row {row!r} is not the index of one of the {count} videos")
    return rows.astype(np.intp)


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
    gap between them. A video's random snippets hash ``seed``, its id and,
    when given, the epoch (module docstring), never the other videos, so a
    video's tensor is the same whichever rows are asked for. The three
    channels are written into one NET_DTYPE array: out, of the result's
    shape, when given (``eval`` reuses one for every slice), else a new one.
    A row that is not a video index fails naming it; no rows give (0, K, 2L, 3).
    """
    if k < 1:
        raise ValueError(f"segment count must be >= 1, got {k}")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode '{mode}'; use one of {SAMPLING_MODES}")
    if not 0 <= seed < 2**64 or not (epoch is None or 0 <= epoch < 2**64 - 1):
        raise ValueError(f"seed must be in [0, 2**64) and epoch in [0, 2**64 - 1), "
                         f"got {seed} and {epoch}")
    rows = _index_rows(rows, len(corpus.videos))
    words = _segment_words(seed, corpus.digests[rows], epoch, k) if mode == "random" else None
    starts = corpus.offsets[rows]
    frames = _segment_frames(corpus.offsets[rows + 1] - starts, k, words) + starts[:, None]
    joints = np.asarray(corpus.path.joints, dtype=np.intp)
    shape = (len(rows), *corpus.tensor_shape(k))
    tensors = np.empty(shape, NET_DTYPE) if out is None else out
    if tensors.shape != shape or tensors.dtype != NET_DTYPE:
        raise ValueError(f"out must be a {NET_DTYPE} array of shape {shape}")
    positions, velocity, acceleration = np.moveaxis(tensors, -1, 0)
    positions[...] = corpus.coords[frames[:, :, None], joints].reshape(positions.shape)
    velocity[:, 0] = acceleration[:, 0] = 0
    np.subtract(positions[:, 1:], positions[:, :-1], out=velocity[:, 1:])
    np.subtract(velocity[:, 1:], velocity[:, :-1], out=acceleration[:, 1:])
    return tensors


def _corpus_layout(header: dict) -> binio.Layout:
    count, frames, joints = len(header["videos"]), header["frames"], header["joints"]
    return {
        "offsets": ("<i8", (count + 1,)),
        "labels": ("<i8", (count,)),
        "coords": (NET_DTYPE.str, (frames, joints, 2)),
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
    arrays = {"offsets": corpus.offsets, "labels": corpus.labels, "coords": corpus.coords}
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
            self.file.named(check_corpus_index, self.videos, self.labels, self.offsets,
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
        None), in that order, read with one read per run of videos whose
        frames follow each other in the file; that corpus's checks of the
        frames name the file. A row that is not a video index fails naming it,
        and no rows fail naming the file."""
        count = len(self.videos)
        rows = np.arange(count) if rows is None else _index_rows(rows, count)
        if not len(rows):
            raise ValueError(f"{self.file.path}: no rows to read")
        starts, stops = self.offsets[rows], self.offsets[rows + 1]
        offsets = np.concatenate([[0], np.cumsum(stops - starts)])
        coords = np.empty((offsets[-1], self.num_joints, 2), NET_DTYPE)
        runs = np.flatnonzero(np.r_[True, starts[1:] != stops[:-1], True])
        for first, end in zip(runs[:-1], runs[1:]):
            self.file.read_into("coords", coords[offsets[first]:offsets[end]], starts[first])
        return self.file.named(
            FilledCorpus, tuple(self.videos[row] for row in rows), self.labels[rows], offsets,
            coords, path=self.path, seed=self.seed, config_hash=self.config_hash)


def read_corpus(path: str | Path) -> FilledCorpus:
    """Read and validate a filled-corpus file; errors name the file."""
    with OpenCorpus(path) as corpus:
        return corpus.read()
