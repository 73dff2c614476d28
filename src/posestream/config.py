"""Declarative pipeline configuration: one file, flag overrides on top.

A config file is a YAML (or JSON) mapping whose keys match PipelineConfig
fields. Command-line flags override file values, which override defaults.
A value out of its range raises ValueError naming the key as soon as the
config is built, before any command reads or writes a file. Every output
file of every command embeds the hash of the resolved settings plus the
seed, so runs can be traced back to their settings. The hash leaves out
input and output paths (``topology_file`` stays in: with profile
``custom`` it selects the skeleton).

This module imports nothing else from the package, so every command can
load it without the layers it does not run. It owns the settings objects
the layers take (``NetSpec``, ``TrainConfig``, ``SAMPLING_MODES`` and the
net's dtype ``NET_DTYPE``), which they import from here, the video id rule
and check that the annotation, corpus and CSV readers and writers share,
the check of a corpus's ids, labels and offsets that the pose corpus and
the filled corpus share, and the message for a text file that is not
UTF-8, which the config, CSV and topology readers share.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

NET_DTYPE = np.dtype("<f4")  # of every command's net and checkpoint, and of the corpus
SAMPLING_MODES = ("random", "center")

ID_RULE = "must not contain ',', '\"', CR, LF or unpaired surrogates, nor start with '#'"

# Score and label CSVs join fields with bare commas, one row per line, and
# the corpus file stores ids as UTF-8, which has no unpaired surrogates.
_ID_FORBIDDEN = re.compile('[,"\r\n\ud800-\udfff]')


def is_video_id(video: object) -> bool:
    """Whether video is an id every reader accepts and every writer writes back."""
    return (isinstance(video, str) and video != "" and not video.startswith("#")
            and _ID_FORBIDDEN.search(video) is None)


def check_video_ids(videos: Iterable[object]) -> None:
    """ValueError naming the first id that is_video_id rejects: no file the
    tool writes can hold it."""
    for video in videos:
        if not is_video_id(video):
            raise ValueError(f"cannot write video id {video!r}: an id must be a non-empty "
                             f"string and {ID_RULE}")


def check_corpus_index(videos: Sequence[str], labels: np.ndarray, offsets: np.ndarray,
                       frames: int) -> None:
    """The checks of a corpus that need none of its frames: a label per
    video, and offsets that rise from 0 to the frame count."""
    count = len(videos)
    if count == 0:
        raise ValueError("refusing to build an empty corpus")
    if labels.shape != (count,) or offsets.shape != (count + 1,):
        raise ValueError(f"{count} videos need {count} labels and {count + 1} offsets, got "
                         f"{labels.shape} and {offsets.shape}")
    if offsets[0] != 0 or offsets[-1] != frames or np.any(np.diff(offsets) < 1):
        raise ValueError(f"frame offsets must rise from 0 to {frames} with no empty video")


def decode_utf8(path: str | Path, data: bytes) -> str:
    """The text of a file's bytes; ValueError naming the file, and the line
    of the first byte that is not UTF-8 and its offset in that line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line, offset = head.count(b"\n") + 1, exc.start - head.rfind(b"\n") - 1
        message = f"line is not UTF-8 (bad byte at offset {offset})"
        raise ValueError(f"{path}:{line}: {message}") from None


@dataclass(frozen=True)
class NetSpec:
    """The net's tunable layer widths; its filter and pool sizes are fixed
    (``convnet.FILTER_H``, ``FILTER_W``, ``POOL``)."""

    conv1_channels: int = 32
    conv2_channels: int = 64
    hidden: int = 256

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("learning_rate", 0), ("epochs", 0), ("batch_size", 1)):
            if not getattr(self, name) >= least:  # NaN fails too
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass
class PipelineConfig:
    """Everything the pipeline commands need: 15 segments, random snippet
    sampling, affine spatial models, unit fusion weights by default."""

    # skeleton / sampling
    profile: str = "jhmdb_gt"
    topology_file: str | None = None
    k: int = 15
    sampling: str = "random"
    seed: int = 0
    # interpolation
    max_gap: int = 10
    interpolate: bool = True
    # network
    conv1_channels: int = NetSpec.conv1_channels
    conv2_channels: int = NetSpec.conv2_channels
    hidden: int = NetSpec.hidden
    learning_rate: float = TrainConfig.learning_rate
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    # paths (not part of the hash)
    annotations: str | None = None
    cache: str | None = None
    spatial_model: str | None = None
    save_spatial_model: str | None = None
    checkpoint: str | None = None
    trace: str | None = None
    scores: str | None = None
    labels: str | None = None
    report: str | None = None
    fused_scores: str | None = None
    pose_scores: str | None = None
    spatial_scores: str | None = None
    temporal_scores: str | None = None
    # fusion
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    weight_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)

    def __post_init__(self) -> None:
        self.weights = tuple(float(w) for w in self.weights)  # type: ignore[assignment]
        self.weight_grid = tuple(float(w) for w in self.weight_grid)  # type: ignore[assignment]
        if len(self.weights) != 3:
            raise ValueError("weights must be three values (pose, spatial, temporal)")
        for key in ("weights", "weight_grid"):
            if not all(math.isfinite(w) for w in getattr(self, key)):
                raise ValueError(f"{key} must be finite numbers, got {getattr(self, key)}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        self.net_spec()  # NetSpec and TrainConfig check their own fields
        self.train_config()
        for key, fits, rule in (
            ("k", self.k >= 1, ">= 1"), ("max_gap", self.max_gap >= 0, ">= 0"),
            ("sampling", self.sampling in SAMPLING_MODES, f"one of {SAMPLING_MODES}"),
        ):
            if not fits:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")

    def net_spec(self) -> NetSpec:
        return NetSpec(conv1_channels=self.conv1_channels, conv2_channels=self.conv2_channels,
                       hidden=self.hidden)

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate, epochs=self.epochs,
                           batch_size=self.batch_size, seed=self.seed)

    def require(self, *names: str) -> None:
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ValueError(f"config is missing required path(s): {', '.join(missing)}")

    def hash(self) -> str:
        """Hash of the settings and seed; the paths under ``# paths`` are
        left out, so the same run written under other file names records
        the same hash."""
        return settings_hash({k: v for k, v in asdict(self).items() if k not in _PATH_FIELDS})


def settings_hash(settings: dict) -> str:
    """The 12-hex hash of the settings an output was made with, which every
    output file but a saved spatial model records."""
    canonical = json.dumps(settings, sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}
_FIELD_NAMES = set(_DEFAULTS)
_PATH_FIELDS = frozenset({
    "annotations", "cache", "spatial_model", "save_spatial_model", "checkpoint", "trace",
    "scores", "labels", "report", "fused_scores", "pose_scores", "spatial_scores",
    "temporal_scores",
})


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Type of a field's default -> what a config-file value for it must be, and its test.
_KINDS = {
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string", lambda v: v is None or isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _number),
    tuple: ("a list of numbers", lambda v: isinstance(v, (list, tuple)) and all(map(_number, v))),
}


def _read_config_file(path: str | Path) -> dict:
    """The mapping in a YAML/JSON config file; every defect raises ValueError
    naming the file (and the key, for a value of the wrong type)."""
    import yaml  # only commands given a config file pay for the import

    try:
        stream = io.StringIO(decode_utf8(path, Path(path).read_bytes()))
        stream.name = str(path)  # so YAML error marks cite the file
        raw = yaml.safe_load(stream)
    except (ValueError, yaml.YAMLError) as exc:  # ValueError: not UTF-8, or a bad date
        raise ValueError(f"{path}: config is not valid YAML: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _FIELD_NAMES, key=str)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {unknown}")
    for key, value in raw.items():
        kind, fits = _KINDS[type(_DEFAULTS[key])]
        if not fits(value):
            raise ValueError(f"{path}: {key} must be {kind}, got {value!r}")
    try:
        PipelineConfig(**raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return raw


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Merge defaults < config file < overrides into a PipelineConfig.

    Unknown keys in the file or overrides raise (typo protection); override
    entries whose value is None are treated as not given.
    """
    values = _read_config_file(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_NAMES:
            raise ValueError(f"unknown config override '{key}'")
        values[key] = value
    return PipelineConfig(**values)
