"""Declarative pipeline configuration: one file, flag overrides on top.

A config file is a YAML (or JSON) mapping whose keys match PipelineConfig
fields. Command-line flags override file values, which override defaults.
Every output file of every command embeds the hash of the fully resolved
configuration plus the seed, so runs can be traced back to their settings.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import yaml


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
    poly_degree: int = 1
    interpolate: bool = True
    # network
    conv1_channels: int = 32
    conv2_channels: int = 64
    hidden: int = 256
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 32
    weight_decay: float = 0.0
    # paths
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

    def require(self, *names: str) -> None:
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ValueError(f"config is missing required path(s): {', '.join(missing)}")

    def hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


_FIELD_NAMES = {f.name for f in fields(PipelineConfig)}


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Merge defaults < config file < overrides into a PipelineConfig.

    Unknown keys in the file or overrides raise (typo protection); override
    entries whose value is None are treated as not given.
    """
    values: dict = {}
    if path is not None:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a mapping, got {type(raw).__name__}")
        unknown = sorted(set(raw) - _FIELD_NAMES)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {unknown}")
        values.update(raw)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_NAMES:
            raise ValueError(f"unknown config override '{key}'")
        values[key] = value
    return PipelineConfig(**values)
