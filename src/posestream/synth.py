"""Synthetic parametric motion corpus for desk-scale training and tests.

Entirely invented data: each class is a hand-written joint-motion generator
(arm wave, squat, walking stride, vertical bounce) applied to a canonical
standing figure, with per-video randomized frequency, amplitude, phase, and
a random similarity transform (scale + translation) so that normalization
actually has work to do. Gaussian coordinate noise and joint-visibility
dropout are applied last. Not a stand-in for any real dataset; it exists so
the training and fusion paths can be exercised end to end in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preprocess import PoseCorpus
from .skeleton import build_topology

# Canonical standing figure, pixel units, y grows downward.
_BASE_POSE = {
    "head": (0.0, 0.0),
    "neck": (0.0, 30.0),
    "belly": (0.0, 85.0),
    "r_shoulder": (-28.0, 35.0),
    "l_shoulder": (28.0, 35.0),
    "r_elbow": (-42.0, 68.0),
    "l_elbow": (42.0, 68.0),
    "r_wrist": (-48.0, 100.0),
    "l_wrist": (48.0, 100.0),
    "r_hip": (-16.0, 95.0),
    "l_hip": (16.0, 95.0),
    "r_knee": (-18.0, 150.0),
    "l_knee": (18.0, 150.0),
    "r_ankle": (-20.0, 205.0),
    "l_ankle": (20.0, 205.0),
}

CLASS_NAMES = ("wave", "squat", "stride", "bounce")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one generated corpus."""

    classes: tuple[str, ...] = CLASS_NAMES
    videos_per_class: int = 50
    frames: int = 40
    noise_sigma: float = 1.0
    dropout: float = 0.0
    seed: int = 0
    profile: str = "jhmdb_gt"

    def __post_init__(self) -> None:
        unknown = [c for c in self.classes if c not in CLASS_NAMES]
        if unknown:
            raise ValueError(f"unknown motion classes {unknown}; available: {list(CLASS_NAMES)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.noise_sigma}")
        if self.videos_per_class < 1 or self.frames < 2:
            raise ValueError("need at least 1 video per class and 2 frames per video")


def _offset(coords: np.ndarray, names: dict[str, int], joint: str, dx: np.ndarray, dy: np.ndarray) -> None:
    if joint in names:
        coords[:, names[joint], 0] += dx
        coords[:, names[joint], 1] += dy


def _motion(
    motion: str, frames: int, names: dict[str, int], base: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-frame coordinates (frames, n, 2) before noise/transform."""
    coords = np.repeat(base[None, :, :], frames, axis=0)
    t = np.arange(frames, dtype=np.float64)
    omega = 2.0 * np.pi * rng.uniform(0.08, 0.16)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amp = rng.uniform(0.8, 1.2)
    wavey = np.sin(omega * t + phase)
    zero = np.zeros(frames)

    # Normalization centers every frame on the torso, so whole-body
    # translation carries no signal; each class changes the pose shape.
    if motion == "wave":
        # One arm swings overhead and back; the rest of the body is still.
        _offset(coords, names, "r_wrist", 15.0 * amp * wavey, -55.0 * amp - 30.0 * amp * wavey)
        _offset(coords, names, "r_elbow", 8.0 * amp * wavey, -22.0 * amp - 12.0 * amp * wavey)
    elif motion == "squat":
        # Torso sinks toward the feet: legs compress relative to the torso,
        # knees bow outward.
        drop = 30.0 * amp * 0.5 * (1.0 - np.cos(omega * t + phase))
        for joint in ("head", "neck", "belly", "r_shoulder", "l_shoulder", "r_elbow",
                      "l_elbow", "r_wrist", "l_wrist", "r_hip", "l_hip"):
            _offset(coords, names, joint, zero, drop)
        bend = drop / 30.0
        _offset(coords, names, "r_knee", -14.0 * bend, 0.5 * drop)
        _offset(coords, names, "l_knee", 14.0 * bend, 0.5 * drop)
    elif motion == "stride":
        # Gait: legs swing against each other, arms counter-swing; the body
        # also drifts sideways (removed by centering, kept for realism).
        shift = 3.0 * amp * t
        for joint in names:
            _offset(coords, names, joint, shift, zero)
        swing = 18.0 * amp * wavey
        for joint in ("r_knee", "r_ankle"):
            _offset(coords, names, joint, swing, zero)
        for joint in ("l_knee", "l_ankle"):
            _offset(coords, names, joint, -swing, zero)
        _offset(coords, names, "r_wrist", -10.0 * amp * wavey, zero)
        _offset(coords, names, "l_wrist", 10.0 * amp * wavey, zero)
    elif motion == "bounce":
        # Jumping-jack arms: both arms pump up and down in phase while the
        # feet tuck slightly on each beat.
        pump = 28.0 * amp * wavey
        _offset(coords, names, "r_wrist", zero, pump)
        _offset(coords, names, "l_wrist", zero, pump)
        _offset(coords, names, "r_elbow", zero, 0.5 * pump)
        _offset(coords, names, "l_elbow", zero, 0.5 * pump)
        tuck = -10.0 * amp * np.abs(wavey)
        _offset(coords, names, "r_ankle", zero, tuck)
        _offset(coords, names, "l_ankle", zero, tuck)
    else:  # pragma: no cover - guarded by SyntheticSpec
        raise ValueError(f"unknown motion '{motion}'")
    return coords


def generate(spec: SyntheticSpec) -> PoseCorpus:
    """Deterministic corpus of labeled videos of spec.frames frames each."""
    topology = build_topology(spec.profile)
    names = {nm: i for i, nm in enumerate(topology.joint_names)}
    missing = [nm for nm in topology.joint_names if nm not in _BASE_POSE]
    if missing:
        raise ValueError(f"profile '{topology.name}' has joints the generator lacks: {missing}")
    base = np.array([_BASE_POSE[nm] for nm in topology.joint_names])

    shape = (len(spec.classes), spec.videos_per_class, spec.frames, topology.n)
    coords = np.empty((*shape, 2))
    flags = np.ones(shape, dtype=np.uint8)
    rng = np.random.default_rng(spec.seed)
    for label, motion in enumerate(spec.classes):
        for v in range(spec.videos_per_class):
            video = _motion(motion, spec.frames, names, base, rng)
            scale = rng.uniform(0.6, 1.8)
            shift = rng.uniform(-200.0, 200.0, size=2)
            coords[label, v] = video * scale + shift
            if spec.noise_sigma > 0:
                coords[label, v] += rng.normal(0.0, spec.noise_sigma, size=video.shape)
            if spec.dropout > 0:
                # Separate per-video generator: turning dropout on or off
                # leaves the motion stream (and thus the coordinates) as
                # they were, so corpora differ only in visibility.
                drop_rng = np.random.default_rng([spec.seed, label, v])
                flags[label, v][drop_rng.random(shape[2:]) < spec.dropout] = 0
    return PoseCorpus(
        videos=[f"{motion}_{v:04d}" for motion in spec.classes for v in range(shape[1])],
        labels=np.repeat(np.arange(shape[0]), shape[1]),
        offsets=np.arange(shape[0] * shape[1] + 1) * spec.frames,
        coords=coords.reshape(-1, topology.n, 2),
        flags=flags.reshape(-1, topology.n),
    )
