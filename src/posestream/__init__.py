"""Pose-stream action recognition toolkit.

Encodes 2D joint sequences as Euler-tour pose tensors (positions, velocity,
acceleration), recovers missing joints by temporal then spatial
interpolation, trains a shallow from-scratch pose ConvNet, and fuses its
scores with externally supplied spatial/temporal stream scores.

Importing the package loads no submodule: each public name is imported
from its submodule on first use (PEP 562), so a command pays only for the
layers it runs.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "skeleton": ("SkeletonTopology", "TraversalPath", "build_topology", "euler_tour",
                 "load_topology", "make_topology"),
    "preprocess": ("AnnotationError", "PoseCorpus", "SpatialModel", "fit_spatial_model",
                   "normalize", "spatial_interpolate", "temporal_interpolate", "voting_pairs",
                   "write_annotations", "zero_fill"),
    "tensorize": ("FilledCorpus", "corpus_tensors", "read_corpus", "write_corpus"),
    "convnet": ("PoseConvNet", "TrainingDivergedError", "backward", "forward", "init_net",
                "load_checkpoint", "save_checkpoint", "train"),
    "fusion": ("EvalResult", "StreamScores", "consensus", "evaluate", "fuse", "read_labels",
               "read_scores", "search_weights", "write_labels", "write_scores"),
    "synth": ("SyntheticSpec", "generate"),
    "config": ("NetSpec", "PipelineConfig", "TrainConfig", "load_config"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
