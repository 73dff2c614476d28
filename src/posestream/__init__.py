"""Pose-stream action recognition toolkit.

Encodes 2D joint sequences as Euler-tour pose tensors (positions, velocity,
acceleration), recovers missing joints by temporal then spatial
interpolation, trains a shallow from-scratch pose ConvNet, and fuses its
scores with externally supplied spatial/temporal stream scores.
"""

from .skeleton import (
    SkeletonTopology,
    TraversalPath,
    build_topology,
    euler_tour,
    load_topology,
    make_topology,
)
from .preprocess import (
    AnnotationError,
    PoseCorpus,
    SpatialModel,
    fit_spatial_model,
    normalize,
    spatial_interpolate,
    temporal_interpolate,
    write_annotations,
    zero_fill,
)
from .tensorize import (
    FilledCorpus,
    corpus_tensors,
    read_corpus,
    write_corpus,
)
from .convnet import (
    NetSpec,
    PoseConvNet,
    TrainConfig,
    TrainingDivergedError,
    backward,
    forward,
    init_net,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .fusion import (
    EvalResult,
    StreamScores,
    consensus,
    evaluate,
    fuse,
    read_labels,
    read_scores,
    search_weights,
    write_labels,
    write_scores,
)
from .synth import SyntheticSpec, generate
from .config import PipelineConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "AnnotationError",
    "EvalResult",
    "FilledCorpus",
    "NetSpec",
    "PipelineConfig",
    "PoseConvNet",
    "PoseCorpus",
    "SkeletonTopology",
    "SpatialModel",
    "StreamScores",
    "SyntheticSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "TraversalPath",
    "backward",
    "build_topology",
    "consensus",
    "corpus_tensors",
    "euler_tour",
    "evaluate",
    "fit_spatial_model",
    "forward",
    "fuse",
    "generate",
    "init_net",
    "load_checkpoint",
    "load_config",
    "load_topology",
    "make_topology",
    "normalize",
    "read_corpus",
    "read_labels",
    "read_scores",
    "save_checkpoint",
    "search_weights",
    "spatial_interpolate",
    "temporal_interpolate",
    "train",
    "write_annotations",
    "write_corpus",
    "write_labels",
    "write_scores",
    "zero_fill",
]
