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
    NormalizedPoseSequence,
    PoseSequence,
    SpatialModel,
    fit_spatial_model,
    normalize,
    read_annotations,
    spatial_interpolate,
    temporal_interpolate,
    write_annotations,
    zero_fill,
)
from .tensorize import (
    PoseTensor,
    SnippetPlan,
    build_pose_tensor,
    plan_snippets,
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
    loss,
    predict,
    save_checkpoint,
    train,
)
from .fusion import (
    EvalResult,
    FusionWeights,
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
    "FusionWeights",
    "NetSpec",
    "NormalizedPoseSequence",
    "PipelineConfig",
    "PoseConvNet",
    "PoseSequence",
    "PoseTensor",
    "SkeletonTopology",
    "SnippetPlan",
    "SpatialModel",
    "StreamScores",
    "SyntheticSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "TraversalPath",
    "backward",
    "build_pose_tensor",
    "build_topology",
    "consensus",
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
    "loss",
    "make_topology",
    "normalize",
    "plan_snippets",
    "predict",
    "read_annotations",
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
