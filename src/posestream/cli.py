"""Command-line surface: synth, preprocess, train, eval, fuse, weights-search.

Commands compose through the files they exchange: ``preprocess`` turns an
annotation file into one filled-corpus file (the ``--cache`` path),
``train`` turns the corpus into a checkpoint and a metrics trace, redrawing
snippets every epoch, ``eval`` turns checkpoint + corpus into a score CSV
and an accuracy report, and ``fuse`` combines score CSVs from this and
external streams. Every command is deterministic given its config and seed,
every output embeds the config hash and seed, every check runs before the
first write, and all writes are atomic (unique temp file + rename). Errors
leave a machine-readable JSON line on stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import secrets
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import convnet, fusion, preprocess, synth, tensorize
from .config import PipelineConfig, load_config
from .preprocess import (
    AnnotationError,
    VIS_OBSERVED,
    VIS_SPATIAL,
    VIS_SYNTHETIC,
    VIS_TEMPORAL,
)
from .skeleton import SkeletonTopology, build_topology, euler_tour


class CliError(ValueError):
    """User-facing command error."""


def _atomic_write(path: str | Path, writer: Callable[[Path], None]) -> None:
    """Write via a unique temp file in the same directory, then rename into place.

    O_EXCL leaves any existing file untouched; mode 0o666 lets the umask apply.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: str | Path, payload: dict) -> None:
    _atomic_write(
        path,
        lambda p: p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8"),
    )


def _load_topology(cfg: PipelineConfig) -> SkeletonTopology:
    return build_topology(cfg.profile, cfg.topology_file)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(spec: synth.SyntheticSpec, out: str | Path) -> dict:
    spec_dict = asdict(spec)
    spec_hash = hashlib.sha256(
        json.dumps(spec_dict, sort_keys=True, default=list).encode("utf-8")
    ).hexdigest()[:12]
    meta = {"seed": spec.seed, "config_hash": spec_hash, "spec": spec_dict}
    corpus = synth.generate(spec)
    _atomic_write(out, lambda p: preprocess.write_annotations(p, corpus, meta=meta))
    return {"videos": len(corpus.videos), "classes": len(spec.classes), "out": str(out)}


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

_FILL_KINDS = {
    "observed": VIS_OBSERVED,
    "temporal": VIS_TEMPORAL,
    "spatial": VIS_SPATIAL,
    "synthetic": VIS_SYNTHETIC,
}


def _fill_counts(
    flags: np.ndarray, topology: SkeletonTopology
) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """Provenance counts over the corpus flags: in total, and per joint name."""
    per_joint = {kind: (flags == code).sum(axis=0) for kind, code in _FILL_KINDS.items()}
    totals = {kind: int(counts.sum()) for kind, counts in per_joint.items()}
    by_name = {
        name: {kind: int(counts[j]) for kind, counts in per_joint.items()}
        for j, name in enumerate(topology.joint_names)
    }
    return totals, by_name


def cmd_preprocess(cfg: PipelineConfig) -> dict:
    """Annotations -> one filled-corpus file + report."""
    cfg.require("annotations", "cache")
    topology = _load_topology(cfg)
    run_meta = {"config_hash": cfg.hash(), "seed": cfg.seed}
    model = None
    if cfg.interpolate and cfg.spatial_model:
        model = preprocess.SpatialModel.load(cfg.spatial_model)
        if model.topology_name != topology.name:
            raise CliError(f"spatial model '{cfg.spatial_model}' was fit on "
                           f"'{model.topology_name}', not '{topology.name}'")
        if model.trained.shape[0] != topology.n:
            raise CliError(f"spatial model '{cfg.spatial_model}' has {model.trained.shape[0]} "
                           f"joints, topology '{topology.name}' has {topology.n}")
        if model.degree != cfg.poly_degree:
            raise CliError(f"spatial model '{cfg.spatial_model}' has degree {model.degree}, "
                           f"but --poly-degree is {cfg.poly_degree}")

    records: list[preprocess.Record] = []
    rejected: list[dict] = []
    first_line: dict[str, int] = {}
    for lineno, line in preprocess.iter_annotation_lines(cfg.annotations):
        try:
            record = preprocess.parse_annotation_line(line, n_expected=topology.n)
        except AnnotationError as exc:
            rejected.append({"line": lineno, "error": str(exc)})
            continue
        if record is None:
            continue
        video = record[0]
        if video in first_line:
            raise CliError(f"{cfg.annotations}: video id '{video}' appears on lines "
                           f"{first_line[video]} and {lineno}")
        first_line[video] = lineno
        records.append(record)
    if not records:
        raise CliError(f"no valid records in {cfg.annotations} ({len(rejected)} rejected)")

    corpus = preprocess.PoseCorpus.of(records)
    del records
    if cfg.interpolate:
        corpus = preprocess.temporal_interpolate(corpus, max_gap=cfg.max_gap)
    corpus = preprocess.normalize(corpus, topology)
    # Usable frames keep their torso anchors, so unusable ones have no filled joint.
    unusable_frames = int(np.count_nonzero(~corpus.flags.any(axis=1)))
    if cfg.interpolate:
        if model is None:
            model = preprocess.fit_spatial_model(corpus, topology, degree=cfg.poly_degree)
        if cfg.save_spatial_model:
            _atomic_write(cfg.save_spatial_model, model.save)
        corpus = preprocess.spatial_interpolate(corpus, model, topology)
    else:
        corpus = preprocess.zero_fill(corpus)
    corpus = tensorize.FilledCorpus(**vars(corpus), path=euler_tour(topology), seed=cfg.seed,
                                    config_hash=cfg.hash())
    _atomic_write(cfg.cache, lambda p: tensorize.write_corpus(p, corpus))

    fills, fills_per_joint = _fill_counts(corpus.flags, topology)
    report = {
        **run_meta,
        "videos": len(corpus.videos),
        "rejected": rejected,
        "frames": int(corpus.offsets[-1]),
        "unusable_frames": unusable_frames,
        "fills": fills,
        "fills_per_joint": fills_per_joint,
        "cache": str(cfg.cache),
    }
    if cfg.report:
        _write_json(cfg.report, report)
    return report


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(cfg: PipelineConfig) -> dict:
    """Filled corpus -> checkpoint + per-epoch CSV trace; snippets are redrawn each epoch."""
    cfg.require("cache", "checkpoint")
    corpus = tensorize.read_corpus(cfg.cache)
    tour = euler_tour(_load_topology(cfg))
    if tour != corpus.path:
        raise CliError(f"{cfg.cache}: corpus topology '{corpus.path.topology}' does not match "
                       f"profile '{cfg.profile}' ('{tour.topology}')")
    if np.any(corpus.labels < 0):
        raise CliError(f"{cfg.cache}: videos without labels cannot be used for training")
    num_classes = int(corpus.labels.max()) + 1
    if num_classes < 2:
        raise CliError(f"{cfg.cache}: training needs at least two classes")

    def draw(epoch: int) -> tuple[np.ndarray, np.ndarray]:
        return tensorize.corpus_tensors(corpus, cfg.k, cfg.sampling, cfg.seed, epoch=epoch)

    data, labels = draw(0)
    arch = convnet.NetSpec(
        conv1_channels=cfg.conv1_channels, conv2_channels=cfg.conv2_channels, hidden=cfg.hidden
    )
    net = convnet.init_net(
        input_shape=data.shape[1:], num_classes=num_classes, seed=cfg.seed, arch=arch
    )
    train_cfg = convnet.TrainConfig(
        learning_rate=cfg.learning_rate,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        weight_decay=cfg.weight_decay,
    )
    trained, trace = convnet.train(
        net, data, labels, train_cfg,
        resample=lambda epoch: (data, labels) if epoch == 0 else draw(epoch),
    )

    meta = {"config_hash": cfg.hash(), "seed": cfg.seed, "num_classes": num_classes}
    _atomic_write(cfg.checkpoint, lambda p: convnet.save_checkpoint(trained, p, meta=meta))
    if cfg.trace:
        lines = [f"# config_hash={cfg.hash()} seed={cfg.seed}", "epoch,loss,accuracy"]
        lines += [f"{s.epoch},{s.loss:.12g},{s.accuracy:.12g}" for s in trace]
        _atomic_write(cfg.trace, lambda p: p.write_text("\n".join(lines) + "\n", "utf-8"))
    final = trace[-1] if trace else None
    return {
        "epochs": len(trace),
        "final_loss": final.loss if final else None,
        "final_accuracy": final.accuracy if final else None,
        "checkpoint": str(cfg.checkpoint),
    }


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(cfg: PipelineConfig) -> dict:
    """Checkpoint + filled corpus -> per-video score CSV + accuracy report.

    Snippets are drawn once from the corpus seed, K from the checkpoint.
    The videos are taken in id order, in the same slices of at most
    FORWARD_SLICE rows that ``forward`` scores, and only one slice's
    tensors exist at a time, so memory holds the corpus, the checkpoint
    and one slice whatever the corpus size. Accuracy, per-class accuracy
    and confusion are null unless every video has a label."""
    cfg.require("cache", "checkpoint", "scores")
    corpus = tensorize.read_corpus(cfg.cache)
    net, _ = convnet.load_checkpoint(cfg.checkpoint)
    k = net.input_shape[0]
    shape = (k, 2 * len(corpus.path), tensorize.CHANNELS)
    if tuple(net.input_shape) != shape:
        raise CliError(
            f"checkpoint expects input {net.input_shape}, corpus {cfg.cache} provides {shape}"
        )
    labels = {video: int(label) for video, label in zip(corpus.videos, corpus.labels)
              if label >= 0}
    labeled = len(labels) == len(corpus.videos)
    if cfg.labels and not labeled:
        raise CliError(f"{cfg.cache}: some videos have no label; cannot write {cfg.labels}")

    def score(rows: np.ndarray) -> np.ndarray:
        data, _ = tensorize.corpus_tensors(corpus, k, cfg.sampling, corpus.seed, rows=rows)
        return convnet.forward(net, data)

    order = np.array(sorted(range(len(corpus.videos)), key=corpus.videos.__getitem__))
    slices = convnet.row_slices(order, convnet.FORWARD_SLICE)
    scores = fusion.StreamScores(
        stream="pose", videos=tuple(corpus.videos[i] for i in order),
        matrix=np.concatenate([score(rows) for rows in slices]),
    )
    result = fusion.evaluate(scores, labels) if labeled else None

    run_meta = {"config_hash": cfg.hash(), "seed": cfg.seed}
    _atomic_write(cfg.scores, lambda p: fusion.write_scores(p, scores, meta=run_meta))
    if cfg.labels:
        _atomic_write(cfg.labels, lambda p: fusion.write_labels(p, labels, meta=run_meta))
    per_class = [None if np.isnan(v) else float(v) for v in result.per_class] if result else None
    report = {
        **run_meta,
        "videos": len(order),
        "accuracy": result.accuracy if result else None,
        "per_class_accuracy": per_class,
        "confusion": result.confusion.tolist() if result else None,
        "scores": str(cfg.scores),
    }
    if cfg.report:
        _write_json(cfg.report, report)
    return report


# ---------------------------------------------------------------------------
# fuse / weights-search
# ---------------------------------------------------------------------------

def _load_streams(cfg: PipelineConfig) -> dict[str, fusion.StreamScores]:
    """The streams whose score files are given, by name."""
    paths = {name: getattr(cfg, f"{name}_scores") for name in fusion.STREAMS}
    streams = {name: fusion.read_scores(path, stream=name) for name, path in paths.items() if path}
    if not streams:
        raise CliError(f"fusion needs at least one of {'/'.join(fusion.STREAMS)} score files")
    return streams


def cmd_fuse(cfg: PipelineConfig) -> dict:
    """Score CSVs + labels -> fused score CSV + accuracy table per subset.

    Each subset of the given streams is scored with the run's weights set to
    0.0 outside it; a subset whose own weights are all zero reads null."""
    cfg.require("labels", "fused_scores")
    streams = _load_streams(cfg)
    labels = fusion.read_labels(cfg.labels)
    fused = fusion.fuse(streams, cfg.weights)

    present = [name for name in fusion.STREAMS if name in streams]
    combos = [combo for size in range(1, len(present) + 1)
              for combo in itertools.combinations(present, size)]
    rows = np.where([[name in combo for name in fusion.STREAMS] for combo in combos],
                    cfg.weights, 0.0)
    usable = rows.any(axis=1)
    accuracies = iter(fusion.search_weights(streams, labels, rows[usable]).tolist())
    subsets = {"+".join(combo): next(accuracies) if scored else None
               for combo, scored in zip(combos, usable)}

    run_meta = {
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "weights": ",".join(f"{w:g}" for w in cfg.weights),
    }
    _atomic_write(cfg.fused_scores, lambda p: fusion.write_scores(p, fused, meta=run_meta))
    report = {
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "weights": list(cfg.weights),
        "streams": present,
        "accuracy": subsets,
        "fused_accuracy": subsets["+".join(present)],
        "fused_scores": str(cfg.fused_scores),
    }
    if cfg.report:
        _write_json(cfg.report, report)
    return report


def cmd_weights_search(cfg: PipelineConfig) -> dict:
    """Grid search fusion weights against a labeled validation split."""
    cfg.require("labels")
    streams = _load_streams(cfg)
    labels = fusion.read_labels(cfg.labels)

    axes = [cfg.weight_grid if name in streams else (0.0,) for name in fusion.STREAMS]
    grid = [combo for combo in itertools.product(*axes) if any(w != 0.0 for w in combo)]
    if not grid:
        raise CliError("weight grid contains no usable (non-zero) combination")
    accuracies = fusion.search_weights(streams, labels, grid).tolist()
    best = accuracies.index(max(accuracies))
    report = {
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "best_weights": list(grid[best]),
        "best_accuracy": accuracies[best],
        "candidates": [
            {"weights": list(weights), "accuracy": accuracy}
            for weights, accuracy in zip(grid, accuracies)
        ],
    }
    if cfg.report:
        _write_json(cfg.report, report)
    return report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        print(json.dumps({"error": "UsageError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _add_config_args(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register override flags whose dest matches a PipelineConfig field."""
    specs: dict[str, dict] = {
        "profile": dict(type=str, help="skeleton profile (jhmdb_gt, estimated_14, penn, custom)"),
        "topology_file": dict(type=str, help="description file for --profile custom"),
        "k": dict(type=int, help="segments per video"),
        "sampling": dict(type=str, choices=["random", "center"], help="snippet sampling mode"),
        "seed": dict(type=int, help="master seed"),
        "max_gap": dict(type=int, help="longest temporal gap filled by interpolation"),
        "poly_degree": dict(type=int, choices=[1, 2], help="spatial model polynomial degree"),
        "conv1_channels": dict(type=int), "conv2_channels": dict(type=int),
        "hidden": dict(type=int),
        "learning_rate": dict(type=float), "epochs": dict(type=int),
        "batch_size": dict(type=int), "weight_decay": dict(type=float),
        "annotations": dict(type=str), "cache": dict(type=str),
        "spatial_model": dict(type=str, help="load a previously fitted spatial model (.npz)"),
        "save_spatial_model": dict(type=str, help="save the fitted spatial model (.npz)"),
        "checkpoint": dict(type=str), "trace": dict(type=str),
        "scores": dict(type=str), "labels": dict(type=str), "report": dict(type=str),
        "fused_scores": dict(type=str),
        "pose_scores": dict(type=str), "spatial_scores": dict(type=str),
        "temporal_scores": dict(type=str),
    }
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, default=None, **specs[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posestream", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic annotation file")
    p_synth.add_argument("--out", required=True, help="annotation JSONL to write")
    p_synth.add_argument("--classes", default=",".join(synth.CLASS_NAMES),
                         help="comma-separated motion class names")
    p_synth.add_argument("--videos-per-class", type=int, default=50)
    p_synth.add_argument("--frames", type=int, default=40)
    p_synth.add_argument("--noise-sigma", type=float, default=1.0)
    p_synth.add_argument("--dropout", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--profile", default="jhmdb_gt")

    for name, needed in {
        "preprocess": ("annotations", "cache", "profile", "topology_file", "seed", "max_gap",
                       "poly_degree", "spatial_model", "save_spatial_model", "report"),
        "train": ("cache", "checkpoint", "trace", "profile", "topology_file", "k", "sampling",
                  "seed", "learning_rate", "epochs", "batch_size", "weight_decay",
                  "conv1_channels", "conv2_channels", "hidden"),
        "eval": ("cache", "checkpoint", "scores", "labels", "report", "seed"),
        "fuse": ("pose_scores", "spatial_scores", "temporal_scores", "labels", "fused_scores",
                 "report", "seed"),
        "weights-search": ("pose_scores", "spatial_scores", "temporal_scores", "labels",
                           "report", "seed"),
    }.items():
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", default=None, help="YAML/JSON config file")
        _add_config_args(p, *needed)
        if name == "preprocess":
            p.add_argument("--no-interpolate", action="store_true",
                           help="skip interpolation; zero-fill missing joints (baseline)")
        if name == "fuse":
            p.add_argument("--weights", default=None,
                           help="comma-separated w_pose,w_spatial,w_temporal")
        if name == "weights-search":
            p.add_argument("--grid", default=None, help="comma-separated candidate weight values")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    skip = {"command", "config", "func", "no_interpolate", "weights", "grid"}
    overrides = {k: v for k, v in vars(args).items() if k not in skip}
    if getattr(args, "no_interpolate", False):
        overrides["interpolate"] = False
    if getattr(args, "weights", None):
        overrides["weights"] = tuple(float(v) for v in args.weights.split(","))
    if getattr(args, "grid", None):
        overrides["weight_grid"] = tuple(float(v) for v in args.grid.split(","))
    return overrides


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            spec = synth.SyntheticSpec(
                classes=tuple(args.classes.split(",")),
                videos_per_class=args.videos_per_class,
                frames=args.frames,
                noise_sigma=args.noise_sigma,
                dropout=args.dropout,
                seed=args.seed,
                profile=args.profile,
            )
            result = cmd_synth(spec, args.out)
        else:
            cfg = load_config(args.config, _overrides_from_args(args))
            command = {
                "preprocess": cmd_preprocess,
                "train": cmd_train,
                "eval": cmd_eval,
                "fuse": cmd_fuse,
                "weights-search": cmd_weights_search,
            }[args.command]
            result = command(cfg)
        print(json.dumps(result, sort_keys=True))
        return 0
    except Exception as exc:  # all command failures surface as JSON on stderr
        payload = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
