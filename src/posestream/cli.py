"""Command-line surface: synth, preprocess, train, eval, fuse, weights-search.

Commands compose through the files they exchange: ``preprocess`` turns an
annotation file into one filled-corpus file (the ``--cache`` path),
``train`` turns the corpus into a checkpoint and a metrics trace, ``eval``
turns checkpoint + corpus into a score CSV and an accuracy report, and
``fuse`` combines score CSVs from this and external streams. ``train`` and
``eval`` build pose tensors from the corpus on demand, in the shape
``FilledCorpus.tensor_shape`` gives: ``train`` hands ``convnet.train`` a
draw that builds each epoch's tensors from fresh snippets, in that epoch's
order, and ``eval`` holds the corpus file open and reads, builds and
scores one slice of videos at a time. The corpus file holds coordinates
only; ``preprocess``'s report keeps their fill provenance. Every command
is deterministic given its config and seed, every output but the
``--save-spatial-model`` file embeds the config hash and seed (that
file's header holds only ``topology_name`` and ``joint_names``), every
output path is checked before any work (none may be a file the command
reads; each ``cmd_*`` but ``cmd_synth`` takes the config file's path for
that), and every output is written to a unique temp file, all of them
renamed into place only once all are written (``_Outputs``). Errors leave a machine-readable
JSON line on stderr and a nonzero exit code.

Each command imports the layers it runs at its top, and calls them as
module attributes; ``fuse`` and ``weights-search`` load only ``fusion``,
and ``train`` and ``eval`` do not load ``preprocess`` (``eval`` loads no
``numpy.random`` either: its snippet draw is a counter-based hash).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .config import PipelineConfig, load_config, settings_hash

if TYPE_CHECKING:
    from . import fusion, synth
    from .skeleton import SkeletonTopology


class CliError(ValueError):
    """User-facing command error."""


class _Outputs:
    """A command's output files, declared once, one keyword per flag; a None
    or empty path is an output not asked for; ``inputs`` gives the path of
    each file the command reads, by config key. Building it refuses, before
    any work and creating nothing, a path whose nearest existing ancestor is
    not a directory, a path that is a directory, and an output on the file
    of another output or of an input."""

    def __init__(self, inputs: dict[str, str | Path | None] | None = None, /,
                 **paths: str | Path | None) -> None:
        self.paths = {name: path for name, path in paths.items() if path}
        self.ancestors: dict[str, Path] = {}
        seen = {os.path.realpath(path): _flag(name)
                for name, path in (inputs or {}).items() if path}
        for name, path in self.paths.items():
            flag = _flag(name)
            ancestor = next((p for p in Path(path).parents if p.exists()), Path("."))
            if not ancestor.is_dir():
                raise CliError(f"{flag}: cannot write {path}: {ancestor} is not a directory")
            if Path(path).is_dir():
                raise CliError(f"{flag}: cannot write {path}: it is a directory")
            real = os.path.realpath(path)
            if real in seen:
                raise CliError(f"{flag}: {path} is also the {seen[real]} path")
            seen[real], self.ancestors[name] = flag, ancestor

    def commit(self, **writers: Callable[[Path], None] | dict) -> None:
        """Write each output asked for (a dict as a JSON report) to a unique
        temp file in its nearest existing ancestor; then, output by output,
        make its directories and rename it into place. A failure before the
        first rename leaves nothing; an OSError names the flag and the path."""
        temps: dict[str, Path] = {}
        try:
            for name, path in self.paths.items():
                tmp = self.ancestors[name] / f"{Path(path).name}.{os.urandom(8).hex()}.tmp"
                # O_EXCL leaves any existing file untouched; 0o666 lets the umask apply.
                os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                temps[name], writer = tmp, writers[name]
                if isinstance(writer, dict):
                    tmp.write_text(json.dumps(writer, sort_keys=True) + "\n", "utf-8")
                else:
                    writer(tmp)
            for name, path in self.paths.items():
                Path(path).parent.mkdir(parents=True, exist_ok=True)
                os.replace(temps[name], path)
        except OSError as exc:
            raise CliError(f"{_flag(name)}: cannot write {self.paths[name]}: "
                           f"{exc.strerror or exc}") from None
        finally:
            for tmp in temps.values():
                tmp.unlink(missing_ok=True)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(spec: synth.SyntheticSpec, out: str | Path) -> dict:
    from . import preprocess, synth

    outputs = _Outputs(out=out)
    spec_dict = asdict(spec)
    meta = {"seed": spec.seed, "config_hash": settings_hash(spec_dict), "spec": spec_dict}
    corpus = synth.generate(spec)
    outputs.commit(out=lambda p: preprocess.write_annotations(p, corpus, meta=meta))
    return {"videos": len(corpus.videos), "classes": len(spec.classes), "out": str(out)}


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def _fill_counts(
    flags: np.ndarray, topology: SkeletonTopology
) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """Provenance counts over the corpus flags: in total, and per joint name."""
    from . import preprocess

    kinds = {
        "observed": preprocess.VIS_OBSERVED,
        "temporal": preprocess.VIS_TEMPORAL,
        "spatial": preprocess.VIS_SPATIAL,
        "synthetic": preprocess.VIS_SYNTHETIC,
    }
    per_joint = {kind: (flags == code).sum(axis=0) for kind, code in kinds.items()}
    totals = {kind: int(counts.sum()) for kind, counts in per_joint.items()}
    by_name = {
        name: {kind: int(counts[j]) for kind, counts in per_joint.items()}
        for j, name in enumerate(topology.joint_names)
    }
    return totals, by_name


def cmd_preprocess(cfg: PipelineConfig, config: str | None = None) -> dict:
    """Annotations -> one filled-corpus file + report."""
    from . import preprocess, tensorize
    from .skeleton import build_topology, euler_tour

    cfg.require("annotations", "cache")
    outputs = _Outputs(
        {"annotations": cfg.annotations, "spatial_model": cfg.spatial_model,
         "topology_file": cfg.topology_file, "config": config},
        cache=cfg.cache, report=cfg.report, save_spatial_model=cfg.save_spatial_model)
    if not cfg.interpolate:
        for key in ("spatial_model", "save_spatial_model"):
            if getattr(cfg, key):
                raise CliError(f"{_flag(key)} needs spatial interpolation, "
                               "which --no-interpolate (interpolate: false) turns off")
    topology = build_topology(cfg.profile, cfg.topology_file)
    run_meta = {"config_hash": cfg.hash(), "seed": cfg.seed}
    model = None
    if cfg.spatial_model:
        model = preprocess.SpatialModel.load(cfg.spatial_model)
        try:
            model.check(topology)
        except ValueError as exc:
            raise CliError(f"{cfg.spatial_model}: {exc}") from None

    records: list[preprocess.Record] = []
    rejected: list[dict] = []
    first_line: dict[str, int] = {}
    for lineno, line in preprocess.iter_annotation_lines(cfg.annotations):
        try:
            record = preprocess.parse_annotation_line(line, n_expected=topology.n)
        except preprocess.AnnotationError as exc:
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
    filled = corpus.flags > 0
    corpus = preprocess.normalize(corpus, topology)
    # The joints normalization demotes in a frame it keeps lie beyond the radius.
    kept = corpus.flags.any(axis=1)
    unusable_frames = int(np.count_nonzero(~kept))
    implausible = np.count_nonzero(filled & (corpus.flags == 0) & kept[:, None], axis=0)
    if cfg.interpolate:
        if model is None:
            model = preprocess.fit_spatial_model(corpus, topology)
        corpus = preprocess.spatial_interpolate(corpus, model, topology)
    else:
        corpus = preprocess.zero_fill(corpus)
    # The provenance lives in the report: the filled corpus holds no flags.
    fills, fills_per_joint = _fill_counts(corpus.flags, topology)
    try:  # the one cast of the coordinates to the net's dtype
        corpus = tensorize.FilledCorpus(corpus.videos, corpus.labels, corpus.offsets,
                                        corpus.coords, path=euler_tour(topology),
                                        seed=cfg.seed, config_hash=cfg.hash())
    except ValueError as exc:
        raise CliError(f"{cfg.annotations}: {exc}") from None

    report = {
        **run_meta,
        "videos": len(corpus.videos),
        "rejected": rejected,
        "frames": int(corpus.offsets[-1]),
        "unusable_frames": unusable_frames,
        "implausible_per_joint": dict(zip(topology.joint_names, implausible.tolist())),
        "fills": fills,
        "fills_per_joint": fills_per_joint,
        "annotations": str(cfg.annotations),
        "cache": str(cfg.cache),
    }
    outputs.commit(cache=lambda p: tensorize.write_corpus(p, corpus), report=report,
                   save_spatial_model=lambda p: model.save(p))
    return report


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(cfg: PipelineConfig, config: str | None = None) -> dict:
    """Filled corpus -> checkpoint + per-epoch CSV trace; each epoch draws fresh float32 tensors."""
    from . import convnet, tensorize
    from .skeleton import build_topology, euler_tour

    cfg.require("cache", "checkpoint")
    outputs = _Outputs({"cache": cfg.cache, "topology_file": cfg.topology_file,
                        "config": config}, checkpoint=cfg.checkpoint, trace=cfg.trace)
    corpus = tensorize.read_corpus(cfg.cache)
    tour = euler_tour(build_topology(cfg.profile, cfg.topology_file))
    if tour != corpus.path:
        raise CliError(f"{cfg.cache}: corpus topology '{corpus.path.topology}' does not match "
                       f"profile '{cfg.profile}' ('{tour.topology}')")
    if np.any(corpus.labels < 0):
        raise CliError(f"{cfg.cache}: videos without labels cannot be used for training")
    num_classes = int(corpus.labels.max()) + 1
    if num_classes < 2:
        raise CliError(f"{cfg.cache}: training needs at least two classes")

    def draw(epoch: int, rows: np.ndarray) -> np.ndarray:
        return tensorize.corpus_tensors(corpus, rows, cfg.k, cfg.sampling, cfg.seed, epoch)

    net = convnet.init_net(
        input_shape=corpus.tensor_shape(cfg.k), num_classes=num_classes, seed=cfg.seed,
        arch=cfg.net_spec(),
    ).astype(convnet.NET_DTYPE)
    trained, trace = convnet.train(net, draw, corpus.labels, cfg.train_config())

    meta = {"config_hash": cfg.hash(), "seed": cfg.seed, "num_classes": num_classes}
    lines = [f"# config_hash={cfg.hash()} seed={cfg.seed}", "epoch,loss,accuracy"]
    lines += [f"{s.epoch},{s.loss:.12g},{s.accuracy:.12g}" for s in trace]
    outputs.commit(checkpoint=lambda p: convnet.save_checkpoint(trained, p, meta=meta),
                   trace=lambda p: p.write_text("\n".join(lines) + "\n", "utf-8"))
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

def cmd_eval(cfg: PipelineConfig, config: str | None = None) -> dict:
    """Checkpoint + filled corpus -> per-video score CSV + accuracy report.

    Snippets are drawn once from the corpus seed, K from the checkpoint.
    The corpus file is opened, not read: its header, ids, offsets and
    labels are checked before the checkpoint is read, and the labels
    against the checkpoint's classes right after. The videos are taken
    in id order, in the same slices of at most FORWARD_SLICE rows that
    ``forward`` scores; each slice's frames are read from the file and
    checked, and its float32 tensors built in and scored through one
    workspace that every slice reuses, with no cast. So memory holds the
    corpus's ids, offsets and labels, the checkpoint's float32 net, one
    slice's frames, the workspace (one slice's tensors included) and the
    score rows, and no frame of the other slices. Accuracy, per-class
    accuracy and confusion are null unless every video has a label."""
    from . import convnet, fusion, tensorize

    cfg.require("cache", "checkpoint", "scores")
    outputs = _Outputs({"cache": cfg.cache, "checkpoint": cfg.checkpoint, "config": config},
                       scores=cfg.scores, labels=cfg.labels, report=cfg.report)
    with tensorize.OpenCorpus(cfg.cache) as corpus:
        net = convnet.load_checkpoint(cfg.checkpoint)[0]
        k = net.input_shape[0]
        if net.input_shape != corpus.tensor_shape(k):
            raise CliError(f"checkpoint expects input {net.input_shape}, corpus {cfg.cache} "
                           f"provides {corpus.tensor_shape(k)}")
        over = np.flatnonzero(corpus.labels >= net.num_classes)
        if over.size:
            raise CliError(f"{cfg.cache}: label {corpus.labels[over[0]]} of video "
                           f"'{corpus.videos[over[0]]}' out of range for the {net.num_classes} "
                           f"classes of checkpoint {cfg.checkpoint}")
        labels = {video: int(label) for video, label in zip(corpus.videos, corpus.labels)
                  if label >= 0}
        labeled = len(labels) == len(corpus.videos)
        if cfg.labels and not labeled:
            raise CliError(f"{cfg.cache}: some videos have no label; cannot write {cfg.labels}")

        workspace = convnet.Workspace()

        def score(rows: np.ndarray) -> np.ndarray:
            # In the workspace: a fresh array per slice would be mapped afresh.
            tensors = workspace.take("tensors", (len(rows), *corpus.tensor_shape(k)), net.dtype)
            tensorize.corpus_tensors(corpus.read(rows), np.arange(len(rows)), k, cfg.sampling,
                                     corpus.seed, out=tensors)
            return convnet.forward(net, tensors, workspace)

        order = np.array(sorted(range(len(corpus.videos)), key=corpus.videos.__getitem__))
        slices = convnet.row_slices(order, convnet.FORWARD_SLICE)
        scores = fusion.StreamScores(
            stream="pose", videos=tuple(corpus.videos[i] for i in order),
            matrix=np.concatenate([score(rows) for rows in slices]),
        )
    result = fusion.evaluate(scores, labels) if labeled else None

    run_meta = {"config_hash": cfg.hash(), "seed": cfg.seed}
    per_class = [None if np.isnan(v) else float(v) for v in result.per_class] if result else None
    report = {
        **run_meta,
        "videos": len(order),
        "accuracy": result.accuracy if result else None,
        "per_class_accuracy": per_class,
        "confusion": result.confusion.tolist() if result else None,
        "scores": str(cfg.scores),
    }
    outputs.commit(scores=lambda p: fusion.write_scores(p, scores, meta=run_meta),
                   labels=lambda p: fusion.write_labels(p, labels, meta=run_meta), report=report)
    return report


# ---------------------------------------------------------------------------
# fuse / weights-search
# ---------------------------------------------------------------------------

def _fusion_inputs(cfg: PipelineConfig, config: str | None) -> dict[str, str | None]:
    """The files fuse and weights-search read, by config key."""
    from . import fusion

    keys = [f"{name}_scores" for name in fusion.STREAMS] + ["labels"]
    return {key: getattr(cfg, key) for key in keys} | {"config": config}


def _load_streams(cfg: PipelineConfig) -> dict[str, fusion.StreamScores]:
    """The streams whose score files are given, by name; streams that are
    not aligned fail naming both files."""
    from . import fusion

    paths = {name: getattr(cfg, f"{name}_scores") for name in fusion.STREAMS}
    streams = {name: fusion.read_scores(path, stream=name) for name, path in paths.items() if path}
    if not streams:
        raise CliError(f"fusion needs at least one of {'/'.join(fusion.STREAMS)} score files")
    fusion.check_aligned(streams, {name: f"stream '{name}' ({paths[name]})" for name in streams})
    return streams


def cmd_fuse(cfg: PipelineConfig, config: str | None = None) -> dict:
    """Score CSVs + labels -> fused score CSV + accuracy table per subset.

    Each subset of the given streams is scored with the run's weights set to
    0.0 outside it; a subset whose own weights are all zero reads null."""
    from . import fusion

    cfg.require("labels", "fused_scores")
    outputs = _Outputs(_fusion_inputs(cfg, config), fused_scores=cfg.fused_scores,
                       report=cfg.report)
    streams = _load_streams(cfg)
    labels = fusion.read_labels(cfg.labels, next(iter(streams.values())))
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
    report = {
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "weights": list(cfg.weights),
        "streams": present,
        "accuracy": subsets,
        "fused_accuracy": subsets["+".join(present)],
        "fused_scores": str(cfg.fused_scores),
    }
    outputs.commit(fused_scores=lambda p: fusion.write_scores(p, fused, meta=run_meta),
                   report=report)
    return report


def cmd_weights_search(cfg: PipelineConfig, config: str | None = None) -> dict:
    """Grid search fusion weights against a labeled validation split."""
    from . import fusion

    cfg.require("labels")
    outputs = _Outputs(_fusion_inputs(cfg, config), report=cfg.report)
    streams = _load_streams(cfg)
    labels = fusion.read_labels(cfg.labels, next(iter(streams.values())))

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
    outputs.commit(report=report)
    return report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        print(json.dumps({"error": "UsageError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


# Help text of the config flags that have one.
_HELP = {
    "profile": "skeleton profile (jhmdb_gt, estimated_14, penn, custom)",
    "topology_file": "description file for --profile custom",
    "k": "segments per video",
    "sampling": "snippet sampling mode (random, center)",
    "seed": "master seed",
    "max_gap": "longest temporal gap filled by interpolation",
    "spatial_model": "load a previously fitted spatial model",
    "save_spatial_model": "save the fitted spatial model",
}


def _add_config_args(parser: argparse.ArgumentParser, *names: str) -> None:
    """One flag per PipelineConfig field, whose dest is the field and whose
    type is its default's (str for a path, whose default is None)."""
    for name in names:
        default = getattr(PipelineConfig, name)
        parser.add_argument(_flag(name), dest=name, default=None,
                            type=str if default is None else type(default), help=_HELP.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posestream", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic annotation file")
    p_synth.add_argument("--out", required=True, help="annotation JSONL to write")
    p_synth.add_argument("--classes", default=None,
                         help="comma-separated motion class names (default: every class)")
    # Every flag defaults to None, so SyntheticSpec's defaults are the only ones.
    for flag, kind in (("--videos-per-class", int), ("--frames", int), ("--noise-sigma", float),
                       ("--dropout", float), ("--seed", int), ("--profile", None)):
        p_synth.add_argument(flag, type=kind, default=None)

    for name, needed in {
        "preprocess": ("annotations", "cache", "profile", "topology_file", "seed", "max_gap",
                       "spatial_model", "save_spatial_model", "report"),
        "train": ("cache", "checkpoint", "trace", "profile", "topology_file", "k", "sampling",
                  "seed", "learning_rate", "epochs", "batch_size", "conv1_channels",
                  "conv2_channels", "hidden"),
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
            p.add_argument("--no-interpolate", dest="interpolate", action="store_false",
                           default=None,
                           help="skip interpolation; zero-fill missing joints (baseline)")
        if name == "fuse":
            p.add_argument("--weights", default=None,
                           help="comma-separated w_pose,w_spatial,w_temporal")
        if name == "weights-search":
            p.add_argument("--grid", default=None, help="comma-separated candidate weight values")
    return parser


def _numbers(flag: str, text: str) -> tuple[float, ...]:
    """The comma-separated numbers of a flag's value; an empty value, or an
    item that is not a number, is a CliError naming the flag and the item."""
    numbers = []
    for item in text.split(","):
        try:
            numbers.append(float(item))
        except ValueError:
            raise CliError(f"--{flag}: {item!r} is not a number (in {text!r})") from None
    return tuple(numbers)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The config keys the flags give: each flag's dest is its key, but
    --weights and --grid hold the numbers of weights and weight_grid."""
    overrides = dict(vars(args))
    del overrides["command"], overrides["config"]
    for flag, key in (("weights", "weights"), ("grid", "weight_grid")):
        text = overrides.pop(flag, None)
        if text is not None:
            overrides[key] = _numbers(flag, text)
    return overrides


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            from . import synth

            given = {k: v for k, v in vars(args).items()
                     if v is not None and k not in ("command", "out")}
            if "classes" in given:
                given["classes"] = tuple(given["classes"].split(","))
            result = cmd_synth(synth.SyntheticSpec(**given), args.out)
        else:
            cfg = load_config(args.config, _overrides_from_args(args))
            command = {
                "preprocess": cmd_preprocess,
                "train": cmd_train,
                "eval": cmd_eval,
                "fuse": cmd_fuse,
                "weights-search": cmd_weights_search,
            }[args.command]
            result = command(cfg, args.config)
        print(json.dumps(result, sort_keys=True))
        return 0
    except Exception as exc:  # all command failures surface as JSON on stderr
        payload = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
