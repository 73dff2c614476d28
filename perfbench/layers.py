"""Per-layer metrics from the spans of one traced run of a workload's commands.

A span's self time is its duration minus the durations of its direct child
spans. Self times are summed into one bucket per step (``SELF_TIME``); the
public functions of a layer that have no step of their own go to
``<layer>.other_s``. Together with ``cli.outside_cmd_s`` (imports, argument
parsing and result printing in each traced child) the buckets should cover
the traced wall time; ``trace.accounted_share`` says how much of it they do.
"""

from __future__ import annotations

import json
import math
import statistics

SELF_TIME = {
    "preprocess.parse_annotation_line": "preprocess.parse_s",
    "preprocess.iter_annotation_lines": "preprocess.parse_s",
    "preprocess.pose_from_record": "preprocess.parse_s",
    "preprocess.temporal_interpolate": "preprocess.temporal_s",
    "preprocess.normalize": "preprocess.normalize_s",
    "preprocess.fit_spatial_model": "preprocess.spatial_fit_s",
    "preprocess.spatial_interpolate": "preprocess.spatial_fill_s",
    "preprocess.write_annotations": "preprocess.sidecar_write_s",
    "preprocess.read_annotations": "preprocess.sidecar_read_s",
    "tensorize.plan_snippets": "tensorize.plan_s",
    "tensorize.build_pose_tensor": "tensorize.build_s",
    "tensorize.write_tensor_cache": "tensorize.cache_write_s",
    "tensorize.read_tensor_cache": "tensorize.cache_read_s",
    "tensorize.stack_tensors": "tensorize.stack_s",
    "convnet.train": "convnet.train_self_s",
    "convnet.forward": "convnet.forward_s",
    "convnet.save_checkpoint": "convnet.checkpoint_save_s",
    "convnet.load_checkpoint": "convnet.checkpoint_load_s",
    "fusion.read_scores": "fusion.read_scores_s",
    "fusion.fuse": "fusion.fuse_s",
    "fusion.evaluate": "fusion.evaluate_s",
    "fusion.search_weights": "fusion.search_weights_s",
    "fusion.write_scores": "fusion.write_scores_s",
    "cli.cmd_preprocess": "cli.preprocess.self_s",
    "cli.cmd_train": "cli.train.self_s",
    "cli.cmd_eval": "cli.eval.self_s",
    "cli.cmd_fuse": "cli.fuse.self_s",
    "cli.cmd_weights_search": "cli.weights-search.self_s",
}
OTHER = ("preprocess.other_s", "tensorize.other_s", "convnet.other_s", "fusion.other_s")
CALLS = {
    "tensorize.plan_snippets": "tensorize.plan.calls",
    "tensorize.build_pose_tensor": "tensorize.build.calls",
    "fusion.fuse": "fusion.fuse.calls",
    "fusion.evaluate": "fusion.evaluate.calls",
}
PER_CALL_US = {
    "preprocess.parse_annotation_line": "preprocess.parse",
    "tensorize.build_pose_tensor": "tensorize.build",
}
SIDECAR = ("preprocess.read_annotations", "preprocess.write_annotations")
CACHE = ("tensorize.read_tensor_cache", "tensorize.write_tensor_cache")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def per_layer(untraced: list, traced: list, micro: dict) -> dict[str, tuple[float, str]]:
    """Metrics as name -> (value, unit) from the untraced and traced ops of one sequence."""
    buckets = {name: 0.0 for name in [*SELF_TIME.values(), *OTHER]}
    calls = dict.fromkeys(CALLS.values(), 0)
    per_call: dict[str, list[float]] = {name: [] for name in PER_CALL_US}
    sidecar_bytes = cache_bytes = steps = span_count = 0
    outside_cmd = 0.0

    for op in traced:
        if op.spans is None:
            continue
        try:
            with open(op.spans, encoding="utf-8") as handle:
                trace = json.load(handle)
        except FileNotFoundError:
            continue
        spans = trace["spans"]
        span_count += len(spans)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        top_level = 0.0
        for index, (name, start, end, parent, extra) in enumerate(spans):
            duration = end - start
            if parent is None:
                top_level += duration
            layer = name.split(".", 1)[0]
            buckets[SELF_TIME.get(name, f"{layer}.other_s")] += duration - child_time[index]
            if name in CALLS:
                calls[CALLS[name]] += 1
            if name in PER_CALL_US:
                per_call[name].append(duration * 1e6)
            if name in SIDECAR:
                sidecar_bytes += extra["bytes"]
            elif name in CACHE:
                cache_bytes += extra["bytes"]
            if name == "convnet.train":
                steps += extra["steps"]
        outside_cmd += trace["end"] - trace["script_start"] - top_level

    metrics: dict[str, tuple[float, str]] = {k: (v, "s") for k, v in buckets.items()}
    metrics["cli.outside_cmd_s"] = (outside_cmd, "s")
    metrics.update({k: (float(v), "count") for k, v in calls.items()})
    for name, prefix in PER_CALL_US.items():
        metrics[f"{prefix}.p50_us"] = (percentile(per_call[name], 50), "us")
        metrics[f"{prefix}.p99_us"] = (percentile(per_call[name], 99), "us")

    reports = [op.result for op in traced if op.ok]
    preprocessed = [r for r in reports if "fills" in r]
    fills = {
        kind: sum(r["fills"][kind] for r in preprocessed)
        for kind in ("temporal", "spatial", "synthetic")
    }
    filled = sum(fills.values())
    metrics["preprocess.records"] = (
        float(sum(r["videos"] + len(r["rejected"]) for r in preprocessed)), "count")
    for kind, count in fills.items():
        metrics[f"preprocess.fills.{kind}"] = (float(count), "count")
    metrics["preprocess.recovered_ratio"] = (
        (fills["temporal"] + fills["spatial"]) / filled if filled else 0.0, "share")
    metrics["preprocess.sidecar_bytes"] = (float(sidecar_bytes), "bytes")
    metrics["tensorize.cache_bytes"] = (float(cache_bytes), "bytes")
    metrics["convnet.steps"] = (float(steps), "count")
    metrics["fusion.candidates"] = (
        float(sum(len(r.get("candidates", ())) for r in reports)), "count")

    for name, times in sorted(micro.items()):
        kind, arch = name.split(".", 1)
        metrics[f"convnet.{kind}.{arch}.p50"] = (statistics.median(times), "ms")
        metrics[f"convnet.{kind}.{arch}.p90"] = (percentile(times, 90), "ms")

    traced_wall = sum(op.wall_s for op in traced)
    untraced_wall = sum(op.wall_s for op in untraced)
    accounted = sum(buckets.values()) + outside_cmd
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.accounted_share"] = (accounted / traced_wall if traced_wall else 0.0, "share")
    metrics["trace.spans"] = (float(span_count), "count")
    return metrics
