"""Benchmark helpers that need numpy or posestream, run as child processes.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/tools.py env
    python3 perfbench/tools.py score-inputs ANNOTATIONS CHECKPOINT SPATIAL_CSV TEMPORAL_CSV SEED
    python3 perfbench/tools.py check-scores ANNOTATIONS SCORES_CSV...
    python3 perfbench/tools.py microbench SEED

Each subcommand prints one JSON object on stdout.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time

import numpy as np

from posestream import convnet, fusion
from posestream.config import PipelineConfig
from posestream.skeleton import build_topology, euler_tour

PROFILE = "jhmdb_gt"
CLASSES = 4
MICRO_BATCH = 64
MICRO_REPEATS = 11
ARCHS = ((8, 16, 64), (32, 64, 256))


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _videos_and_labels(annotations: str) -> dict[str, int]:
    labels = {}
    with open(annotations, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "_meta" not in record:
                labels[record["video"]] = int(record["label"])
    return labels


def _input_shape() -> tuple[int, int, int]:
    tour = euler_tour(build_topology(PROFILE))
    return PipelineConfig().k, 2 * len(tour), 3


def score_inputs(annotations: str, checkpoint: str, spatial: str, temporal: str, seed: str) -> dict:
    """An untrained default-architecture checkpoint and two external score files.

    Each external stream is right on most videos and wrong on a fixed share,
    with the true class second when wrong. The two streams are wrong on
    disjoint videos except for a small shared share, so fusing them beats
    either stream, and by a margin that does not depend on the seed.
    """
    labels = _videos_and_labels(annotations)
    rng = np.random.default_rng(int(seed))
    net = convnet.init_net(_input_shape(), CLASSES, seed=int(seed))
    convnet.save_checkpoint(net, checkpoint, meta={"seed": int(seed)})

    videos = sorted(labels)
    order = rng.permutation(len(videos))
    share = len(videos) // 20
    wrong = {
        spatial: set(order[: 5 * share]) | set(order[10 * share: 11 * share]),
        temporal: set(order[5 * share: 11 * share]),
    }
    for path, wrong_rows in wrong.items():
        lines = ["video," + ",".join(f"class_{c}" for c in range(CLASSES))]
        for row, video in enumerate(videos):
            true = labels[video]
            scores = rng.uniform(0.0, 0.2, CLASSES)
            if row in wrong_rows:
                scores[(true + rng.integers(1, CLASSES)) % CLASSES] += 0.4
                scores[true] += 0.2
            else:
                scores[true] += 0.6
            scores /= scores.sum()
            lines.append(video + "," + ",".join(f"{v:.9f}" for v in scores))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return {"videos": len(videos)}


def check_scores(annotations: str, *paths: str) -> dict:
    """Read each score file back through fusion.read_scores; list missing videos."""
    expected = set(_videos_and_labels(annotations))
    missing = {}
    for path in paths:
        try:
            got = set(fusion.read_scores(path).scores)
        except (OSError, ValueError) as exc:
            missing[path] = [str(exc)]
            continue
        missing[path] = sorted(expected - got)[:5] + sorted(got - expected)[:5]
    return {"ok": not any(missing.values()), "mismatched": missing}


def microbench(seed: str) -> dict:
    """Public forward and backward on a fixed batch at both benchmark architectures."""
    rng = np.random.default_rng(int(seed))
    shape = _input_shape()
    batch = rng.normal(size=(MICRO_BATCH, *shape))
    labels = rng.integers(0, CLASSES, MICRO_BATCH)
    result = {}
    for c1, c2, hidden in ARCHS:
        arch = convnet.NetSpec(conv1_channels=c1, conv2_channels=c2, hidden=hidden)
        net = convnet.init_net(shape, CLASSES, seed=int(seed), arch=arch)
        for name, call in (
            ("forward", lambda: convnet.forward(net, batch)),
            ("backward", lambda: convnet.backward(net, batch, labels)),
        ):
            call()
            times = []
            for _ in range(MICRO_REPEATS):
                start = time.perf_counter()
                call()
                times.append((time.perf_counter() - start) * 1000.0)
            result[f"{name}_ms.arch{c1}_{c2}_{hidden}"] = times
    return result


def main(argv: list[str]) -> int:
    commands = {
        "env": env,
        "score-inputs": score_inputs,
        "check-scores": check_scores,
        "microbench": microbench,
    }
    print(json.dumps(commands[argv[0]](*argv[1:])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
