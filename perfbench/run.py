"""posestream benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest-dropout --seed 1 --seconds 20 --trace 0

Each workload builds its inputs from the seed (set-up), then runs a fixed
sequence of ``python -m posestream.cli`` commands, one child process at a
time (a closed loop with one client). Wall time comes from this process's
clock; CPU time and peak RSS come from each child's rusage. BLAS is pinned to
one thread in the children's environment. With ``--trace 1`` the sequence is
run once untraced and once through ``perfbench/tracer.py``, and per-layer
metrics are reported instead. See ``perfbench/README.md`` for every metric.

A shared host runs the same command up to twice as slowly for minutes at a
time. So every timed unit (a set-up, or one command) is bracketed by runs of
``perfbench/refjob.py``, a fixed job that uses none of the program's code, and
the time metrics are medians of unit time over the mean of its two reference
times, scaled by ``REFERENCE_S``: seconds on a machine where the reference job
takes ``REFERENCE_S``. The raw seconds are in the report line.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the environment, the input sizes and the workload's named metrics. A
set-up that fails ends the run with exit code 2 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import per_layer

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
COMMAND_TIMEOUT_S = 150.0
SETUP_REPEATS = 2
# No repetition starts once a run has taken this long, so it ends within 180 s.
RUN_LIMIT_S = 120.0
# Scale of the speed-adjusted times: the reference job's time on the machine the
# benchmark was tuned on (2-core x86-64 VM), so that they read as seconds there.
REFERENCE_S = 0.4

FRAMES = 40
NOISE_SIGMA = 1.5
PROFILE = "jhmdb_gt"
JOINTS = 15
CLASSES = 4
TEST_ACCURACY_FLOOR = 0.90
TRAIN_FLAGS = (
    "--epochs", "12", "--learning-rate", "0.05", "--batch-size", "64",
    "--conv1-channels", "8", "--conv2-channels", "16", "--hidden", "64",
)
FUSION_GRID = ",".join(f"{0.25 * i:g}" for i in range(9))


class BenchmarkError(RuntimeError):
    """A set-up step or a benchmark helper failed, so there is nothing to report."""


def derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 2**31


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", TMPDIR=str(WORK),
    )
    return env


@dataclass
class Op:
    """One child process: its command, timings, exit code and parsed result line."""

    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    result: dict | None
    error: str = ""
    spans: str | None = None
    # Mean wall time of the reference jobs run just before and just after.
    ref_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.result is not None and not self.error


class Runner:
    """Starts one child at a time and waits for it, with a timeout."""

    def __init__(self, logs: Path) -> None:
        self.env = child_env()
        self.logs = logs
        self.count = 0
        # Wall time of the reference job, while nothing else has run since it.
        self.last_ref: float | None = None
        self.refs: list[float] = []

    def reference(self) -> float:
        """Wall time of the reference job run now, or just before with nothing after it."""
        if self.last_ref is None:
            op = self.run("reference", [sys.executable, str(BENCH / "refjob.py")])
            if not op.ok:
                raise BenchmarkError(f"perfbench/refjob.py: {op.error}")
            self.last_ref = op.wall_s
            self.refs.append(op.wall_s)
        return self.last_ref

    def run(self, name: str, argv: list[str]) -> Op:
        self.last_ref = None
        self.count += 1
        stem = self.logs / f"{self.count:03d}-{name}"
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        lines = Path(f"{stem}.out").read_text("utf-8", "replace").strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        error = ""
        if proc.returncode != 0:
            tail = Path(f"{stem}.err").read_text("utf-8", "replace").strip()[-300:]
            error = f"exit code {proc.returncode}: {tail}"
        elif not isinstance(result, dict):
            error, result = "no JSON result line on stdout", None
        return Op(
            name=name,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            result=result,
            error=error,
        )

    def cli(self, name: str, *args: str, spans: Path | None = None) -> Op:
        if spans is None:
            argv = [sys.executable, "-m", "posestream.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *args]
        op = self.run(name, argv)
        op.spans = str(spans) if spans else None
        return op

    def tool(self, *args: str) -> dict:
        op = self.run(f"tool-{args[0]}", [sys.executable, str(BENCH / "tools.py"), *args])
        if not op.ok:
            raise BenchmarkError(f"perfbench/tools.py {args[0]}: {op.error}")
        return op.result


def require(op: Op) -> Op:
    if not op.ok:
        raise BenchmarkError(f"set-up step {op.name} failed: {op.error}")
    return op


def synth(runner: Runner, out: Path, videos: int, dropout: float, seed: int) -> None:
    require(runner.cli(
        "synth", "synth", "--out", str(out), "--videos-per-class", str(videos // CLASSES),
        "--frames", str(FRAMES), "--noise-sigma", str(NOISE_SIGMA), "--dropout", str(dropout),
        "--seed", str(seed), "--profile", PROFILE,
    ))


def preprocess_args(d: Path, corpus: str, seed: int) -> tuple[str, ...]:
    return (
        "preprocess", "--annotations", str(d / f"{corpus}.jsonl"),
        "--cache", str(d / f"{corpus}.cache"), "--profile", PROFILE, "--seed", str(seed),
    )


@dataclass
class Iteration:
    """The timed command sequence once. An op with an error has failed."""

    ops: list[Op] = field(default_factory=list)

    @property
    def failed(self) -> list[Op]:
        return [op for op in self.ops if op.error]

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def rss_mb(self) -> float:
        return max(op.rss_mb for op in self.ops)


def by_step(its: list[Iteration]) -> list[list[Op]]:
    """The repetitions of each command of the sequence, in sequence order."""
    steps = max(len(it.ops) for it in its)
    return [[it.ops[i] for it in its if i < len(it.ops)] for i in range(steps)]


def adjusted(values: list[float], refs: list[float]) -> float:
    """Median of value / reference time, in seconds at the reference speed."""
    return REFERENCE_S * statistics.median(v / r for v, r in zip(values, refs))


class Workload:
    """Inputs, timed sequence, output checks and named metrics of one workload."""

    name = ""
    # The named metric reported as quality_share.
    quality = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pipeline_seed = derive_seed(seed, "pipeline")

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self, runner: Runner, d: Path) -> None:
        raise NotImplementedError

    def sequence(self, runner: Runner, d: Path, it: Iteration, traced: bool) -> None:
        raise NotImplementedError

    def check(self, runner: Runner, d: Path, it: Iteration) -> None:
        """Checks on the outputs of the sequence; a failed check marks its op failed."""

    def named(self, it: Iteration) -> dict[str, float]:
        """The workload's own metrics under the names the README uses."""
        raise NotImplementedError

    def step(self, runner: Runner, it: Iteration, d: Path, traced: bool, *args: str) -> Op:
        """Run one command of the timed sequence, traced or not, and record it.

        An untraced command is bracketed by reference jobs.
        """
        if traced:
            op = runner.cli(args[0], *args, spans=d / f"spans-{len(it.ops)}.json")
        else:
            before = runner.reference()
            op = runner.cli(args[0], *args)
            op.ref_s = (before + runner.reference()) / 2
        it.ops.append(op)
        return op


class IngestDropout(Workload):
    name = "ingest-dropout"
    quality = "recovered_ratio"
    train_videos, test_videos = 400, 160

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Missing joints per corpus, counted once: every set-up makes the same inputs.
        self.missing: dict[str, int] = {}

    def sizes(self) -> dict:
        return {"videos": self.train_videos + self.test_videos, "frames": FRAMES,
                "joints": JOINTS, "dropout": 0.2}

    def setup(self, runner: Runner, d: Path) -> None:
        synth(runner, d / "train.jsonl", self.train_videos, 0.2, derive_seed(self.seed, "train"))
        synth(runner, d / "test.jsonl", self.test_videos, 0.2, derive_seed(self.seed, "test"))

    def sequence(self, runner: Runner, d: Path, it: Iteration, traced: bool) -> None:
        for corpus in ("train", "test"):
            self.step(runner, it, d, traced, *preprocess_args(d, corpus, self.pipeline_seed))

    def check(self, runner: Runner, d: Path, it: Iteration) -> None:
        """Every joint is observed or filled, and the fills cover the missing joints.

        Normalization demotes every joint of a frame it cannot use to missing,
        so the fills equal the input's missing joints plus the joints those
        frames still had: at least the former, at most the former plus a full
        skeleton per unusable frame.
        """
        for corpus, op in zip(("train", "test"), it.ops):
            if corpus not in self.missing:
                self.missing[corpus] = count_missing(d / f"{corpus}.jsonl")
            if not op.ok:
                continue
            r, missing = op.result, self.missing[corpus]
            fills = r["fills"]
            filled = fills["temporal"] + fills["spatial"] + fills["synthetic"]
            joints = r["frames"] * JOINTS
            if fills["observed"] + filled != joints:
                op.error = f"{fills['observed']} observed + {filled} filled != {joints} joints"
            elif not missing <= filled <= missing + JOINTS * r["unusable_frames"]:
                op.error = (f"{filled} fills for {missing} missing joints and "
                            f"{r['unusable_frames']} unusable frames")

    def named(self, it: Iteration) -> dict[str, float]:
        reports = [op.result for op in it.ops if op.ok]
        frames = sum(r["frames"] for r in reports)
        fills = [r["fills"] for r in reports]
        recovered = sum(f["temporal"] + f["spatial"] for f in fills)
        filled = recovered + sum(f["synthetic"] for f in fills)
        return {
            "preprocess_frames_per_s": frames / it.wall_s,
            "recovered_ratio": recovered / filled if filled else 0.0,
        }


class TrainClean(Workload):
    name = "train-clean"
    quality = "test_accuracy"
    train_videos, test_videos = 600, 160

    def sizes(self) -> dict:
        return {"videos": self.train_videos + self.test_videos, "frames": FRAMES,
                "joints": JOINTS, "epochs": 12}

    def setup(self, runner: Runner, d: Path) -> None:
        synth(runner, d / "train.jsonl", self.train_videos, 0.0, derive_seed(self.seed, "train"))
        synth(runner, d / "test.jsonl", self.test_videos, 0.0, derive_seed(self.seed, "test"))
        for corpus in ("train", "test"):
            require(runner.cli("preprocess", *preprocess_args(d, corpus, self.pipeline_seed)))

    def sequence(self, runner: Runner, d: Path, it: Iteration, traced: bool) -> None:
        seed = str(self.pipeline_seed)
        train = self.step(runner, it, d, traced, "train", "--cache", str(d / "train.cache"),
                          "--checkpoint", str(d / "net.ckpt"), "--profile", PROFILE,
                          "--seed", seed, *TRAIN_FLAGS)
        if not train.ok:
            return
        self.step(runner, it, d, traced, "eval", "--cache", str(d / "test.cache"),
                  "--checkpoint", str(d / "net.ckpt"), "--scores", str(d / "pose.csv"),
                  "--labels", str(d / "labels.csv"), "--seed", seed)

    def check(self, runner: Runner, d: Path, it: Iteration) -> None:
        """Criterion 7's bound on test accuracy."""
        for op in it.ops:
            if op.name == "eval" and op.ok and not op.result["accuracy"] >= TEST_ACCURACY_FLOOR:
                op.error = f"test accuracy {op.result['accuracy']} < {TEST_ACCURACY_FLOOR}"

    def named(self, it: Iteration) -> dict[str, float]:
        train = next((op for op in it.ops if op.name == "train"), None)
        ev = next((op for op in it.ops if op.name == "eval"), None)
        return {
            "train_examples_per_s": self.train_videos * 12 / train.wall_s if train else 0.0,
            "eval_videos_per_s": self.test_videos / ev.wall_s if ev else 0.0,
            "test_accuracy": ev.result["accuracy"] if ev and ev.result else 0.0,
        }


class ScoreFuse(Workload):
    name = "score-fuse"
    quality = "fused_accuracy"
    videos = 640

    def sizes(self) -> dict:
        return {"videos": self.videos, "frames": FRAMES, "joints": JOINTS,
                "fusion_candidates": 9**3 - 1}

    def setup(self, runner: Runner, d: Path) -> None:
        synth(runner, d / "test.jsonl", self.videos, 0.0, derive_seed(self.seed, "test"))
        require(runner.cli("preprocess", *preprocess_args(d, "test", self.pipeline_seed)))
        runner.tool("score-inputs", str(d / "test.jsonl"), str(d / "net.ckpt"),
                    str(d / "spatial.csv"), str(d / "temporal.csv"),
                    str(derive_seed(self.seed, "scores")))

    def sequence(self, runner: Runner, d: Path, it: Iteration, traced: bool) -> None:
        seed = str(self.pipeline_seed)
        ev = self.step(runner, it, d, traced, "eval", "--cache", str(d / "test.cache"),
                       "--checkpoint", str(d / "net.ckpt"), "--scores", str(d / "pose.csv"),
                       "--labels", str(d / "labels.csv"), "--seed", seed)
        if not ev.ok:
            return
        streams = ("--pose-scores", str(d / "pose.csv"), "--spatial-scores",
                   str(d / "spatial.csv"), "--temporal-scores", str(d / "temporal.csv"),
                   "--labels", str(d / "labels.csv"), "--seed", seed)
        search = self.step(runner, it, d, traced, "weights-search", *streams,
                           "--grid", FUSION_GRID)
        if not search.ok:
            return
        weights = ",".join(f"{w:g}" for w in search.result["best_weights"])
        self.step(runner, it, d, traced, "fuse", *streams, "--weights", weights,
                  "--fused-scores", str(d / "fused.csv"))

    def check(self, runner: Runner, d: Path, it: Iteration) -> None:
        """The search tried every candidate of the grid, and the pose and fused score
        CSVs read back through fusion.read_scores with every video present."""
        files = {"eval": "pose.csv", "fuse": "fused.csv"}
        for op in it.ops:
            if op.ok and op.name == "weights-search" and len(op.result["candidates"]) != 9**3 - 1:
                op.error = f"{len(op.result['candidates'])} candidates, expected {9**3 - 1}"
        written = [op for op in it.ops if op.ok and op.name in files]
        if not written:
            return
        paths = [str(d / files[op.name]) for op in written]
        check = runner.tool("check-scores", str(d / "test.jsonl"), *paths)
        for op, path in zip(written, paths):
            if check["mismatched"][path]:
                op.error = f"{path} does not cover the corpus: {check['mismatched'][path]}"

    def named(self, it: Iteration) -> dict[str, float]:
        ev = next((op for op in it.ops if op.name == "eval"), None)
        fuse = next((op for op in it.ops if op.name == "fuse" and op.result), None)
        fusion_ops = [op for op in it.ops if op.name in ("weights-search", "fuse")]
        return {
            "eval_videos_per_s": self.videos / ev.wall_s if ev else 0.0,
            "fusion_s": sum(op.wall_s for op in fusion_ops),
            "fused_accuracy": fuse.result["fused_accuracy"] if fuse else 0.0,
        }


WORKLOADS = {w.name: w for w in (IngestDropout, TrainClean, ScoreFuse)}
NAMED_UNITS = {
    "preprocess_frames_per_s": "1/s",
    "recovered_ratio": "share",
    "train_examples_per_s": "1/s",
    "eval_videos_per_s": "1/s",
    "test_accuracy": "share",
    "fusion_s": "s",
    "fused_accuracy": "share",
}


def count_missing(annotations: Path) -> int:
    """Joints with visibility 0 in an annotation file, counted independently of the program."""
    missing = 0
    with open(annotations, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "_meta" not in record:
                missing += sum(1 for frame in record["frames"] for joint in frame if joint[2] == 0)
    return missing


def run_iteration(workload: Workload, runner: Runner, d: Path, traced: bool) -> Iteration:
    it = Iteration()
    workload.sequence(runner, d, it, traced)
    workload.check(runner, d, it)
    return it


def end_to_end(workload: Workload, setups: list[tuple[float, float]],
               its: list[Iteration], refs: list[float]) -> tuple[dict, dict]:
    """Gated metrics as name -> (value, unit), and the report line.

    Set-up and command times are speed-adjusted medians; a sequence's time is
    the sum over its commands. Peak RSS is the highest of any command. The
    named metrics come from each command's median repetition.
    """
    steps = by_step(its)
    typical = Iteration([sorted(ops, key=lambda op: op.wall_s)[(len(ops) - 1) // 2]
                         for ops in steps])
    named = workload.named(typical)
    ops = sum(len(it.ops) for it in its)
    failed = sum(len(it.failed) for it in its)
    metrics = {
        "setup_s": (adjusted(*zip(*setups)), "s"),
        "wall_s": (sum(adjusted([op.wall_s for op in s], [op.ref_s for op in s])
                       for s in steps), "s"),
        "cpu_s": (sum(adjusted([op.cpu_s for op in s], [op.ref_s for op in s])
                      for s in steps), "s"),
        "peak_rss_mb": (max(it.rss_mb for it in its), "MB"),
        "ok_share": ((ops - failed) / ops, "share"),
        "quality_share": (named[workload.quality], "share"),
    }
    report = {key: {"value": value, "unit": NAMED_UNITS[key]} for key, value in named.items()}
    report["failed_share"] = {"value": failed / ops, "unit": "share"}
    return metrics, {
        "named": report,
        "setup_runs_s": [t for t, _ in setups],
        "wall_runs_s": [it.wall_s for it in its],
        "reference_runs_s": refs,
        "median_wall_s": typical.wall_s,
    }


def run_workload(workload: Workload, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORK / workload.name, ignore_errors=True)
    base = WORK / workload.name
    logs = base / "logs"
    logs.mkdir(parents=True)
    runner = Runner(logs)
    environment = runner.tool("env")
    environment.update(nproc=len(os.sched_getaffinity(0)), seed=workload.seed,
                       sizes=workload.sizes())

    # The inputs are built twice (timed as set-up). The
    # timed sequence runs after each set-up and then again while the timed runs
    # add up to less than the time given, so the measured time stays near
    # --seconds however fast the machine is.
    began = time.perf_counter()
    d = base / "inputs"
    setups: list[tuple[float, float]] = []
    its: list[Iteration] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        before = 0.0 if trace else runner.reference()
        start = time.perf_counter()
        workload.setup(runner, d)
        elapsed = time.perf_counter() - start
        if not trace:
            setups.append((elapsed, (before + runner.reference()) / 2))
            its.append(run_iteration(workload, runner, d, traced=False))

    if trace:
        untraced = run_iteration(workload, runner, d, traced=False)
        traced = run_iteration(workload, runner, d, traced=True)
        its = [untraced, traced]
        micro = runner.tool("microbench", str(derive_seed(workload.seed, "micro")))
        metrics = per_layer(untraced.ops, traced.ops, micro)
        report = {"trace": True}
    else:
        while (sum(it.wall_s for it in its) < seconds
               and time.perf_counter() - began + its[-1].wall_s < RUN_LIMIT_S):
            its.append(run_iteration(workload, runner, d, traced=False))
        metrics, report = end_to_end(workload, setups, its, runner.refs)

    attempted = sum(len(it.ops) for it in its)
    failed = sum(len(it.failed) for it in its)
    failures = [f"{op.name}: {op.error}" for it in its for op in it.failed]
    print(json.dumps({"workload": workload.name, "environment": environment,
                      "report": report, "failures": failures[:10]}, sort_keys=True))
    shutil.rmtree(base, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that Runner.run stops its child on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "posestream" / "cli.py").is_file():
        print("perfbench: no src/posestream under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        result = run_workload(workload, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        shutil.rmtree(WORK / workload.name, ignore_errors=True)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
