"""CLI command tests: composition, validation, determinism, error JSON."""

import argparse
import ast
import errno
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posestream import binio, preprocess
from posestream.cli import (
    _Outputs, _overrides_from_args, build_parser, cmd_eval, cmd_synth, cmd_train, main,
)
from posestream.config import PipelineConfig, load_config
from posestream.convnet import (
    FORWARD_SLICE, NET_DTYPE, NetSpec, TrainConfig, forward, init_net, load_checkpoint,
    save_checkpoint, score,
)
from posestream.fusion import read_scores
from posestream.preprocess import SpatialModel
from posestream.skeleton import build_topology, euler_tour
from posestream.synth import SyntheticSpec
from posestream.tensorize import FilledCorpus, corpus_tensors, read_corpus, write_corpus

from conftest import scoring_threads

JHMDB_NAMES = build_topology("jhmdb_gt").joint_names

FAST = [
    "--conv1-channels", "4", "--conv2-channels", "6", "--hidden", "16",
    "--epochs", "2", "--batch-size", "8", "--learning-rate", "0.05",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out.strip().splitlines()[-1]) if captured.out.strip() else {}
    err = json.loads(captured.err.strip().splitlines()[-1]) if captured.err.strip() else {}
    return code, out, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny synth -> preprocess -> train -> eval pipeline, shared."""
    root = tmp_path_factory.mktemp("pipeline")
    argv_synth = [
        "synth", "--out", str(root / "train.jsonl"),
        "--videos-per-class", "6", "--frames", "16", "--noise-sigma", "0.5", "--seed", "1",
    ]
    assert main(argv_synth) == 0
    assert main([
        "synth", "--out", str(root / "test.jsonl"),
        "--videos-per-class", "3", "--frames", "16", "--noise-sigma", "0.5", "--seed", "2",
    ]) == 0
    assert main([
        "preprocess", "--annotations", str(root / "train.jsonl"),
        "--cache", str(root / "train.cache"), "--seed", "0",
        "--report", str(root / "prep.json"),
    ]) == 0
    assert main([
        "train", "--cache", str(root / "train.cache"),
        "--checkpoint", str(root / "net.ckpt"), "--trace", str(root / "trace.csv"),
        "--seed", "0", *FAST,
    ]) == 0
    assert main([
        "preprocess", "--annotations", str(root / "test.jsonl"),
        "--cache", str(root / "test.cache"), "--seed", "0",
    ]) == 0
    assert main([
        "eval", "--cache", str(root / "test.cache"), "--checkpoint", str(root / "net.ckpt"),
        "--scores", str(root / "scores.csv"), "--labels", str(root / "labels.csv"),
        "--report", str(root / "eval.json"), "--seed", "0",
    ]) == 0
    return root


class TestSynth:
    def test_deterministic_output(self, tmp_path, capsys):
        args = ["synth", "--out", None, "--videos-per-class", "2", "--frames", "8",
                "--dropout", "0.1", "--seed", "9"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args[2] = str(a)
        assert main(args) == 0
        args[2] = str(b)
        assert main(args) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_class_is_json_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--out", str(tmp_path / "x.jsonl"), "--classes", "moonwalk"
        )
        assert code == 1
        assert err["error"] == "ValueError"
        assert "moonwalk" in err["message"]

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_writes_nothing(self, sigma, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code, _, err = run(capsys, "synth", "--out", str(out), "--noise-sigma", sigma)
        assert code == 1
        assert err["error"] == "ValueError"
        assert "noise_sigma" in err["message"]
        assert not out.exists()

    def test_negative_seed_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code, _, err = run(capsys, "synth", "--out", str(out), "--seed", "-1")
        assert code == 1
        assert err == {"error": "ValueError", "message": "seed must be an int >= 0, got -1",
                       "command": "synth"}
        assert not out.exists()

    def test_repeated_class_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code, _, err = run(capsys, "synth", "--out", str(out), "--classes", "wave,squat,wave")
        assert code == 1
        assert "'wave'" in err["message"]
        assert not out.exists()


class TestPreprocess:
    def test_report_contents(self, workdir):
        report = json.loads((workdir / "prep.json").read_text())
        assert report["videos"] == 24
        assert report["rejected"] == []
        assert "config_hash" in report and "seed" in report
        corpus = read_corpus(workdir / "train.cache")
        assert len(corpus.videos) == 24
        assert (corpus.seed, corpus.config_hash) == (report["seed"], report["config_hash"])

    def test_writes_one_artifact(self, tmp_path, capsys):
        ann = tmp_path / "ann.jsonl"
        assert main([
            "synth", "--out", str(ann), "--videos-per-class", "1", "--frames", "6", "--seed", "2",
        ]) == 0
        code, _, _ = run(
            capsys, "preprocess", "--annotations", str(ann),
            "--cache", str(tmp_path / "c.cache"), "--report", str(tmp_path / "r.json"),
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.jsonl", "c.cache", "r.json"]

    @pytest.mark.parametrize("value", [1e300, 1e30])
    def test_a_joint_far_off_the_torso_is_demoted_and_counted(self, tmp_path, capsys, value):
        """A visible joint set far off the torso in one video is demoted and
        counted, and spreads to no other video: their corpus bytes do not
        depend on how far off it is, and they stay within 1e-3 torso units of
        the unchanged run, where one joint more is fitted. A joint at 1e300,
        beyond float32, preprocesses, and the corpus trains and evaluates."""
        ann = tmp_path / "ann.jsonl"
        cmd_synth(SyntheticSpec(videos_per_class=10, frames=20, dropout=0.2, seed=202), ann)
        lines = ann.read_text().splitlines()
        record = json.loads(lines[1])
        assert record["video"] == "wave_0000" and record["frames"][3][8][2] == 1
        corpora, reports = {}, {}
        for name, x in [("clean", None), ("near", 1e4), ("far", value)]:
            if x is not None:
                record["frames"][3][8][0] = x
            lines[1] = json.dumps(record)
            (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
            code, reports[name], err = run(
                capsys, "preprocess", "--annotations", str(tmp_path / f"{name}.jsonl"),
                "--cache", str(tmp_path / f"{name}.cache"))
            assert code == 0, err
            corpora[name] = read_corpus(tmp_path / f"{name}.cache")
            assert np.isfinite(corpora[name].coords).all()
        elbow = [reports[name]["implausible_per_joint"]["l_elbow"] for name in corpora]
        assert elbow[0] == 0 and elbow[1] == elbow[2] > 0
        assert sum(reports["far"]["implausible_per_joint"].values()) == elbow[2]
        others = slice(corpora["far"].offsets[1], None)
        assert (corpora["far"].coords[others].tobytes()
                == corpora["near"].coords[others].tobytes())
        assert np.abs(corpora["far"].coords[others] - corpora["clean"].coords[others]).max() < 1e-3
        if value == 1e300:
            code, _, err = run(capsys, "train", "--cache", str(tmp_path / "far.cache"),
                               "--checkpoint", str(tmp_path / "n.ckpt"), *FAST)
            assert code == 0, err
            code, out, err = run(capsys, "eval", "--cache", str(tmp_path / "far.cache"),
                                 "--checkpoint", str(tmp_path / "n.ckpt"),
                                 "--scores", str(tmp_path / "s.csv"))
            assert code == 0, err
            assert np.isfinite(out["accuracy"])

    def test_a_fill_beyond_float32_fails_naming_the_file(self, tmp_path, capsys):
        """A loaded spatial model can vote a joint beyond float32: the run
        fails naming the annotation file and the video, and writes nothing."""
        ann = tmp_path / "ann.jsonl"
        cmd_synth(SyntheticSpec(videos_per_class=1, frames=6, dropout=0.3, seed=2), ann)
        coeffs = np.zeros((15, 15, 3, 2))
        coeffs[..., 0, :] = 1e300
        model = SpatialModel("jhmdb_gt", JHMDB_NAMES, coeffs, ~np.eye(15, dtype=bool))
        model.save(tmp_path / "m.bin")
        out = tmp_path / "out"
        code, _, err = run(capsys, "preprocess", "--annotations", str(ann), "--cache",
                           str(out / "c.cache"), "--spatial-model", str(tmp_path / "m.bin"))
        assert code == 1
        assert err["message"].startswith(f"{ann}: video '")
        assert err["message"].endswith("' has non-finite float32 coordinates on filled joints")
        assert not out.exists()

    def test_duplicate_ids_rejected_before_any_write(self, tmp_path, capsys):
        frames = ",".join(["[%s]" % ",".join("[1.0,%d,1]" % j for j in range(15))] * 3)
        ann = tmp_path / "ann.jsonl"
        ann.write_text("".join(
            '{"video": "%s", "label": 0, "n": 15, "frames": [%s]}\n' % (video, frames)
            for video in ("a", "b", "c", "b")
        ))
        code, _, err = run(
            capsys, "preprocess", "--annotations", str(ann), "--cache", str(tmp_path / "c.cache"),
            "--report", str(tmp_path / "r.json"), "--save-spatial-model", str(tmp_path / "m.npz"),
        )
        assert code == 1
        assert "'b'" in err["message"] and "lines 2 and 4" in err["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["ann.jsonl"]

    def test_malformed_records_listed_with_line_numbers(self, tmp_path, capsys):
        good = '{"video": "ok", "label": 0, "n": 15, "frames": [%s]}' % ",".join(
            ["[%s]" % ",".join("[1.0,%d,1]" % j for j in range(15))] * 3
        )
        bad_n = good.replace('"n": 15', '"n": 14').replace('"ok"', '"badn"')
        lines = [good, "this is not json", bad_n, good.replace('"ok"', '"ok2"')]
        ann = tmp_path / "ann.jsonl"
        ann.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "preprocess", "--annotations", str(ann),
            "--cache", str(tmp_path / "c.cache"), "--report", str(tmp_path / "r.json"),
        )
        # Bad lines are reported with their numbers; the valid records run.
        assert code == 0
        assert out["videos"] == 2
        assert [r["line"] for r in out["rejected"]] == [2, 3]
        assert "invalid JSON" in out["rejected"][0]["error"]

    def test_overflowing_record_only_loses_its_frames(self, tmp_path, capsys):
        # A joint at 1e304 over a 1e-5 torso overflows when normalized: the
        # frame is unusable, its video is zero-filled, and the others come
        # out exactly as they do without that record.
        topo = build_topology("jhmdb_gt")
        ann = tmp_path / "ann.jsonl"
        assert main(["synth", "--out", str(ann), "--videos-per-class", "1", "--frames", "12",
                     "--dropout", "0.3", "--seed", "4"]) == 0
        first, last = ann.read_text().splitlines()[1:3]
        joints = [[1.0, 2.0, 1] for _ in range(topo.n)]
        (neck,), (belly,) = topo.torso_anchors
        joints[neck], joints[belly] = [0.0, 0.0, 1], [0.0, 1e-5, 1]
        joints[topo.joint_names.index("r_wrist")] = [1e304, 0.0, 1]
        bad = json.dumps({"video": "bad", "label": 0, "n": topo.n, "frames": [joints] * 2})
        (tmp_path / "with.jsonl").write_text("\n".join([first, bad, last]) + "\n")
        (tmp_path / "without.jsonl").write_text("\n".join([first, last]) + "\n")
        reports = {}
        for name in ("with", "without"):
            code, reports[name], err = run(
                capsys, "preprocess", "--annotations", str(tmp_path / f"{name}.jsonl"),
                "--cache", str(tmp_path / f"{name}.cache"))
            assert code == 0, err
        assert reports["with"]["rejected"] == []
        assert reports["with"]["unusable_frames"] == reports["without"]["unusable_frames"] + 2
        full, kept = read_corpus(tmp_path / "with.cache"), read_corpus(tmp_path / "without.cache")
        assert full.videos == (kept.videos[0], "bad", kept.videos[1])
        assert (full.coords[12:14] == 0.0).all()
        assert (reports["with"]["fills"]["synthetic"]
                == reports["without"]["fills"]["synthetic"] + 2 * topo.n)
        rows = np.r_[0:12, 14:26]
        assert full.coords[rows].tobytes() == kept.coords.tobytes()

    def test_over_deep_line_rejected(self, tmp_path, capsys):
        # A line over 64 KiB with more than 8192 brackets never reaches orjson.
        good = '{"video": "ok", "label": 0, "n": 15, "frames": [[%s]]}' % ",".join(
            "[1.0,%d,1]" % j for j in range(15)
        )
        ann = tmp_path / "ann.jsonl"
        ann.write_text("[" * 100000 + "\n" + good + "\n")
        code, out, _ = run(capsys, "preprocess", "--annotations", str(ann),
                           "--cache", str(tmp_path / "c.cache"))
        assert code == 0
        assert out["videos"] == 1
        assert out["rejected"] == [{"line": 1, "error": "invalid JSON (nested too deeply)"}]

    def test_line_nested_past_the_fast_decoder_stack_rejected(self, tmp_path):
        # 60,000 nested objects overflow orjson's recursive build on an 8 MB
        # stack, so the line must be refused before orjson sees it; a
        # subprocess keeps a crash from taking the whole test run down.
        good = json.dumps({"video": "ok", "n": 15, "frames": [[[1.0, j, 1] for j in range(15)]]})
        ann = tmp_path / "ann.jsonl"
        ann.write_text(good + "\n" + '{"a":' * 60000 + "1" + "}" * 60000 + "\n")
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "posestream.cli", "preprocess", "--annotations", str(ann),
             "--cache", str(tmp_path / "c.cache")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["rejected"] == [{"line": 2, "error": "invalid JSON (nested too deeply)"}]

    def test_wrong_n_rejected_with_line_number(self, tmp_path, capsys):
        frames15 = ",".join(["[%s]" % ",".join("[1.0,%d,1]" % j for j in range(15))] * 3)
        frames14 = ",".join(["[%s]" % ",".join("[1.0,%d,1]" % j for j in range(14))] * 3)
        ann = tmp_path / "ann.jsonl"
        ann.write_text(
            '{"video": "a", "label": 0, "n": 15, "frames": [%s]}\n' % frames15
            + '{"video": "b", "label": 0, "n": 14, "frames": [%s]}\n' % frames14
            + '{"video": "c", "label": 1, "n": 15, "frames": [%s]}\n' % frames15
        )
        code, out, _ = run(
            capsys, "preprocess", "--annotations", str(ann), "--cache", str(tmp_path / "c.cache"),
        )
        assert code == 0
        assert out["videos"] == 2
        assert out["rejected"] == [{"line": 2, "error": "record has n=14, expected n=15"}]

    def test_no_valid_records_is_error(self, tmp_path, capsys):
        ann = tmp_path / "ann.jsonl"
        ann.write_text('{"video": "a", "n": 2, "frames": [[[0,0,1],[0,0,1]]]}\n')
        code, _, err = run(
            capsys, "preprocess", "--annotations", str(ann), "--cache", str(tmp_path / "c.cache"),
        )
        assert code == 1
        assert "no valid records" in err["message"]

    def test_zero_interpolation_report(self, tmp_path, capsys):
        assert main([
            "synth", "--out", str(tmp_path / "clean.jsonl"),
            "--videos-per-class", "2", "--frames", "8", "--noise-sigma", "0", "--seed", "3",
        ]) == 0
        code, out, _ = run(
            capsys, "preprocess", "--annotations", str(tmp_path / "clean.jsonl"),
            "--cache", str(tmp_path / "clean.cache"),
        )
        assert code == 0
        assert out["fills"]["temporal"] == 0
        assert out["fills"]["spatial"] == 0
        assert out["fills"]["synthetic"] == 0


    def test_fills_per_joint(self, tmp_path, capsys):
        ann = tmp_path / "ann.jsonl"
        assert main(["synth", "--out", str(ann), "--videos-per-class", "2", "--frames", "12",
                     "--dropout", "0.3", "--seed", "4"]) == 0
        code, out, _ = run(capsys, "preprocess", "--annotations", str(ann),
                           "--cache", str(tmp_path / "c.cache"))
        assert code == 0
        per_joint = out["fills_per_joint"]
        assert sorted(per_joint) == sorted(build_topology("jhmdb_gt").joint_names)
        for kind, total in out["fills"].items():
            assert sum(counts[kind] for counts in per_joint.values()) == total
        assert all(sum(counts.values()) == out["frames"] for counts in per_joint.values())
        assert out["fills"]["temporal"] > 0 and out["fills"]["spatial"] > 0

    def test_out_of_range_integer_rejects_only_its_line(self, tmp_path, capsys):
        def line(video, value, vis):
            joints = [[1.0, float(j), 1] for j in range(15)]
            joints[3] = [value, 2.0, vis]
            return json.dumps({"video": video, "label": 0, "n": 15, "frames": [joints] * 3})

        ann = tmp_path / "ann.jsonl"
        ann.write_text("\n".join([line("a", 10**30, 1), line("b", 10**400, 0),
                                   line("c", -(10**400), 1)]) + "\n")
        code, out, _ = run(capsys, "preprocess", "--annotations", str(ann),
                           "--cache", str(tmp_path / "c.cache"))
        assert code == 0
        assert out["videos"] == 1
        error = "invalid JSON (number is infinity when parsed as double)"
        assert out["rejected"] == [{"line": 2, "error": error}, {"line": 3, "error": error}]
        assert read_corpus(tmp_path / "c.cache").videos[0] == "a"

    def test_infinite_joint_count_rejects_only_its_line(self, tmp_path, capsys):
        joints = [[1.0, float(j), 1] for j in range(15)]
        lines = [json.dumps({"video": video, "label": 0, "n": n, "frames": [joints] * 3})
                 for video, n in [("a", 15), ("b", float("inf")), ("c", float("-inf"))]]
        ann = tmp_path / "ann.jsonl"
        ann.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "preprocess", "--annotations", str(ann),
                           "--cache", str(tmp_path / "c.cache"))
        assert code == 0
        assert out["videos"] == 1
        # json.dumps writes Infinity and -Infinity, which are not RFC 8259 JSON.
        assert out["rejected"] == [{"line": 2, "error": "invalid JSON (unexpected character)"},
                                   {"line": 3, "error": "invalid JSON (no digit after minus sign)"}]

    def test_integer_too_long_to_convert_rejects_only_its_line(self, tmp_path, capsys):
        good = json.dumps({"video": "ok", "label": 0, "n": 15,
                           "frames": [[[1.0, float(j), 1] for j in range(15)]] * 3})
        # A 5000-digit integer lies beyond the float64 range.
        bad = good.replace('"ok"', '"big"').replace("[1.0,", "[" + "7" * 5000 + ",", 1)
        ann = tmp_path / "ann.jsonl"
        ann.write_text(good + "\n" + bad + "\n")
        cache = tmp_path / "c.cache"
        code, out, _ = run(capsys, "preprocess", "--annotations", str(ann), "--cache", str(cache))
        assert code == 0
        assert out["videos"] == 1
        [rejected] = out["rejected"]
        assert rejected["line"] == 2
        assert rejected["error"] == "invalid JSON (number is infinity when parsed as double)"
        assert read_corpus(cache).videos == ("ok",)

    def test_lines_outside_rfc_8259_rejected_alone(self, tmp_path, capsys):
        good = json.dumps({"video": "ok", "label": 0, "n": 15,
                           "frames": [[[1.0, float(j), 1] for j in range(15)]] * 3})
        bad = {
            good.replace("[1.0,", "[NaN,", 1): "unexpected character",
            good.replace("[1.0,", "[Infinity,", 1): "unexpected character",
            good.replace("[1.0,", "[1e400,", 1): "number is infinity when parsed as double",
            good.replace("[1.0,", "[%d," % 10**400, 1): "number is infinity when parsed as double",
            good.replace('"ok"', '"\\ud800"'): "no matched low surrogate in string",
            "\ufeff" + good: "byte order mark (BOM) is not supported",
        }
        ann = tmp_path / "ann.jsonl"
        ann.write_text("\n".join([*bad, good]) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "preprocess", "--annotations", str(ann),
                           "--cache", str(tmp_path / "c.cache"))
        assert code == 0
        assert out["videos"] == 1
        assert out["rejected"] == [{"line": line, "error": f"invalid JSON ({message})"}
                                   for line, message in enumerate(bad.values(), 1)]

    def test_line_that_is_not_utf8_rejected_alone(self, tmp_path, capsys):
        good = json.dumps({"video": "ok", "label": 0, "n": 15,
                           "frames": [[[1.0, float(j), 1] for j in range(15)]] * 3})
        # Latin-1 "é" in the id: the byte 0xe9 at offset 14 starts no UTF-8 sequence.
        bad = good.replace("ok", "caf?").encode().replace(b"?", b"\xe9")
        ann = tmp_path / "ann.jsonl"
        ann.write_bytes(b"\n".join([good.encode(), bad, good.replace("ok", "ok2").encode()]))
        code, out, _ = run(capsys, "preprocess", "--annotations", str(ann),
                           "--cache", str(tmp_path / "c.cache"))
        assert code == 0
        assert out["videos"] == 2
        assert out["rejected"] == [{"line": 2, "error": "line is not UTF-8 (bad byte at offset 14)"}]

    @pytest.mark.parametrize("defect",
                             ["truncated", "five joints", "penn", "other joint order"])
    def test_bad_spatial_model_fails_before_any_write(self, defect, tmp_path, capsys):
        ann = tmp_path / "ann.jsonl"
        assert main(["synth", "--out", str(ann), "--videos-per-class", "1", "--frames", "6"]) == 0
        model = tmp_path / "model.npz"
        _bad_model(model, defect)
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "preprocess", "--annotations", str(ann), "--cache", str(out / "c.cache"),
            "--report", str(out / "r.json"), "--spatial-model", str(model),
            "--save-spatial-model", str(out / "m.npz"),
        )
        assert code == 1
        assert str(model) in err["message"]
        if defect == "other joint order":
            assert err["message"] == (f"{model}: spatial model joint 0 is '{JHMDB_NAMES[-1]}', "
                                      f"topology 'jhmdb_gt' has '{JHMDB_NAMES[0]}' there")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--spatial-model",), ("--save-spatial-model",),
                                       ("--save-spatial-model", "--spatial-model")])
    def test_spatial_model_flags_refused_without_interpolation(self, flags, tmp_path, capsys):
        ann = tmp_path / "ann.jsonl"
        assert main(["synth", "--out", str(ann), "--videos-per-class", "1", "--frames", "6"]) == 0
        out = tmp_path / "out"
        models = [arg for flag in flags for arg in (flag, str(out / f"{flag[2:]}.bin"))]
        code, _, err = run(
            capsys, "preprocess", "--annotations", str(ann), "--cache", str(out / "c.cache"),
            "--report", str(out / "r.json"), "--no-interpolate", *models,
        )
        assert code == 1
        assert err["error"] == "CliError"
        assert err["message"].startswith(f"{flags[-1]} needs spatial interpolation, which "
                                         "--no-interpolate")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preprocess", "train"])
    def test_topology_file_refused_with_a_built_in_profile(self, workdir, tmp_path, capsys,
                                                           command):
        out = tmp_path / "out"
        argv = {"preprocess": ["--annotations", str(workdir / "test.jsonl"),
                               "--cache", str(out / "c.cache"), "--report", str(out / "r.json")],
                "train": ["--cache", str(workdir / "train.cache"),
                          "--checkpoint", str(out / "n.ckpt"), "--trace", str(out / "t.csv")]}
        code, _, err = run(capsys, command, *argv[command], "--profile", "jhmdb_gt",
                           "--topology-file", str(tmp_path / "nonexistent.txt"))
        assert code == 1
        assert "--topology-file" in err["message"] and "not 'jhmdb_gt'" in err["message"]
        assert not out.exists()

    def test_one_model_fills_saves_and_loads(self, tmp_path, capsys, monkeypatch):
        ann = tmp_path / "ann.jsonl"
        assert main(["synth", "--out", str(ann), "--videos-per-class", "3", "--frames", "12",
                     "--dropout", "0.2", "--seed", "4"]) == 0
        # l_ankle missing in every frame, so that the pairs it is in stay untrained.
        lines = []
        for line in ann.read_text().splitlines():
            record = json.loads(line)
            for frame in record.get("frames", []):
                frame[14][2] = 0
            lines.append(json.dumps(record))
        ann.write_text("\n".join(lines) + "\n")
        normalized = []
        interpolate = preprocess.spatial_interpolate

        def record(corpus, model, topology):
            normalized.append(corpus)
            return interpolate(corpus, model, topology)

        monkeypatch.setattr(preprocess, "spatial_interpolate", record)
        model = str(tmp_path / "m.bin")
        for name, extra in [("default", []), ("save", ["--save-spatial-model", model]),
                            ("load", ["--spatial-model", model])]:
            code, _, _ = run(capsys, "preprocess", "--annotations", str(ann),
                             "--cache", str(tmp_path / f"{name}.cache"), *extra)
            assert code == 0
        cache = (tmp_path / "default.cache").read_bytes()
        assert (tmp_path / "save.cache").read_bytes() == cache
        assert (tmp_path / "load.cache").read_bytes() == cache

        filled = (normalized[0].flags > 0).astype(np.int64)
        together = (filled.T @ filled > 0) & ~np.eye(15, dtype=bool)
        trained = SpatialModel.load(model).trained
        np.testing.assert_array_equal(trained, together)
        assert not trained[14].any() and not trained[:, 14].any()
        assert trained.sum() == 14 * 13


def _bad_model(path, defect):
    if defect == "penn":
        names = build_topology("penn").joint_names
        model = SpatialModel("penn", names, np.zeros((13, 13, 3, 2)), np.zeros((13, 13), bool))
    elif defect == "other joint order":
        model = SpatialModel("jhmdb_gt", JHMDB_NAMES[::-1], np.zeros((15, 15, 3, 2)),
                             np.zeros((15, 15), bool))
    else:
        model = SpatialModel("jhmdb_gt", JHMDB_NAMES[:5], np.zeros((5, 5, 3, 2)),
                             np.zeros((5, 5), bool))
    model.save(path)
    if defect == "truncated":
        path.write_bytes(path.read_bytes()[:200])


class TestTrain:
    def test_zero_epochs_equals_initialization(self, workdir, tmp_path, capsys):
        code, _, _ = run(
            capsys, "train", "--cache", str(workdir / "train.cache"),
            "--checkpoint", str(tmp_path / "init.ckpt"), "--seed", "5",
            "--epochs", "0", "--conv1-channels", "4", "--conv2-channels", "6", "--hidden", "16",
        )
        assert code == 0
        net, _ = load_checkpoint(tmp_path / "init.ckpt")
        # train starts from the float64 initialization cast to float32.
        fresh = init_net(
            (15, 2 * len(read_corpus(workdir / "train.cache").path), 3), num_classes=4, seed=5,
            arch=NetSpec(conv1_channels=4, conv2_channels=6, hidden=16),
        ).astype(np.float32)
        for name, param in fresh.parameters().items():
            np.testing.assert_array_equal(net.parameters()[name], param)

    def test_unlabeled_corpus_rejected_before_any_write(self, tmp_path, capsys):
        cache = TestEval().unlabeled_corpus(tmp_path)
        capsys.readouterr()
        code, _, err = run(
            capsys, "train", "--cache", str(cache), "--checkpoint", str(tmp_path / "n.ckpt"),
        )
        assert code == 1
        assert "without labels" in err["message"] and str(cache) in err["message"]
        assert not (tmp_path / "n.ckpt").exists()

    def test_one_class_corpus_rejected_before_any_write(self, tmp_path, capsys):
        ann, cache = tmp_path / "a.jsonl", tmp_path / "c.cache"
        assert main(["synth", "--out", str(ann), "--classes", "wave", "--videos-per-class", "2",
                     "--frames", "12", "--seed", "1"]) == 0
        assert main(["preprocess", "--annotations", str(ann), "--cache", str(cache)]) == 0
        capsys.readouterr()
        code, _, err = run(capsys, "train", "--cache", str(cache),
                           "--checkpoint", str(tmp_path / "n.ckpt"))
        assert code == 1
        assert err["message"] == f"{cache}: training needs at least two classes"
        assert not (tmp_path / "n.ckpt").exists()

    def test_output_names_leave_artifacts_unchanged(self, workdir, tmp_path, capsys):
        for name in ("a", "b"):
            assert main([
                "train", "--cache", str(workdir / "train.cache"),
                "--checkpoint", str(tmp_path / f"{name}.ckpt"),
                "--trace", str(tmp_path / f"{name}.csv"), "--seed", "0", *FAST,
            ]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_trace_rerun_identical(self, workdir, tmp_path, capsys):
        argv = [
            "train", "--cache", str(workdir / "train.cache"),
            "--checkpoint", str(tmp_path / "n.ckpt"),
            "--trace", str(tmp_path / "t.csv"), "--seed", "0", *FAST,
        ]
        traces = []
        for _ in range(2):
            assert main(argv) == 0
            traces.append((tmp_path / "t.csv").read_bytes())
        capsys.readouterr()
        assert traces[0] == traces[1]

    def test_k_sets_net_and_tensors(self, workdir, tmp_path, capsys):
        code, out, _ = run(
            capsys, "train", "--cache", str(workdir / "train.cache"),
            "--checkpoint", str(tmp_path / "k10.ckpt"), "--seed", "0", "--k", "10", *FAST,
        )
        assert code == 0, out
        net, _ = load_checkpoint(tmp_path / "k10.ckpt")
        assert net.input_shape == (10, 58, 3)
        # eval takes K from the checkpoint.
        code, out, _ = run(
            capsys, "eval", "--cache", str(workdir / "test.cache"),
            "--checkpoint", str(tmp_path / "k10.ckpt"), "--scores", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert out["videos"] == 12

    def test_profile_mismatch_names_the_file(self, workdir, tmp_path, capsys):
        cache = str(workdir / "train.cache")
        code, _, err = run(
            capsys, "train", "--cache", cache, "--profile", "penn",
            "--checkpoint", str(tmp_path / "n.ckpt"),
        )
        assert code == 1
        assert cache in err["message"] and "jhmdb_gt" in err["message"]
        assert not (tmp_path / "n.ckpt").exists()

    def test_missing_cache_is_json_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--cache", str(tmp_path / "nope.cache"),
            "--checkpoint", str(tmp_path / "n.ckpt"),
        )
        assert code == 1
        assert err["error"] == "FileNotFoundError"

    def test_memory_growth_bounded(self, tmp_path):
        """From 64 videos to 640, train's traced peak grows by no more than
        the corpus's own arrays and 1 MB, the bound eval's memory test takes:
        each SGD step's tensors are filled into the workspace, so no epoch's
        tensors are held at once."""
        tour = euler_tour(build_topology("jhmdb_gt"))
        rng = np.random.default_rng(8)

        def train_peak(videos):
            corpus = random_corpus(videos, tour, rng)
            write_corpus(tmp_path / "c.bin", corpus)
            cfg = PipelineConfig(cache=str(tmp_path / "c.bin"), checkpoint=str(tmp_path / "n"),
                                 conv1_channels=8, conv2_channels=16, hidden=64, epochs=2,
                                 batch_size=16)
            tracemalloc.start()
            try:
                cmd_train(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, sum(a.nbytes for a in (corpus.labels, corpus.offsets, corpus.coords))

        small, small_arrays = train_peak(64)
        large, large_arrays = train_peak(640)
        assert large - small <= large_arrays - small_arrays + 1_000_000


def random_corpus(videos, tour, rng, frames=20):
    """A labeled corpus of fully observed normal-noise frames."""
    return FilledCorpus(
        videos=[f"clip{i:05d}" for i in range(videos)], labels=np.arange(videos) % 4,
        offsets=np.arange(videos + 1) * frames, coords=rng.normal(size=(videos * frames, 15, 2)),
        path=tour, seed=3, config_hash="h",
    )


class TestEval:
    def test_scores_are_probabilities(self, workdir):
        scores = read_scores(workdir / "scores.csv", stream="pose")
        assert (scores.matrix >= 0).all()
        np.testing.assert_allclose(scores.matrix.sum(axis=1), 1.0, atol=1e-6)

    def test_report_and_labels(self, workdir):
        report = json.loads((workdir / "eval.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert len(report["per_class_accuracy"]) == 4
        labels_text = (workdir / "labels.csv").read_text()
        assert labels_text.splitlines()[1] == "video,label"

    def test_converged_train_set_eval_matches_trace(self, tmp_path, capsys):
        # Evaluate the training cache of a run trained to convergence: the
        # reported accuracy must equal the final trace accuracy.
        assert main([
            "synth", "--out", str(tmp_path / "t.jsonl"), "--videos-per-class", "40",
            "--frames", "24", "--noise-sigma", "0.5", "--seed", "17",
        ]) == 0
        assert main([
            "preprocess", "--annotations", str(tmp_path / "t.jsonl"),
            "--cache", str(tmp_path / "t.cache"), "--seed", "0",
        ]) == 0
        assert main([
            "train", "--cache", str(tmp_path / "t.cache"),
            "--checkpoint", str(tmp_path / "t.ckpt"), "--trace", str(tmp_path / "t.trace"),
            "--seed", "0", "--conv1-channels", "6", "--conv2-channels", "8",
            "--hidden", "32", "--epochs", "25", "--batch-size", "16",
            "--learning-rate", "0.07",
        ]) == 0
        code, out, _ = run(
            capsys, "eval", "--cache", str(tmp_path / "t.cache"),
            "--checkpoint", str(tmp_path / "t.ckpt"), "--scores", str(tmp_path / "t.csv"),
        )
        assert code == 0
        final_trace_accuracy = float(
            (tmp_path / "t.trace").read_text().splitlines()[-1].split(",")[2]
        )
        assert final_trace_accuracy == 1.0, "run did not converge; cross-check needs convergence"
        assert out["accuracy"] == final_trace_accuracy

    def test_shape_mismatch_is_error(self, workdir, tmp_path, capsys):
        # Train a checkpoint on a different tensor width (penn profile).
        assert main([
            "synth", "--out", str(tmp_path / "p.jsonl"), "--profile", "penn",
            "--videos-per-class", "2", "--frames", "16", "--seed", "4",
        ]) == 0
        assert main([
            "preprocess", "--annotations", str(tmp_path / "p.jsonl"),
            "--cache", str(tmp_path / "p.cache"), "--profile", "penn",
        ]) == 0
        code, _, err = run(
            capsys, "eval", "--cache", str(tmp_path / "p.cache"),
            "--checkpoint", str(workdir / "net.ckpt"), "--scores", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert "checkpoint expects" in err["message"]
        assert not (tmp_path / "s.csv").exists()

    def test_a_label_beyond_the_checkpoint_fails_naming_both_before_scoring(
            self, tmp_path, capsys, monkeypatch):
        ann, cache, checkpoint = tmp_path / "a.jsonl", tmp_path / "c.cache", tmp_path / "n.ckpt"
        assert main(["synth", "--out", str(ann), "--videos-per-class", "3", "--seed", "1"]) == 0
        assert main(["preprocess", "--annotations", str(ann), "--cache", str(cache)]) == 0
        save_checkpoint(init_net((15, 58, 3), num_classes=2, seed=0,
                                 arch=NetSpec(conv1_channels=4, conv2_channels=6, hidden=16)),
                        checkpoint)
        scored = []
        monkeypatch.setattr("posestream.convnet.score", lambda *args: scored.append(args))
        capsys.readouterr()
        code, _, err = run(capsys, "eval", "--cache", str(cache), "--checkpoint", str(checkpoint),
                           "--scores", str(tmp_path / "s.csv"))
        assert code == 1
        assert err["message"] == (f"{cache}: label 2 of video 'stride_0000' out of range for "
                                  f"the 2 classes of checkpoint {checkpoint}")
        assert scored == []
        assert not (tmp_path / "s.csv").exists()

    def unlabeled_corpus(self, tmp_path):
        frames = ",".join(["[%s]" % ",".join("[%d.0,%d,1]" % (j % 3, j) for j in range(15))] * 4)
        ann = tmp_path / "u.jsonl"
        ann.write_text(
            '{"video": "a", "label": 0, "n": 15, "frames": [%s]}\n' % frames
            + '{"video": "b", "n": 15, "frames": [%s]}\n' % frames
        )
        assert main(["preprocess", "--annotations", str(ann),
                     "--cache", str(tmp_path / "u.cache")]) == 0
        return tmp_path / "u.cache"

    def test_unlabeled_videos_scored_without_accuracy(self, workdir, tmp_path, capsys):
        cache = self.unlabeled_corpus(tmp_path)
        code, out, _ = run(
            capsys, "eval", "--cache", str(cache), "--checkpoint", str(workdir / "net.ckpt"),
            "--scores", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"),
        )
        assert code == 0
        assert sorted(read_scores(tmp_path / "s.csv").scores) == ["a", "b"]
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["accuracy"] is report["per_class_accuracy"] is report["confusion"] is None
        assert out == report

    def test_labels_of_unlabeled_corpus_fail_before_any_write(self, workdir, tmp_path, capsys):
        cache = self.unlabeled_corpus(tmp_path)
        code, _, err = run(
            capsys, "eval", "--cache", str(cache), "--checkpoint", str(workdir / "net.ckpt"),
            "--scores", str(tmp_path / "s.csv"), "--labels", str(tmp_path / "l.csv"),
        )
        assert code == 1
        assert str(cache) in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u.cache", "u.jsonl"]

    def test_float32_scores_within_stated_tolerance_of_float64(self, tmp_path):
        """eval scores a float64 checkpoint in float32: within 1e-6 of float64
        library scoring of the same net, with the same predicted classes."""
        tour = euler_tour(build_topology("jhmdb_gt"))
        net = init_net((15, 2 * len(tour), 3), num_classes=4, seed=3)  # default NetSpec
        save_checkpoint(net, tmp_path / "net.ckpt")
        corpus = random_corpus(130, tour, np.random.default_rng(9))
        write_corpus(tmp_path / "c.bin", corpus)
        cmd_eval(PipelineConfig(cache=str(tmp_path / "c.bin"), scores=str(tmp_path / "s.csv"),
                                checkpoint=str(tmp_path / "net.ckpt")))
        scored = read_scores(tmp_path / "s.csv")
        assert scored.videos == tuple(corpus.videos)
        data = corpus_tensors(corpus, range(130), 15, "random", corpus.seed)
        want = forward(net, data)
        assert want.dtype == np.float64
        assert np.abs(scored.matrix - want).max() <= 1e-6
        assert (scored.matrix.argmax(axis=1) == want.argmax(axis=1)).all()
        # The CSV's 12 significant digits hold the float32 scores exactly.
        got = scored.matrix.astype(np.float32)
        assert got.tobytes() == forward(net.astype(np.float32), data).tobytes()

    def test_memory_flat_in_corpus_size(self, tmp_path):
        """eval holds no frame beyond one slice's per lane: from the fewest
        videos that fill both lanes (two slices) to ten times as many, of 40
        frames (5.2 MB more coordinates in the file at 32-row slices), its
        traced peak grows by less than 1 MB."""
        tour = euler_tour(build_topology("jhmdb_gt"))
        net = init_net((15, 2 * len(tour), 3), num_classes=4, seed=0,
                       arch=NetSpec(conv1_channels=8, conv2_channels=16, hidden=64))
        save_checkpoint(net, tmp_path / "net.ckpt")
        rng = np.random.default_rng(8)

        def eval_peak(videos):
            write_corpus(tmp_path / "c.bin", random_corpus(videos, tour, rng, frames=40))
            cfg = PipelineConfig(cache=str(tmp_path / "c.bin"), scores=str(tmp_path / "s.csv"),
                                 checkpoint=str(tmp_path / "net.ckpt"))
            tracemalloc.start()
            try:
                cmd_eval(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert eval_peak(20 * FORWARD_SLICE) - eval_peak(2 * FORWARD_SLICE) < 1_000_000

    @pytest.mark.parametrize("defect, message", [
        ("label", "labels below -1"),
        ("coordinate", f"video 'clip{2 * FORWARD_SLICE:05d}' has non-finite float32 "
                       "coordinates on filled joints"),
    ])
    def test_a_corpus_defect_fails_naming_the_file_before_any_write(self, tmp_path, capsys,
                                                                     defect, message):
        """A defect of the last video of 2 * FORWARD_SLICE + 1 fails eval: a
        label before the checkpoint is read (here there is none), a frame
        when the last of three slices is read; either way nothing is
        written."""
        tour = euler_tour(build_topology("jhmdb_gt"))
        net = init_net((15, 2 * len(tour), 3), num_classes=4, seed=0,
                       arch=NetSpec(conv1_channels=4, conv2_channels=6, hidden=16))
        save_checkpoint(net, tmp_path / "net.ckpt")
        corpus = random_corpus(2 * FORWARD_SLICE + 1, tour, np.random.default_rng(11))
        cache = tmp_path / "c.bin"
        write_corpus(cache, corpus)
        raw = bytearray(cache.read_bytes())
        _, _, length = binio.PREFIX.unpack_from(raw)
        # The labels follow the header and the V + 1 offsets; the
        # coordinates are the last F * n * 2 float32 values.
        at, value = {
            "label": (binio.PREFIX.size + length + 16 * len(corpus.videos),
                      np.int64(-2).tobytes()),
            "coordinate": (len(raw) - 4, np.float32(np.nan).tobytes()),
        }[defect]
        raw[at:at + len(value)] = value
        cache.write_bytes(raw)
        out = tmp_path / "out"
        out.mkdir()
        for name in ("s.csv", "l.csv", "r.json"):
            (out / name).write_text("an earlier run's output")
        before = _snapshot(out)
        checkpoint = tmp_path / ("none.ckpt" if defect == "label" else "net.ckpt")
        code, _, err = run(capsys, "eval", "--cache", str(cache), "--checkpoint",
                           str(checkpoint), "--scores", str(out / "s.csv"),
                           "--labels", str(out / "l.csv"), "--report", str(out / "r.json"))
        assert code == 1
        assert err["message"].startswith(f"{cache}: {message}"), err["message"]
        assert _snapshot(out) == before

    def test_peak_holds_less_than_a_float64_copy_of_the_net(self, tmp_path):
        """eval reads the checkpoint straight into float32 and scores into one
        workspace, so its peak beyond the corpus arrays is below what a
        float64 copy of the net alone would take."""
        tour = euler_tour(build_topology("jhmdb_gt"))
        net = init_net((15, 2 * len(tour), 3), num_classes=4, seed=0)  # default NetSpec
        save_checkpoint(net, tmp_path / "net.ckpt")
        corpus = random_corpus(20, tour, np.random.default_rng(10))
        write_corpus(tmp_path / "c.bin", corpus)
        cfg = PipelineConfig(cache=str(tmp_path / "c.bin"), scores=str(tmp_path / "s.csv"),
                             checkpoint=str(tmp_path / "net.ckpt"))
        tracemalloc.start()
        try:
            cmd_eval(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for a in (corpus.labels, corpus.offsets, corpus.coords))
        assert peak - arrays < sum(p.nbytes for p in net.parameters().values())

    def test_a_slice_reaches_the_net_with_no_copy(self, cpus):
        """corpus_tensors builds eval's slices in place, in the net's dtype,
        in the buffer score hands its fill, one buffer of the lane's
        workspace for all its slices. So once the lane's first slice has
        warmed the workspace, scoring a slice allocates less than a copy of
        it in that dtype: the net scores it as it was built."""
        cpus(1)
        tour = euler_tour(build_topology("jhmdb_gt"))
        net = init_net((15, 2 * len(tour), 3), num_classes=4, seed=0).astype(NET_DTYPE)
        corpus = random_corpus(3 * FORWARD_SLICE, tour, np.random.default_rng(12))
        buffers, peaks = [], []

        def fill(rows, out):
            if tracemalloc.is_tracing():  # the previous slice was scored
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            built = corpus_tensors(corpus, rows, 15, "random", corpus.seed, out=out)
            assert built is out and out.dtype == NET_DTYPE
            buffers.append(out)
            if rows[0]:
                tracemalloc.start()

        try:
            score(net, len(corpus.videos), fill)
        finally:
            tracemalloc.stop()
        assert len(buffers) == 3 and all(np.shares_memory(b, buffers[0]) for b in buffers)
        assert len(peaks) == 1 and peaks[0] < buffers[0].nbytes


class TestEvalLanes:
    """eval scores its slices through convnet.score on min(2, CPUs of its
    affinity set) lanes: the main thread takes the first run of slices and
    one thread the rest."""

    @staticmethod
    def corpus_and_net(tmp_path, videos, arch=NetSpec(conv1_channels=4, conv2_channels=6,
                                                      hidden=16)):
        tour = euler_tour(build_topology("jhmdb_gt"))
        net = init_net((15, 2 * len(tour), 3), num_classes=4, seed=videos, arch=arch)
        save_checkpoint(net, tmp_path / "net.ckpt")
        corpus = random_corpus(videos, tour, np.random.default_rng(videos))
        write_corpus(tmp_path / "c.bin", corpus)
        return corpus

    @staticmethod
    def break_slices(tmp_path, corpus, slices):
        """Non-finite frames in the middle video of each of these slices, of
        FORWARD_SLICE videos each in id order; returns those videos."""
        cache = tmp_path / "c.bin"
        raw = bytearray(cache.read_bytes())
        coords_at = len(raw) - corpus.coords.nbytes
        bad = [index * FORWARD_SLICE + FORWARD_SLICE // 2 for index in slices]
        for video in bad:
            at = coords_at + int(corpus.offsets[video]) * 15 * 2 * 4
            raw[at:at + 4] = np.float32(np.inf).tobytes()
        cache.write_bytes(raw)
        return [corpus.videos[video] for video in bad]

    @pytest.mark.parametrize("arch", [NetSpec(), NetSpec(conv1_channels=8, conv2_channels=16,
                                                         hidden=64)],
                             ids=["32_64_256", "8_16_64"])
    @pytest.mark.parametrize("videos", [1, 7, 31, 32, 33, 64, 65, 129])
    def test_one_lane_and_two_write_the_same_bytes(self, tmp_path, monkeypatch, capsys, cpus,
                                                   arch, videos):
        self.corpus_and_net(tmp_path, videos, arch)
        threads = scoring_threads(monkeypatch)
        names = ("s.csv", "l.csv", "r.json")
        written = {}
        for count in (1, 2):
            cpus(count)
            threads.clear()
            code, out, _ = run(capsys, "eval", "--cache", str(tmp_path / "c.bin"),
                               "--checkpoint", str(tmp_path / "net.ckpt"),
                               *(arg for flag, name in zip(("--scores", "--labels", "--report"),
                                                           names)
                                 for arg in (flag, str(tmp_path / name))))
            assert code == 0 and out["videos"] == videos
            written[count] = [(tmp_path / name).read_bytes() for name in names]
            slices = -(-videos // FORWARD_SLICE)
            lanes = min(count, slices)
            assert len(threads) == slices
            assert len(set(threads)) == lanes
            # The main thread's run is the longer one when the slices are odd.
            assert threads.count(threading.main_thread().name) == -(-slices // lanes)
        assert written[1] == written[2]

    @pytest.mark.parametrize("defects", [(2, 3), (0, 4), (1, 4)], ids="{0[0]}-{0[1]}".format)
    def test_the_earliest_defect_fails_every_run_and_nothing_is_written(
            self, tmp_path, capsys, cpus, defects):
        """Non-finite frames in two slices of different lanes (slices 0-2 on
        the main thread, 3-4 on the other): every run names the video of the
        earlier slice, writes nothing and leaves no thread. Slice 3 is the
        other lane's first, so at 2-3 the later lane fails first in time;
        at 0-4 the main lane does."""
        cpus(2)
        corpus = self.corpus_and_net(tmp_path, 5 * FORWARD_SLICE)
        bad = self.break_slices(tmp_path, corpus, defects)
        out = tmp_path / "out"
        out.mkdir()
        threads = threading.active_count()
        for _ in range(20):
            code, _, err = run(capsys, "eval", "--cache", str(tmp_path / "c.bin"), "--checkpoint",
                               str(tmp_path / "net.ckpt"), "--scores", str(out / "s.csv"),
                               "--labels", str(out / "l.csv"), "--report", str(out / "r.json"))
            assert code == 1
            assert err["message"] == (f"{tmp_path / 'c.bin'}: video '{bad[0]}' has non-finite "
                                      "float32 coordinates on filled joints")
            assert list(out.iterdir()) == []
            assert threading.active_count() == threads

    def test_a_failure_on_the_main_lane_stops_the_other_at_its_next_slice(
            self, tmp_path, monkeypatch, cpus):
        """A slice of the main lane fails while the other lane scores its
        first slice: the other lane scores no further slice, and the
        failure reaches the caller once it is joined; nothing is written."""
        cpus(2)
        self.corpus_and_net(tmp_path, 6 * FORWARD_SLICE)
        started, failed = threading.Event(), threading.Event()

        def probs(real, *args):
            if threading.current_thread() is threading.main_thread():
                started.wait(timeout=30)
                failed.set()
                raise ValueError("bad slice")
            started.set()
            if failed.wait(timeout=30):
                time.sleep(0.2)  # the main lane records its failure meanwhile
            return real(*args)

        threads = scoring_threads(monkeypatch, probs)
        before = threading.active_count()
        cfg = PipelineConfig(cache=str(tmp_path / "c.bin"), scores=str(tmp_path / "s.csv"),
                             checkpoint=str(tmp_path / "net.ckpt"))
        with pytest.raises(ValueError, match="^bad slice$"):
            cmd_eval(cfg)
        assert threading.active_count() == before
        assert len(threads) == 2 and threads.count(threading.main_thread().name) == 1
        assert not (tmp_path / "s.csv").exists()

    def test_an_interrupt_stops_and_joins_the_other_lane(self, tmp_path, monkeypatch, cpus):
        """A KeyboardInterrupt on the main lane's second slice reaches the
        caller once the other lane has stopped at its next slice and been
        joined; nothing is written."""
        cpus(2)
        self.corpus_and_net(tmp_path, 10 * FORWARD_SLICE)
        interrupted = threading.Event()

        def probs(real, *args):
            if threading.current_thread() is not threading.main_thread():
                interrupted.wait(timeout=30)
                time.sleep(0.2)  # the main lane reaches its handler meanwhile
            elif threads.count(threading.main_thread().name) == 2:
                interrupted.set()
                raise KeyboardInterrupt
            return real(*args)

        threads = scoring_threads(monkeypatch, probs)
        before = threading.active_count()
        cfg = PipelineConfig(cache=str(tmp_path / "c.bin"), scores=str(tmp_path / "s.csv"),
                             checkpoint=str(tmp_path / "net.ckpt"))
        with pytest.raises(KeyboardInterrupt):
            cmd_eval(cfg)
        assert threading.active_count() == before
        assert len(threads) == 3  # two slices on the main lane, one on the other
        assert not (tmp_path / "s.csv").exists()


class TestFuse:
    def write_streams(self, tmp_path):
        # pose is right everywhere except video v2; spatial fixes v2.
        (tmp_path / "pose.csv").write_text(
            "video,class_0,class_1\nv0,0.9,0.1\nv1,0.2,0.8\nv2,0.6,0.4\n"
        )
        (tmp_path / "spatial.csv").write_text(
            "video,class_0,class_1\nv0,0.7,0.3\nv1,0.3,0.7\nv2,0.1,0.9\n"
        )
        (tmp_path / "labels.csv").write_text("video,label\nv0,0\nv1,1\nv2,1\n")

    def test_single_stream_unit_weight_matches_solo(self, workdir, tmp_path, capsys):
        code, out, _ = run(
            capsys, "fuse", "--pose-scores", str(workdir / "scores.csv"),
            "--labels", str(workdir / "labels.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
            "--weights", "1,0,0",
        )
        assert code == 0
        eval_report = json.loads((workdir / "eval.json").read_text())
        assert out["accuracy"]["pose"] == eval_report["accuracy"]
        assert out["fused_accuracy"] == eval_report["accuracy"]

    def test_weights_echoed_in_outputs(self, tmp_path, capsys):
        self.write_streams(tmp_path)
        code, out, _ = run(
            capsys, "fuse", "--pose-scores", str(tmp_path / "pose.csv"),
            "--spatial-scores", str(tmp_path / "spatial.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
            "--report", str(tmp_path / "fuse.json"),
        )
        assert code == 0
        assert out["weights"] == [1.0, 1.0, 1.0]
        header = (tmp_path / "fused.csv").read_text().splitlines()[0]
        assert "weights=1,1,1" in header
        report = json.loads((tmp_path / "fuse.json").read_text())
        assert report["weights"] == [1.0, 1.0, 1.0]

    def test_subset_table(self, tmp_path, capsys):
        self.write_streams(tmp_path)
        code, out, _ = run(
            capsys, "fuse", "--pose-scores", str(tmp_path / "pose.csv"),
            "--spatial-scores", str(tmp_path / "spatial.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
        )
        assert code == 0
        table = out["accuracy"]
        assert set(table) == {"pose", "spatial", "pose+spatial"}
        assert table["pose+spatial"] >= max(table["pose"], table["spatial"])

    def test_zero_weight_on_every_given_stream_fails_before_any_write(self, tmp_path, capsys):
        self.write_streams(tmp_path)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        code, _, err = run(
            capsys, "fuse", "--pose-scores", str(tmp_path / "pose.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
            "--report", str(tmp_path / "fuse.json"),
            "--weights", "0,1,0",
        )
        assert code == 1
        assert err["error"] == "ValueError"
        assert "weights (0.0, 1.0, 0.0) are zero on every given stream" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("command", ["fuse", "weights-search"])
    @pytest.mark.parametrize("other, message", [
        ("video,class_0,class_1\na,0.1,0.9\nc,0.2,0.8\n",
         "stream 'pose' ({pose}) scores video 'b', which stream 'spatial' ({other}) lacks"),
        ("video,class_0,class_1,class_2\na,0.1,0.8,0.1\nb,0.2,0.7,0.1\n",
         "stream 'spatial' ({other}) has 3 classes, stream 'pose' ({pose}) has 2"),
    ], ids=["videos", "classes"])
    def test_streams_that_differ_fail_naming_both_files(self, tmp_path, capsys, command, other,
                                                        message):
        pose, spatial = tmp_path / "p.csv", tmp_path / "s.csv"
        pose.write_text("video,class_0,class_1\na,0.9,0.1\nb,0.3,0.7\n")
        spatial.write_text(other)
        (tmp_path / "labels.csv").write_text("video,label\na,0\nb,1\nc,1\n")
        inputs = sorted(p.name for p in tmp_path.iterdir())
        outputs = ["--fused-scores", str(tmp_path / "fused.csv")] if command == "fuse" else []
        code, _, err = run(
            capsys, command, "--pose-scores", str(pose), "--spatial-scores", str(spatial),
            "--labels", str(tmp_path / "labels.csv"), "--report", str(tmp_path / "r.json"),
            *outputs,
        )
        assert code == 1
        assert err == {"error": "ValueError", "command": command,
                       "message": message.format(pose=pose, other=spatial)}
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("stream", ["pose", "labels"])
    def test_id_the_writer_cannot_write_back_fails_before_any_write(self, stream, tmp_path,
                                                                     capsys):
        self.write_streams(tmp_path)
        path = tmp_path / f"{stream}.csv"
        path.write_text(path.read_text().replace("v1,", '"v,1",'))
        inputs = sorted(p.name for p in tmp_path.iterdir())
        code, _, err = run(
            capsys, "fuse", "--pose-scores", str(tmp_path / "pose.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
            "--report", str(tmp_path / "fuse.json"),
        )
        assert code == 1
        assert err["message"].startswith(f"{path}:3: video id 'v,1' must not contain ','")
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_subset_with_zero_weights_reads_null(self, tmp_path, capsys):
        self.write_streams(tmp_path)
        code, out, _ = run(
            capsys, "fuse", "--pose-scores", str(tmp_path / "pose.csv"),
            "--spatial-scores", str(tmp_path / "spatial.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
            "--weights", "0,1,1",
        )
        assert code == 0
        assert out["accuracy"] == {"pose": None, "spatial": 1.0, "pose+spatial": 1.0}
        assert out["fused_accuracy"] == 1.0

    def test_subset_overflow_fails_before_any_write(self, tmp_path, capsys):
        # The full sum cancels to 1e308, but pose+temporal alone overflows.
        for name, score in (("pose", "1e308"), ("spatial", "-1e308"), ("temporal", "1e308")):
            (tmp_path / f"{name}.csv").write_text(f"video,class_0,class_1\nv0,{score},0\n")
        (tmp_path / "labels.csv").write_text("video,label\nv0,0\n")
        inputs = sorted(p.name for p in tmp_path.iterdir())
        code, _, err = run(
            capsys, "fuse", *(arg for name in ("pose", "spatial", "temporal")
                              for arg in (f"--{name}-scores", str(tmp_path / f"{name}.csv"))),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
        )
        assert code == 1
        assert "weights (1.0, 0.0, 1.0)" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_a_label_outside_the_classes_fails_naming_the_labels_file(self, tmp_path, capsys):
        self.write_streams(tmp_path)
        labels = tmp_path / "labels.csv"
        labels.write_text("video,label\nv0,0\nv1,1\nv2,7\n")
        code, _, err = run(
            capsys, "fuse", "--pose-scores", str(tmp_path / "pose.csv"),
            "--labels", str(labels), "--fused-scores", str(tmp_path / "fused.csv"),
        )
        assert code == 1
        assert err["message"] == f"{labels}: label 7 of video 'v2' out of range for 2 classes"
        assert not (tmp_path / "fused.csv").exists()

    def test_needs_a_score_file(self, tmp_path, capsys):
        self.write_streams(tmp_path)
        code, _, err = run(
            capsys, "fuse", "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
        )
        assert code == 1
        assert err["message"] == "fusion needs at least one of pose/spatial/temporal score files"
        assert not (tmp_path / "fused.csv").exists()

    def test_needs_labels(self, tmp_path, capsys):
        self.write_streams(tmp_path)
        code, _, err = run(
            capsys, "fuse", "--pose-scores", str(tmp_path / "pose.csv"),
            "--fused-scores", str(tmp_path / "fused.csv"),
        )
        assert code == 1
        assert "labels" in err["message"]


class TestWeightsSearch:
    def test_grid_search_report(self, tmp_path, capsys):
        TestFuse().write_streams(tmp_path)
        code, out, _ = run(
            capsys, "weights-search", "--pose-scores", str(tmp_path / "pose.csv"),
            "--spatial-scores", str(tmp_path / "spatial.csv"),
            "--labels", str(tmp_path / "labels.csv"), "--grid", "0,1",
        )
        assert code == 0
        assert out["best_accuracy"] == 1.0
        assert len(out["candidates"]) == 3  # (0,1), (1,0), (1,1); temporal axis fixed at 0

    def test_a_scored_video_without_a_label_fails_naming_the_labels_file(self, tmp_path,
                                                                         capsys):
        TestFuse().write_streams(tmp_path)
        labels = tmp_path / "labels.csv"
        labels.write_text("video,label\nv0,0\nv1,1\n")
        code, _, err = run(
            capsys, "weights-search", "--pose-scores", str(tmp_path / "pose.csv"),
            "--labels", str(labels), "--report", str(tmp_path / "out.json"),
        )
        assert code == 1
        assert err["message"] == f"{labels}: labels missing for videos: ['v2']"
        assert not (tmp_path / "out.json").exists()

    def test_a_grid_of_zeros_fails_before_any_write(self, tmp_path, capsys):
        TestFuse().write_streams(tmp_path)
        code, _, err = run(
            capsys, "weights-search", "--pose-scores", str(tmp_path / "pose.csv"),
            "--labels", str(tmp_path / "labels.csv"), "--report", str(tmp_path / "out.json"),
            "--grid", "0",
        )
        assert code == 1
        assert err["message"] == "weight grid contains no usable (non-zero) combination"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--grid", "nan,1", "weight_grid"), ("--grid", "0,inf", "weight_grid"),
        ("--weights", "1,nan,1", "weights"),
    ])
    def test_non_finite_weights_rejected_naming_key(self, tmp_path, capsys, flag, value, key):
        TestFuse().write_streams(tmp_path)
        command = "weights-search" if flag == "--grid" else "fuse"
        code, _, err = run(
            capsys, command, "--pose-scores", str(tmp_path / "pose.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores" if command == "fuse" else "--report", str(tmp_path / "out"),
            flag, value,
        )
        assert code == 1
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{key} must be finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, item", [
        ("--grid", "1,,2", "''"), ("--weights", "a,b,c", "'a'"),
        ("--grid", "", "''"), ("--weights", "", "''"),
    ])
    def test_value_that_is_not_numbers_names_flag_and_item(self, tmp_path, capsys, flag,
                                                           value, item):
        TestFuse().write_streams(tmp_path)
        command = "weights-search" if flag == "--grid" else "fuse"
        code, out, err = run(
            capsys, command, "--pose-scores", str(tmp_path / "pose.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores" if command == "fuse" else "--report", str(tmp_path / "out"),
            flag, value,
        )
        assert (code, out) == (1, {})
        assert err["error"] == "CliError"
        assert err["message"].startswith(f"{flag}: {item} is not a number")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fuse", "weights-search"])
    def test_overflowing_weights_named(self, tmp_path, capsys, command):
        TestFuse().write_streams(tmp_path)
        # Both streams score v0 above 0.5, so 1.5e308 on each overflows.
        weights = ("--weights", "1.5e308,1.5e308,0") if command == "fuse" else ("--grid", "1,1.5e308")
        code, _, err = run(
            capsys, command, "--pose-scores", str(tmp_path / "pose.csv"),
            "--spatial-scores", str(tmp_path / "spatial.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--fused-scores" if command == "fuse" else "--report", str(tmp_path / "out"),
            *weights,
        )
        assert code == 1
        assert err["error"] == "ValueError"  # not a numpy RuntimeWarning
        assert "weights (1.5e+308, 1.5e+308, 0.0)" in err["message"]
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_pipeline_rerun_byte_identical_scores(self, tmp_path, capsys):
        """Same config + seed twice: score CSVs must match byte for byte."""
        ann = tmp_path / "ann.jsonl"
        assert main([
            "synth", "--out", str(ann), "--videos-per-class", "4",
            "--frames", "16", "--noise-sigma", "1", "--dropout", "0.1", "--seed", "11",
        ]) == 0
        d = tmp_path / "run"
        d.mkdir()
        outputs = []
        for _ in range(2):  # literally the same config, rerun in place
            assert main([
                "preprocess", "--annotations", str(ann), "--cache", str(d / "c.cache"),
                "--seed", "7",
            ]) == 0
            assert main([
                "train", "--cache", str(d / "c.cache"), "--checkpoint", str(d / "n.ckpt"),
                "--seed", "7", *FAST,
            ]) == 0
            assert main([
                "eval", "--cache", str(d / "c.cache"), "--checkpoint", str(d / "n.ckpt"),
                "--scores", str(d / "s.csv"), "--seed", "7",
            ]) == 0
            outputs.append((d / "s.csv").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def rerun_inputs(tmp_path_factory):
    """A small dropout corpus, the same corpus with a repeated id, and bad models."""
    root = tmp_path_factory.mktemp("rerun")
    ann = root / "ann.jsonl"
    assert main(["synth", "--out", str(ann), "--videos-per-class", "2", "--frames", "10",
                 "--dropout", "0.2", "--seed", "5"]) == 0
    lines = ann.read_text().splitlines()
    (root / "dup.jsonl").write_text("\n".join(lines + [lines[1]]) + "\n")
    (root / "junk.jsonl").write_text("not json\n")
    for defect in ("truncated", "five joints", "penn", "other joint order"):
        _bad_model(root / f"{defect}.npz", defect)
    return root


_FAILED_RUNS = {
    "duplicate id": ("dup.jsonl", ()),
    "no valid records": ("junk.jsonl", ()),
    "truncated model": ("ann.jsonl", ("--spatial-model", "truncated.npz")),
    "five-joint model": ("ann.jsonl", ("--spatial-model", "five joints.npz")),
    "penn model": ("ann.jsonl", ("--spatial-model", "penn.npz")),
    "model of another joint order": ("ann.jsonl", ("--spatial-model", "other joint order.npz")),
}


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else None


class TestRerunAfterFailure:
    @settings(max_examples=15, deadline=None)
    @given(failure=st.sampled_from(sorted(_FAILED_RUNS)), kept=st.booleans(),
           seed=st.integers(0, 3))
    def test_rerun_after_failed_run_is_byte_identical(self, rerun_inputs, failure, kept, seed):
        """A failed preprocess leaves the output directory as it was (the outputs of
        an earlier run, or nothing), and the rerun writes the clean run's bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"

            def preprocess(annotations, *extra):
                return main([
                    "preprocess", "--annotations", str(rerun_inputs / annotations),
                    "--cache", str(out / "c.cache"), "--report", str(out / "r.json"),
                    "--save-spatial-model", str(out / "m.npz"), "--seed", str(seed),
                    *(str(rerun_inputs / a) if a.endswith(".npz") else a for a in extra),
                ])

            assert preprocess("ann.jsonl") == 0
            clean = _snapshot(out)
            assert sorted(clean) == ["c.cache", "m.npz", "r.json"]
            if not kept:
                shutil.rmtree(out)
            before = _snapshot(out)
            annotations, extra = _FAILED_RUNS[failure]
            assert preprocess(annotations, *extra) == 1
            assert _snapshot(out) == before
            assert preprocess("ann.jsonl") == 0
            assert _snapshot(out) == clean


# Each command's argv without its outputs, "{workdir}" standing for the shared
# pipeline's directory, and every output flag the command takes.
_OUTPUT_RUNS = {
    "synth": (["synth", "--videos-per-class", "1", "--frames", "8"], ["out"]),
    "preprocess": (["preprocess", "--annotations", "{workdir}/train.jsonl"],
                   ["cache", "report", "save-spatial-model"]),
    "train": (["train", "--cache", "{workdir}/train.cache", *FAST], ["checkpoint", "trace"]),
    "eval": (["eval", "--cache", "{workdir}/test.cache", "--checkpoint", "{workdir}/net.ckpt"],
             ["scores", "labels", "report"]),
    "fuse": (["fuse", "--pose-scores", "{workdir}/scores.csv",
              "--labels", "{workdir}/labels.csv"], ["fused-scores", "report"]),
    "weights-search": (["weights-search", "--pose-scores", "{workdir}/scores.csv",
                        "--labels", "{workdir}/labels.csv"], ["report"]),
}


class TestOutputsCheckedFirst:
    def argv(self, command, workdir, root, **paths):
        """The command's argv, each output flag under root unless paths names it."""
        inputs, flags = _OUTPUT_RUNS[command]
        argv = [arg.format(workdir=workdir) for arg in inputs]
        for flag in flags:
            argv += [f"--{flag}", str(paths.get(flag, root / f"{flag}.out"))]
        return argv

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in _OUTPUT_RUNS.items() for flag in flags])
    def test_an_output_under_a_file_fails_before_any_write(self, workdir, tmp_path, capsys,
                                                           command, flag):
        (tmp_path / "afile").write_text("a regular file")
        before = _snapshot(tmp_path)
        bad = tmp_path / "afile" / "x.out"
        code, _, err = run(capsys, *self.argv(command, workdir, tmp_path, **{flag: bad}))
        assert code == 1
        assert err["message"] == (f"--{flag}: cannot write {bad}: {tmp_path / 'afile'} "
                                  "is not a directory")
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in _OUTPUT_RUNS.items() for flag in flags])
    def test_an_empty_output_path_fails_naming_the_flag(self, workdir, tmp_path, capsys,
                                                        command, flag):
        before = _snapshot(tmp_path)
        code, out, err = run(capsys, *self.argv(command, workdir, tmp_path, **{flag: ""}))
        assert (code, out) == (1, {})
        assert err["message"] == f"--{flag}: the output path is empty"
        assert _snapshot(tmp_path) == before

    def test_an_empty_path_in_the_config_file_is_refused(self, workdir, tmp_path, capsys):
        (tmp_path / "run.json").write_text('{"scores": "", "annotations": ""}\n')
        before = _snapshot(tmp_path)
        code, _, err = run(capsys, "eval", "--config", str(tmp_path / "run.json"),
                           "--cache", str(workdir / "test.cache"),
                           "--checkpoint", str(workdir / "net.ckpt"))
        assert code == 1
        assert err["message"] == "--scores: the output path is empty"
        code, _, err = run(capsys, "preprocess", "--config", str(tmp_path / "run.json"),
                           "--cache", str(tmp_path / "c.cache"))
        assert code == 1
        assert err["message"] == "--annotations: the input path is empty"
        (tmp_path / "model.json").write_text('{"spatial_model": ""}\n')
        before = _snapshot(tmp_path)
        code, _, err = run(capsys, "preprocess", "--config", str(tmp_path / "model.json"),
                           "--annotations", str(workdir / "train.jsonl"),
                           "--cache", str(tmp_path / "c.cache"))
        assert code == 1
        assert err["message"] == "--spatial-model: the input path is empty"
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("flag, argv", [
        ("spatial-model", ["preprocess", "--annotations", "{workdir}/train.jsonl",
                           "--cache", "{root}/c.cache", "--spatial-model", ""]),
        ("topology-file", ["preprocess", "--annotations", "{workdir}/train.jsonl",
                           "--cache", "{root}/c.cache", "--profile", "custom",
                           "--topology-file", ""]),
        ("config", ["preprocess", "--config", "", "--annotations", "{workdir}/train.jsonl",
                    "--cache", "{root}/c.cache"]),
        ("topology-file", ["train", "--cache", "{workdir}/train.cache", "--checkpoint",
                           "{root}/n.ckpt", "--profile", "custom", "--topology-file", "", *FAST]),
        ("config", ["train", "--config", "", "--cache", "{workdir}/train.cache",
                    "--checkpoint", "{root}/n.ckpt", *FAST]),
        ("checkpoint", ["eval", "--cache", "{workdir}/test.cache", "--checkpoint", "",
                        "--scores", "{root}/s.csv"]),
        ("pose-scores", ["fuse", "--pose-scores", "", "--spatial-scores", "{workdir}/scores.csv",
                         "--labels", "{workdir}/labels.csv", "--fused-scores", "{root}/f.csv"]),
        ("labels", ["weights-search", "--pose-scores", "{workdir}/scores.csv", "--labels", "",
                    "--report", "{root}/r.json"]),
    ], ids=["preprocess-spatial-model", "preprocess-topology-file", "preprocess-config",
            "train-topology-file", "train-config", "eval-checkpoint", "fuse-pose-scores",
            "weights-search-labels"])
    def test_an_empty_input_path_fails_naming_the_flag(self, workdir, tmp_path, capsys,
                                                       flag, argv):
        """An empty input path is refused, not taken as not given (a fresh
        spatial model, a fusion without that stream) nor read as the
        directory "." (a topology or config file)."""
        before = _snapshot(tmp_path)
        code, out, err = run(capsys, *(arg.format(workdir=workdir, root=tmp_path)
                                       for arg in argv))
        assert (code, out) == (1, {})
        assert err["message"] == f"--{flag}: the input path is empty"
        assert _snapshot(tmp_path) == before

    def test_an_output_that_is_a_directory_fails(self, workdir, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        code, _, err = run(capsys, *self.argv("eval", workdir, tmp_path,
                                              report=tmp_path / "dir"))
        assert code == 1
        assert err["message"] == f"--report: cannot write {tmp_path / 'dir'}: it is a directory"
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]

    def test_two_outputs_on_one_path_fail(self, workdir, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        alias = tmp_path / "sub" / ".." / "same.csv"
        code, _, err = run(capsys, *self.argv("fuse", workdir, tmp_path, **{
            "fused-scores": tmp_path / "same.csv", "report": alias}))
        assert code == 1
        assert err["message"] == f"--report: {alias} is also the --fused-scores path"
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_missing_directories_are_made_on_write(self, workdir, tmp_path, capsys):
        code, _, _ = run(capsys, *self.argv("fuse", workdir, tmp_path / "new" / "dirs"))
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "new" / "dirs").iterdir()) == [
            "fused-scores.out", "report.out"]


# Each command with one output on the file of one of its inputs, "{d}" standing
# for a directory that holds copies of the shared pipeline's files.
_OUTPUT_ON_INPUT = {
    "preprocess": (["preprocess", "--annotations", "{d}/train.jsonl",
                    "--cache", "{d}/train.jsonl"], "cache", "annotations"),
    "train": (["train", "--cache", "{d}/train.cache", *FAST,
               "--checkpoint", "{d}/train.cache"], "checkpoint", "cache"),
    "eval": (["eval", "--cache", "{d}/test.cache", "--checkpoint", "{d}/net.ckpt",
              "--scores", "{d}/net.ckpt"], "scores", "checkpoint"),
    "fuse": (["fuse", "--pose-scores", "{d}/scores.csv", "--labels", "{d}/labels.csv",
              "--fused-scores", "{d}/labels.csv"], "fused-scores", "labels"),
    "weights-search": (["weights-search", "--config", "{d}/run.json",
                        "--pose-scores", "{d}/scores.csv", "--labels", "{d}/labels.csv",
                        "--report", "{d}/run.json"], "report", "config"),
}


class TestOutputOnAnInput:
    @pytest.mark.parametrize("command", sorted(_OUTPUT_ON_INPUT))
    def test_fails_naming_both_flags_before_any_write(self, workdir, tmp_path, capsys,
                                                      command):
        for name in ("train.jsonl", "train.cache", "test.cache", "net.ckpt", "scores.csv",
                     "labels.csv"):
            shutil.copy(workdir / name, tmp_path / name)
        (tmp_path / "run.json").write_text('{"seed": 0}\n')
        before = _snapshot(tmp_path)
        argv, output, given = _OUTPUT_ON_INPUT[command]
        code, _, err = run(capsys, *(arg.format(d=tmp_path) for arg in argv))
        assert code == 1
        path = argv[argv.index(f"--{output}") + 1].format(d=tmp_path)
        assert err["message"] == f"--{output}: {path} is also the --{given} path"
        assert _snapshot(tmp_path) == before


class TestAtomicWrite:
    def test_foreign_temp_file_survives(self, tmp_path):
        target = tmp_path / "out.txt"
        foreign = tmp_path / "out.txt.tmp"
        foreign.write_text("someone else's")
        _Outputs(out=target).commit(out=lambda p: p.write_text("mine"))
        assert target.read_text() == "mine"
        assert foreign.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "out.txt.tmp"]

    def test_failed_writer_leaves_nothing(self, tmp_path):
        def broken(p):
            p.write_text("partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            _Outputs(out=tmp_path / "out.txt").commit(out=broken)
        assert list(tmp_path.iterdir()) == []


class TestReportFile:
    @pytest.mark.parametrize("command", ["preprocess", "eval", "fuse", "weights-search"])
    def test_a_report_holds_the_stdout_line(self, workdir, tmp_path, capsys, command):
        # Compact, key-sorted JSON plus a newline, byte for byte.
        TestFuse().write_streams(tmp_path)
        streams = ["--pose-scores", str(tmp_path / "pose.csv"), "--labels",
                   str(tmp_path / "labels.csv"), "--spatial-scores", str(tmp_path / "spatial.csv")]
        argv = {
            "preprocess": ["--annotations", str(workdir / "test.jsonl"),
                           "--cache", str(tmp_path / "test.cache")],
            "eval": ["--cache", str(workdir / "test.cache"), "--checkpoint",
                     str(workdir / "net.ckpt"), "--scores", str(tmp_path / "scores.csv")],
            "fuse": [*streams, "--fused-scores", str(tmp_path / "fused.csv")],
            "weights-search": streams,
        }[command]
        report = tmp_path / "report.json"
        assert main([command, *argv, "--report", str(report)]) == 0
        line = capsys.readouterr().out
        assert line.count("\n") == 1 and report.read_bytes() == line.encode("utf-8")


def _fail_writing(monkeypatch, flag):
    """Make the writer of the output flag write a few bytes and then fail as a
    full disk does; the command's other writers run as they are."""
    commit = _Outputs.commit

    def full(path):
        path.write_bytes(b"partial")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(_Outputs, "commit", lambda self, **writers: commit(
        self, **{**writers, flag.replace("-", "_"): full}))


class TestOutputsCommittedLast:
    """Every output is written to a temp file before any is renamed into
    place, so a failed write leaves the output directory as it was."""

    argv = TestOutputsCheckedFirst.argv

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in _OUTPUT_RUNS.items() for flag in flags])
    def test_a_failed_write_leaves_the_directory_as_it_was(self, workdir, tmp_path, capsys,
                                                           monkeypatch, command, flag):
        for name in _OUTPUT_RUNS[command][1]:
            (tmp_path / f"{name}.out").write_text("an earlier run's output")
        before = _snapshot(tmp_path)
        _fail_writing(monkeypatch, flag)
        code, _, err = run(capsys, *self.argv(command, workdir, tmp_path))
        assert code == 1
        assert err["message"] == (f"--{flag}: cannot write {tmp_path / (flag + '.out')}: "
                                  "No space left on device")
        assert _snapshot(tmp_path) == before

    def test_a_failed_write_makes_no_directory(self, workdir, tmp_path, capsys, monkeypatch):
        _fail_writing(monkeypatch, "report")
        code, _, err = run(capsys, *self.argv("eval", workdir, tmp_path / "new" / "dirs"))
        assert code == 1
        assert err["message"].startswith(f"--report: cannot write {tmp_path / 'new'}")
        assert list(tmp_path.iterdir()) == []

    def test_a_file_too_large_is_named_by_its_flag(self, tmp_path):
        """A real write error: the child process may write files of 64 KiB at most."""
        ann = tmp_path / "ann.jsonl"
        assert main(["synth", "--out", str(ann), "--videos-per-class", "5", "--frames", "40",
                     "--dropout", "0.2", "--seed", "3"]) == 0
        before = _snapshot(tmp_path)
        out = tmp_path / "out"
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536))\n"
                "from posestream import cli\n"
                "print(cli.main(sys.argv[1:]))")
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", code, "preprocess", "--annotations", str(ann),
             "--cache", str(out / "c.cache"), "--report", str(out / "r.json"),
             "--save-spatial-model", str(out / "sm.bin")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert result.stdout.strip() == "1"
        error = json.loads(result.stderr.strip().splitlines()[-1])
        assert error["message"] == f"--cache: cannot write {out / 'c.cache'}: File too large"
        assert _snapshot(tmp_path) == before


class TestConfigHash:
    def test_paths_are_not_settings(self):
        base = PipelineConfig().hash()
        for name in ("annotations", "cache", "spatial_model", "save_spatial_model", "checkpoint",
                     "trace", "scores", "labels", "report", "fused_scores", "pose_scores",
                     "spatial_scores", "temporal_scores"):
            assert PipelineConfig(**{name: "elsewhere"}).hash() == base, name

    @pytest.mark.parametrize("change", [
        {"topology_file": "skeleton.txt"}, {"seed": 1}, {"k": 9}, {"weights": (1, 0, 1)},
    ])
    def test_settings_change_the_hash(self, change):
        assert PipelineConfig(**change).hash() != PipelineConfig().hash()


# Each subcommand's flags as flag -> (dest, type); --no-interpolate sets the
# config key interpolate, which it turns off.
FLAGS = {
    "synth": {
        "--classes": ("classes", None), "--dropout": ("dropout", float),
        "--frames": ("frames", int), "--noise-sigma": ("noise_sigma", float),
        "--out": ("out", None), "--profile": ("profile", None), "--seed": ("seed", int),
        "--videos-per-class": ("videos_per_class", int),
    },
    "preprocess": {
        "--annotations": ("annotations", str), "--cache": ("cache", str),
        "--config": ("config", None), "--max-gap": ("max_gap", int),
        "--no-interpolate": ("interpolate", None),
        "--profile": ("profile", str), "--report": ("report", str),
        "--save-spatial-model": ("save_spatial_model", str), "--seed": ("seed", int),
        "--spatial-model": ("spatial_model", str), "--topology-file": ("topology_file", str),
    },
    "train": {
        "--batch-size": ("batch_size", int), "--cache": ("cache", str),
        "--checkpoint": ("checkpoint", str), "--config": ("config", None),
        "--conv1-channels": ("conv1_channels", int), "--conv2-channels": ("conv2_channels", int),
        "--epochs": ("epochs", int), "--hidden": ("hidden", int), "--k": ("k", int),
        "--learning-rate": ("learning_rate", float), "--profile": ("profile", str),
        "--sampling": ("sampling", str), "--seed": ("seed", int),
        "--topology-file": ("topology_file", str), "--trace": ("trace", str),
    },
    "eval": {
        "--cache": ("cache", str), "--checkpoint": ("checkpoint", str),
        "--config": ("config", None), "--labels": ("labels", str), "--report": ("report", str),
        "--scores": ("scores", str), "--seed": ("seed", int),
    },
    "fuse": {
        "--config": ("config", None), "--fused-scores": ("fused_scores", str),
        "--labels": ("labels", str), "--pose-scores": ("pose_scores", str),
        "--report": ("report", str), "--seed": ("seed", int),
        "--spatial-scores": ("spatial_scores", str), "--temporal-scores": ("temporal_scores", str),
        "--weights": ("weights", None),
    },
    "weights-search": {
        "--config": ("config", None), "--grid": ("grid", None), "--labels": ("labels", str),
        "--pose-scores": ("pose_scores", str), "--report": ("report", str),
        "--seed": ("seed", int), "--spatial-scores": ("spatial_scores", str),
        "--temporal-scores": ("temporal_scores", str),
    },
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"": parser, **action.choices}


class TestCliSurface:
    """The flags come from the settings dataclasses; the surface they make is pinned."""

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_flags_have_their_dest_and_type(self, command):
        actions = _subparsers()[command]._actions
        flags = {a.option_strings[-1]: (a.dest, a.type) for a in actions
                 if a.option_strings and a.dest != "help"}
        assert flags == FLAGS[command]

    def test_help_text_is_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        text = (Path(__file__).parent / "cli_help.txt").read_text("utf-8")
        pinned = {}
        for block in text.split("==== posestream")[1:]:
            title, _, help_text = block.partition("\n")
            pinned[title.strip()] = help_text
        helps = {name: parser.format_help() for name, parser in _subparsers().items()}
        assert helps == pinned

    def test_default_config_hash(self):
        assert PipelineConfig().hash() == "1b04f045d142"

    def test_network_and_training_defaults_are_the_layers(self):
        cfg = PipelineConfig()
        assert cfg.net_spec() == NetSpec()
        assert cfg.train_config() == TrainConfig()

    def test_synth_defaults_are_the_spec_defaults(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "cli.jsonl")]) == 0
        cmd_synth(SyntheticSpec(), tmp_path / "spec.jsonl")
        assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "spec.jsonl").read_bytes()

    @pytest.mark.parametrize("in_file, flag, interpolate", [
        (None, False, True), (None, True, False), ("false", False, False), ("true", True, False),
    ])
    def test_no_interpolate_overrides_the_file_only_when_given(self, tmp_path, in_file, flag,
                                                               interpolate):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text("" if in_file is None else f"interpolate: {in_file}\n")
        args = build_parser().parse_args(
            ["preprocess", "--config", str(cfg_file), *(["--no-interpolate"] if flag else [])])
        assert load_config(args.config, _overrides_from_args(args)).interpolate is interpolate


class TestConfigFile:
    @pytest.mark.parametrize("content, message", [
        (b"seed: [1\nk: 3\n", "not valid YAML"),
        (b"profile: \xff\n", "not UTF-8"),
        (b"seed: abc\n", "seed must be an integer, got 'abc'"),
        (b"weights: 5\n", "weights must be a list of numbers, got 5"),
        (b'epochs: "x"\n', "epochs must be an integer, got 'x'"),
        (b"weights: [1, 2]\n", "weights must be three values"),
        (b"seed: 2020-13-01\n", "not valid YAML: month must be in 1..12"),
        (b"- seed: 1\n- k: 3\n", "config must be a mapping, got list"),
    ], ids=["yaml syntax", "not utf-8", "seed text", "weights scalar", "epochs text",
            "weights length", "bad date", "yaml list"])
    def test_defect_is_value_error_naming_the_file(self, tmp_path, content, message):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_bytes(content)
        with pytest.raises(ValueError, match=message) as exc:
            load_config(cfg_file)
        assert str(exc.value).startswith(f"{cfg_file}: ")
        assert "<unicode string>" not in str(exc.value)

    def test_cli_import_leaves_yaml_unloaded(self):
        """Only a command given --config pays for importing yaml."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, posestream.cli; sys.exit('yaml' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestOrjsonImport:
    """Only commands that decode or encode annotation lines pay for importing orjson."""

    @pytest.mark.parametrize("command, loads", [("eval", False), ("fuse", False),
                                                ("weights-search", False), ("preprocess", True),
                                                ("synth", True)])
    def test_loaded_only_by_commands_reading_annotations(self, workdir, tmp_path, command, loads):
        argv = {
            "eval": ["--cache", workdir / "test.cache", "--checkpoint", workdir / "net.ckpt",
                     "--scores", tmp_path / "s.csv"],
            "fuse": ["--pose-scores", workdir / "scores.csv", "--labels", workdir / "labels.csv",
                     "--fused-scores", tmp_path / "f.csv"],
            "weights-search": ["--pose-scores", workdir / "scores.csv",
                               "--labels", workdir / "labels.csv"],
            "preprocess": ["--annotations", workdir / "test.jsonl", "--cache", tmp_path / "c"],
            "synth": ["--out", tmp_path / "a.jsonl", "--videos-per-class", "1", "--frames", "4"],
        }[command]
        code = ("import sys, posestream.cli\n"
                "assert 'orjson' not in sys.modules\n"
                "assert posestream.cli.main(sys.argv[1:]) == 0\n"
                "sys.exit(30 + ('orjson' in sys.modules))")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", code, command, *map(str, argv)],
                                env=env, capture_output=True)
        assert result.returncode == 30 + loads, result.stderr

    def test_only_preprocess_imports_orjson(self):
        sources = sorted((Path(__file__).resolve().parents[1] / "src" / "posestream").glob("*.py"))
        importers = [path.name for path in sources
                     if any(_imports_orjson(node) for node in ast.walk(ast.parse(path.read_text())))]
        assert importers == ["preprocess.py"]


class TestModuleSets:
    """Each command loads only the package modules it runs: with bytecode
    writing off, every module imported is compiled again on every start."""


    @pytest.mark.parametrize("command, extra", [
        ("--help", []),
        ("fuse", ["fusion"]),
        ("weights-search", ["fusion"]),
        ("synth", ["binio", "preprocess", "skeleton", "synth"]),
        ("preprocess", ["binio", "preprocess", "skeleton", "tensorize"]),
        ("train", ["binio", "convnet", "skeleton", "tensorize"]),
        ("eval", ["binio", "convnet", "fusion", "skeleton", "tensorize"]),
    ])
    def test_command_loads_only_its_layers(self, workdir, tmp_path, command, extra):
        argv = {
            "--help": [],
            "fuse": ["--pose-scores", workdir / "scores.csv", "--labels", workdir / "labels.csv",
                     "--fused-scores", tmp_path / "f.csv"],
            "weights-search": ["--pose-scores", workdir / "scores.csv",
                               "--labels", workdir / "labels.csv"],
            "synth": ["--out", tmp_path / "a.jsonl", "--videos-per-class", "1", "--frames", "4"],
            "preprocess": ["--annotations", workdir / "test.jsonl", "--cache", tmp_path / "c"],
            "train": ["--cache", workdir / "test.cache", "--checkpoint", tmp_path / "n",
                      *FAST],
            "eval": ["--cache", workdir / "test.cache", "--checkpoint", workdir / "net.ckpt",
                     "--scores", tmp_path / "s.csv"],
        }[command]
        code = ("import sys\n"
                "from posestream import cli\n"
                "try:\n"
                "    assert cli.main(sys.argv[1:]) == 0\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('posestream')))")
        loaded = _run_python(code, command, *map(str, argv))
        expected = ["posestream"] + [f"posestream.{name}" for name in ["cli", "config", *extra]]
        assert loaded == str(sorted(expected))

    def test_eval_loads_no_numpy_random(self, workdir, tmp_path):
        """eval's snippet draw is a hash, so scoring needs no generator."""
        code = ("import sys\n"
                "from posestream import cli\n"
                "assert cli.main(sys.argv[1:]) == 0\n"
                "print('numpy.random' in sys.modules)")
        argv = ["eval", "--cache", workdir / "test.cache", "--checkpoint", workdir / "net.ckpt",
                "--scores", tmp_path / "s.csv"]
        assert _run_python(code, *map(str, argv)) == "False"

    def test_package_import_loads_no_submodule(self):
        code = ("import sys, posestream\n"
                "print(sorted(m for m in sys.modules if m.startswith('posestream')))")
        assert _run_python(code) == "['posestream']"


def _run_python(code: str, *argv: str) -> str:
    """The last stdout line of ``code`` run in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def _entry_argv(command, workdir):
    """Each command's argv: inputs from the shared pipeline, every output a
    relative path, so its report reads the same from any directory."""
    pose = ["--pose-scores", str(workdir / "scores.csv"), "--labels", str(workdir / "labels.csv")]
    return [command, *{
        "synth": ["--out", "a.jsonl", "--videos-per-class", "2", "--frames", "8",
                  "--dropout", "0.2", "--seed", "4"],
        "preprocess": ["--annotations", str(workdir / "test.jsonl"), "--cache", "c.cache",
                       "--report", "r.json", "--save-spatial-model", "sm.bin"],
        "train": ["--cache", str(workdir / "train.cache"), "--checkpoint", "n.ckpt",
                  "--trace", "t.csv", *FAST],
        "eval": ["--cache", str(workdir / "test.cache"), "--checkpoint", str(workdir / "net.ckpt"),
                 "--scores", "s.csv", "--labels", "l.csv", "--report", "r.json"],
        "fuse": [*pose, "--fused-scores", "f.csv", "--report", "r.json"],
        "weights-search": [*pose, "--grid", "0.5,1", "--report", "r.json"],
    }[command]]


def _process(*argv, cwd=None, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m posestream.cli`` run on argv in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "posestream.cli", *map(str, argv)], cwd=cwd,
                          env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


class TestProcessEntry:
    """``python -m posestream.cli`` and the ``posestream`` script go through
    ``cli.run``: main's output, exit code and files, then a frozen collector
    at exit. main itself leaves the collector as it found it."""

    def test_main_leaves_the_collector_unfrozen(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = gc.get_freeze_count()
        assert main(_entry_argv("weights-search", workdir)) == 0
        assert main(["preprocess", "--annotations", "missing", "--cache", "c"]) == 1
        with pytest.raises(SystemExit):
            main(["preprocess", "--bogus"])
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("command", ["synth", "preprocess", "train", "eval", "fuse",
                                         "weights-search"])
    def test_the_process_gives_main_s_line_code_and_files(self, workdir, tmp_path, capsys,
                                                           monkeypatch, command):
        argv = _entry_argv(command, workdir)
        inside, child = tmp_path / "inside", tmp_path / "child"
        inside.mkdir(), child.mkdir()
        monkeypatch.chdir(inside)
        code = main(argv)
        captured = capsys.readouterr()
        result = _process(*argv, cwd=child)
        assert (result.returncode, result.stdout, result.stderr) == (code, captured.out, "")
        assert code == 0 and captured.out.count("\n") == 1
        assert _snapshot(child) == _snapshot(inside) and len(_snapshot(inside)) > 0

    @pytest.mark.parametrize("argv, code", [
        (["preprocess", "--bogus"], 2),
        (["frobnicate"], 2),
        (["preprocess", "--annotations", "missing.jsonl", "--cache", "c.cache"], 1),
    ], ids=["unknown flag", "unknown command", "command error"])
    def test_an_error_exits_with_main_s_code_and_json_line(self, tmp_path, capsys, monkeypatch,
                                                           argv, code):
        monkeypatch.chdir(tmp_path)
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        expected = capsys.readouterr().err
        result = _process(*argv, cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (code, "", expected)
        assert expected.count("\n") == 1 and "error" in json.loads(expected)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["synth", "weights-search", "long line", "--help"])
    def test_a_closed_stdout_exits_1_with_one_json_line(self, workdir, tmp_path, command,
                                                        unbuffered):
        """A stdout whose reader is gone: main's print fails (unbuffered, or
        a line longer than the buffer) or the entry's flush does (buffered);
        either way one JSON line, no traceback. argparse ignores a failed
        --help write, so only the buffered --help reaches the entry's flush."""
        if command == "long line":  # 600 rejected lines make a report of about 40 KB
            ann = tmp_path / "ann.jsonl"
            ann.write_text((workdir / "test.jsonl").read_text() + "not json\n" * 600)
            argv = ["preprocess", "--annotations", ann, "--cache", "c.cache"]
        else:
            argv = _entry_argv(command, workdir) if command != "--help" else [command]
        read, write = os.pipe()
        os.close(read)
        try:
            result = _process(*argv, cwd=tmp_path, stdout=write, unbuffered=unbuffered)
        finally:
            os.close(write)
        if command == "--help" and unbuffered:
            assert (result.returncode, result.stderr) == (0, "")
            return
        assert result.returncode == 1, result.stderr
        assert result.stderr.count("\n") == 1, result.stderr
        error = json.loads(result.stderr)
        assert error["error"] == "BrokenPipeError" and "Broken pipe" in error["message"]

    @pytest.mark.parametrize("fd", [1, 2])
    def test_a_stream_closed_from_the_start_is_no_error(self, tmp_path, fd):
        """A process started with fd 1 or 2 closed has ``sys.stdout`` or
        ``sys.stderr`` None; print writes nothing there, and neither does the
        entry."""
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            ["sh", "-c", f'exec "$0" "$@" {fd}>&-', sys.executable, "-m", "posestream.cli",
             "synth", "--out", "a.jsonl", "--videos-per-class", "1", "--frames", "4"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True)
        assert result.returncode == 0, result.stderr
        if fd == 1:
            assert result.stderr == ""
        else:
            assert json.loads(result.stdout)["videos"] == 4
        assert (tmp_path / "a.jsonl").exists()

    @pytest.mark.parametrize("entry", ["module", "script"])
    @pytest.mark.parametrize("argv, code", [
        (["synth", "--out", "a.jsonl", "--videos-per-class", "1", "--frames", "4"], 0),
        (["preprocess", "--annotations", "missing.jsonl", "--cache", "c.cache"], 1),
        (["preprocess", "--bogus"], 2),
    ], ids=["success", "command error", "usage error"])
    def test_every_exit_path_freezes_the_collector(self, tmp_path, entry, argv, code):
        """The ``__main__`` block as ``-m`` runs it, and the console script
        that ``pyproject.toml`` names, as its generated wrapper calls it."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["posestream"]
        start = {
            "module": "runpy.run_module('posestream.cli', run_name='__main__', alter_sys=True)",
            "script": f"module, _, name = {target!r}.partition(':')\n"
                      "sys.exit(getattr(importlib.import_module(module), name)())",
        }[entry]
        program = ("import atexit, gc, importlib, runpy, sys\n"
                   "assert gc.get_freeze_count() == 0\n"
                   "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                   + start)
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run([sys.executable, "-c", program, *argv], cwd=tmp_path,
                                env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                                text=True)
        assert result.returncode == code, result.stderr
        assert result.stdout.splitlines()[-1] == "frozen True"


def _imports_orjson(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "orjson" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orjson"


class TestConfigValues:
    """A setting out of range fails where it enters, from a config file or a
    flag, naming the key (and the file), before anything is read or written."""

    @pytest.mark.parametrize("key, value", [
        ("conv1_channels", 0), ("conv2_channels", 0), ("hidden", 0), ("learning_rate", -1),
        ("epochs", -1), ("batch_size", 0), ("k", 0), ("sampling", "foo"), ("max_gap", -1),
        ("seed", -1),
    ])
    @pytest.mark.parametrize("via", ["file", "flag"])
    def test_rejected_naming_the_key(self, workdir, tmp_path, capsys, key, value, via):
        if key == "max_gap":
            argv = ["preprocess", "--annotations", str(workdir / "train.jsonl"),
                    "--cache", str(tmp_path / "out.cache")]
        else:
            argv = ["train", "--cache", str(workdir / "train.cache"),
                    "--checkpoint", str(tmp_path / "n.ckpt"), "--trace", str(tmp_path / "t.csv")]
        if via == "file":
            source = tmp_path / "cfg.yaml"
            source.write_text(f"{key}: {value}\n")
            argv += ["--config", str(source)]
            prefix = f"{source}: {key} must be "
        else:
            argv.append(f"--{key.replace('_', '-')}={value}")
            prefix = f"{key} must be "
        before = sorted(tmp_path.iterdir())
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err["error"] == "ValueError" and err["message"].startswith(prefix), err
        assert sorted(tmp_path.iterdir()) == before


class TestUsageErrors:
    @pytest.mark.parametrize("command, flag", [
        ("preprocess", "--sequences=x"), ("preprocess", "--k=10"),
        ("preprocess", "--sampling=center"), ("preprocess", "--poly-degree=1"),
        ("train", "--sequences=x"), ("train", "--no-resample"), ("train", "--weight-decay=0.1"),
    ])
    def test_removed_flags_are_usage_errors(self, command, flag, capsys):
        paths = {"preprocess": ["--annotations", "a"], "train": ["--checkpoint", "n"]}
        with pytest.raises(SystemExit) as exc:
            main([command, "--cache", "c", *paths[command], flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_unknown_command_exits_2_with_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text("k: 15\nseed: 3\nsampling: center\n")
        assert main([
            "synth", "--out", str(tmp_path / "a.jsonl"), "--videos-per-class", "2",
            "--frames", "12", "--seed", "3",
        ]) == 0
        code, out, _ = run(
            capsys, "preprocess", "--config", str(cfg_file),
            "--annotations", str(tmp_path / "a.jsonl"),
            "--cache", str(tmp_path / "a.cache"), "--seed", "9",
        )
        assert code == 0
        assert out["seed"] == 9  # flag beats file

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text("snippets: 15\n")
        code, _, err = run(
            capsys, "preprocess", "--config", str(cfg_file),
            "--annotations", "x", "--cache", "y",
        )
        assert code == 1
        assert "unknown config keys" in err["message"]
