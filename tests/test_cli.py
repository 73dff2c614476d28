"""CLI command tests: composition, validation, determinism, error JSON."""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posestream.cli import _atomic_write, main
from posestream.config import PipelineConfig
from posestream.convnet import init_net, load_checkpoint, NetSpec
from posestream.fusion import read_scores
from posestream.preprocess import SpatialModel
from posestream.skeleton import build_topology
from posestream.tensorize import read_corpus

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
        assert (full.coords[12:14] == 0.0).all() and (full.flags[12:14] == 4).all()
        rows = np.r_[0:12, 14:26]
        assert full.coords[rows].tobytes() == kept.coords.tobytes()
        assert full.flags[rows].tobytes() == kept.flags.tobytes()

    def test_over_deep_line_rejected(self, tmp_path, capsys):
        # json.loads raises RecursionError, not JSONDecodeError, past its nesting limit.
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
        error = "frame 0 joint 3 has an integer coordinate outside the float64 range"
        assert out["rejected"] == [{"line": 2, "error": error}, {"line": 3, "error": error}]
        assert read_corpus(tmp_path / "c.cache").videos[0] == "a"

    @pytest.mark.parametrize("defect", ["truncated", "five joints", "penn", "degree two"])
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
        if defect == "degree two":
            assert "degree 2, but --poly-degree is 1" in err["message"]
        assert not out.exists()


def _bad_model(path, defect):
    if defect == "penn":
        model = SpatialModel("penn", 1, np.zeros((13, 13, 3, 2)), np.zeros((13, 13), bool))
    elif defect == "degree two":
        model = SpatialModel("jhmdb_gt", 2, np.zeros((15, 15, 6, 2)), np.zeros((15, 15), bool))
    else:
        model = SpatialModel("jhmdb_gt", 1, np.zeros((5, 5, 3, 2)), np.zeros((5, 5), bool))
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
        fresh = init_net(
            (15, 2 * len(read_corpus(workdir / "train.cache").path), 3), num_classes=4, seed=5,
            arch=NetSpec(conv1_channels=4, conv2_channels=6, hidden=16),
        )
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
    for defect in ("truncated", "five joints", "penn", "degree two"):
        _bad_model(root / f"{defect}.npz", defect)
    return root


_FAILED_RUNS = {
    "duplicate id": ("dup.jsonl", ()),
    "no valid records": ("junk.jsonl", ()),
    "truncated model": ("ann.jsonl", ("--spatial-model", "truncated.npz")),
    "five-joint model": ("ann.jsonl", ("--spatial-model", "five joints.npz")),
    "penn model": ("ann.jsonl", ("--spatial-model", "penn.npz")),
    "model of another degree": ("ann.jsonl", ("--spatial-model", "degree two.npz")),
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


class TestAtomicWrite:
    def test_foreign_temp_file_survives(self, tmp_path):
        target = tmp_path / "out.txt"
        foreign = tmp_path / "out.txt.tmp"
        foreign.write_text("someone else's")
        _atomic_write(target, lambda p: p.write_text("mine"))
        assert target.read_text() == "mine"
        assert foreign.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "out.txt.tmp"]

    def test_failed_writer_leaves_nothing(self, tmp_path):
        def broken(p):
            p.write_text("partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            _atomic_write(tmp_path / "out.txt", broken)
        assert list(tmp_path.iterdir()) == []


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


class TestUsageErrors:
    @pytest.mark.parametrize("command, flag", [
        ("preprocess", "--sequences=x"), ("preprocess", "--k=10"),
        ("preprocess", "--sampling=center"), ("train", "--sequences=x"),
        ("train", "--no-resample"),
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
