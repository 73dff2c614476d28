"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criteria 7, 8, and 10 train real models on the synthetic corpus and
together take a couple of minutes of CPU.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest
from conftest import assert_kink_free

from posestream.cli import main
from posestream.config import PipelineConfig
from posestream.cli import cmd_eval, cmd_preprocess, cmd_synth, cmd_train
from posestream.convnet import NetSpec, backward, init_net, _loss_and_grads
from posestream.fusion import StreamScores, evaluate, fuse
from posestream.preprocess import (
    PoseCorpus,
    fit_spatial_model,
    normalize,
    spatial_interpolate,
    temporal_interpolate,
)
from posestream.skeleton import build_topology, euler_tour, make_topology
from posestream.synth import SyntheticSpec
from posestream.tensorize import FilledCorpus, corpus_tensors

JHMDB = build_topology("jhmdb_gt")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def random_tree(rng, n):
    names = [f"j{i}" for i in range(n)]
    edges = [(names[int(rng.integers(0, i))], names[i]) for i in range(1, n)]
    return make_topology(
        name=f"random{n}",
        joint_names=names,
        edges=edges,
        root=names[0],
        parts={nm: 1 + (i % 5) for i, nm in enumerate(names)},
        torso=(names[0], names[1]),
    )


def test_criterion_1_euler_tour_suite():
    with criterion(1, "1000 random trees: tour length 2n-1, root-bounded, edges twice, < 5 s"):
        rng = np.random.default_rng(12345)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(2, 21))
            topo = random_tree(rng, n)
            tour = euler_tour(topo).joints
            assert len(tour) == 2 * n - 1
            assert tour[0] == tour[-1] == topo.root
            counts: dict[frozenset, int] = {}
            edge_set = {frozenset(e) for e in topo.edges}
            for a, b in zip(tour, tour[1:]):
                step = frozenset((a, b))
                assert step in edge_set
                counts[step] = counts.get(step, 0) + 1
            assert len(counts) == len(edge_set)
            assert all(c == 2 for c in counts.values())
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"euler tour suite took {elapsed:.2f}s"


def test_criterion_2_tensor_shapes():
    with criterion(2, "profiles n=15/14/13, K=15 -> tensors 15x58x3 / 15x54x3 / 15x50x3"):
        rng = np.random.default_rng(0)
        expected = {"jhmdb_gt": (15, 58, 3), "estimated_14": (15, 54, 3), "penn": (15, 50, 3)}
        for profile, shape in expected.items():
            topo = build_topology(profile)
            coords = rng.uniform(0, 100, size=(40, topo.n, 2))
            pose = ("v", coords, np.ones((40, topo.n), np.uint8), 0)
            corpus = FilledCorpus(**vars(PoseCorpus.of([pose])), path=euler_tour(topo), seed=0,
                                  config_hash="")
            data, _ = corpus_tensors(corpus, k=15, mode="random", seed=1)
            assert data.shape == (1, *shape)


def test_criterion_3_normalization_invariance():
    with criterion(3, "1000 poses x similarity transforms equal within 1e-9; torso unit/centered"):
        rng = np.random.default_rng(777)
        neck_idx, belly_idx = JHMDB.torso_anchors
        for _ in range(1000):
            coords = rng.uniform(0.0, 200.0, size=(1, 15, 2))
            vis = np.ones((1, 15), np.uint8)
            pose = ("v", coords, vis, -1)
            scale = float(rng.uniform(0.1, 10.0))
            shift = rng.uniform(-1e3, 1e3, size=2)
            moved = ("v", coords * scale + shift, vis, -1)
            a = normalize(PoseCorpus.of([pose]), JHMDB)
            b = normalize(PoseCorpus.of([moved]), JHMDB)
            assert np.allclose(a.coords, b.coords, rtol=0.0, atol=1e-9)
            anchor_a = b.coords[0, list(neck_idx)].mean(axis=0)
            anchor_b = b.coords[0, list(belly_idx)].mean(axis=0)
            assert abs(np.linalg.norm(anchor_a - anchor_b) - 1.0) <= 1e-9
            assert np.all(np.abs((anchor_a + anchor_b) / 2.0) <= 1e-9)


def test_criterion_4_temporal_exactness():
    with criterion(4, "linear motion gaps <= max_gap recovered within 1e-9; visible untouched"):
        rng = np.random.default_rng(4242)
        max_gap = 10
        for _ in range(200):
            frames, joints = 60, 4
            starts = rng.uniform(-50, 50, size=(joints, 2))
            velocities = rng.uniform(-3, 3, size=(joints, 2))
            t = np.arange(frames)[:, None, None]
            coords = starts + velocities * t
            vis = np.ones((frames, joints), dtype=np.uint8)
            for j in range(joints):
                for _ in range(3):
                    gap = int(rng.integers(1, max_gap + 1))
                    lo = int(rng.integers(1, frames - gap - 1))
                    vis[lo:lo + gap, j] = 0
            pose = ("v", coords.copy(), vis.copy(), -1)
            out = temporal_interpolate(PoseCorpus.of([pose]), max_gap=max_gap)
            visible = vis > 0
            assert np.array_equal(out.coords[visible], coords[visible])
            filled = (vis == 0) & (out.flags > 0)
            assert np.allclose(out.coords[filled], coords[filled], rtol=0.0, atol=1e-9)


def affine_corpus(family_seed, latent_seed, num_frames):
    """Joints as exact affine functions of a 2-D latent.

    The family (per-joint matrices and offsets) fixes the inter-joint
    relations; fresh latents give new poses from the same family, which is
    what "corpus-consistent" means for the knockout check.
    """
    rng = np.random.default_rng(family_seed)
    n = JHMDB.n
    while True:
        mats = rng.uniform(-1.0, 1.0, size=(n, 2, 2))
        if np.all(np.abs(np.linalg.det(mats)) > 0.2):
            break
    offsets = rng.uniform(-1.0, 1.0, size=(n, 2))
    latents = np.random.default_rng(latent_seed).uniform(-2.0, 2.0, size=(num_frames, 2))
    coords = np.einsum("njk,tk->tnj", mats, latents) + offsets
    return PoseCorpus.of([("affine", coords, np.ones((num_frames, n), np.uint8), 0)])


def test_criterion_5_spatial_model_recovery():
    with criterion(5, "exact affine corpus: fit residual < 1e-6, knocked-out joints refilled < 1e-6"):
        corpus = affine_corpus(family_seed=9, latent_seed=1, num_frames=120)
        model = fit_spatial_model(corpus, JHMDB, degree=1)
        coords = corpus.coords
        worst_fit = 0.0
        for s in range(JHMDB.n):
            for t in range(JHMDB.n):
                if s == t:
                    continue
                preds = np.array([model.predict(s, t, coords[f, s]) for f in range(20)])
                worst_fit = max(worst_fit, float(np.abs(preds - coords[:20, t]).max()))
        assert worst_fit < 1e-6, f"fit residual {worst_fit:.2e}"

        probe = affine_corpus(family_seed=9, latent_seed=2, num_frames=8)
        worst_fill = 0.0
        for victim in range(JHMDB.n):
            vis = probe.flags.copy()
            vis[:, victim] = 0
            broken = PoseCorpus.of([("p", probe.coords.copy(), vis, -1)])
            out = spatial_interpolate(broken, model, JHMDB)
            worst_fill = max(
                worst_fill, float(np.abs(out.coords[:, victim] - probe.coords[:, victim]).max())
            )
        assert worst_fill < 1e-6, f"refill error {worst_fill:.2e}"


def test_criterion_6_gradient_check():
    with criterion(6, "all parameters: |analytic - central FD| relative error < 1e-4, < 60 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(55)
        net = init_net((8, 10, 3), num_classes=3, seed=66,
                       arch=NetSpec(conv1_channels=3, conv2_channels=4, hidden=8))
        x = rng.normal(size=(2, 8, 10, 3))
        labels = np.array([0, 2])
        assert_kink_free(net, x, h=1e-4)
        analytic = backward(net, x, labels)

        h = 1e-4
        worst = 0.0
        for name, param in net.parameters().items():
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                saved = param[idx]
                param[idx] = saved + h
                plus, _, _ = _loss_and_grads(net, x, labels)
                param[idx] = saved - h
                minus, _, _ = _loss_and_grads(net, x, labels)
                param[idx] = saved
                numeric = (plus - minus) / (2.0 * h)
                rel = abs(analytic[name][idx] - numeric) / max(1.0, abs(analytic[name][idx]))
                worst = max(worst, rel)
                it.iternext()
        elapsed = time.perf_counter() - start
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Trained-pipeline criteria (7, 8): shared corpus and runs
# ---------------------------------------------------------------------------

VPC_TRAIN, VPC_TEST, FRAMES, SIGMA = 200, 40, 40, 1.5


def _pipeline(root, tag, train_ann, test_ann, interpolate):
    """preprocess -> train -> eval; returns (test accuracy, train CPU seconds)."""
    common = dict(
        seed=0, interpolate=interpolate,
        conv1_channels=8, conv2_channels=16, hidden=64,
        learning_rate=0.05, epochs=12, batch_size=64,
    )
    cfg = PipelineConfig(
        annotations=str(train_ann), cache=str(root / f"{tag}.cache"),
        checkpoint=str(root / f"{tag}.ckpt"), trace=str(root / f"{tag}.trace.csv"), **common,
    )
    cmd_preprocess(cfg)
    cpu0 = time.process_time()
    cmd_train(cfg)
    train_cpu = time.process_time() - cpu0
    cfg_test = PipelineConfig(
        annotations=str(test_ann), cache=str(root / f"{tag}.test.cache"),
        checkpoint=str(root / f"{tag}.ckpt"), scores=str(root / f"{tag}.scores.csv"),
        labels=str(root / f"{tag}.labels.csv"), **common,
    )
    cmd_preprocess(cfg_test)
    return cmd_eval(cfg_test)["accuracy"], train_cpu


@pytest.fixture(scope="module")
def synthetic_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    annotations = {}
    for name, seed, vpc, dropout in [
        ("clean_train", 101, VPC_TRAIN, 0.0),
        ("clean_test", 202, VPC_TEST, 0.0),
        ("drop_train", 101, VPC_TRAIN, 0.2),
        ("drop_test", 202, VPC_TEST, 0.2),
    ]:
        path = root / f"{name}.jsonl"
        spec = SyntheticSpec(
            videos_per_class=vpc, frames=FRAMES, noise_sigma=SIGMA, dropout=dropout, seed=seed
        )
        cmd_synth(spec, path)
        annotations[name] = path

    runs = {}
    runs["clean"] = _pipeline(root, "clean", annotations["clean_train"],
                              annotations["clean_test"], interpolate=True)
    runs["interp"] = _pipeline(root, "interp", annotations["drop_train"],
                               annotations["drop_test"], interpolate=True)
    runs["zerofill"] = _pipeline(root, "zerofill", annotations["drop_train"],
                                 annotations["drop_test"], interpolate=False)
    return runs


def test_criterion_7_synthetic_end_to_end(synthetic_runs):
    with criterion(7, "4-class synthetic corpus (200/class, sigma 1.5): test accuracy >= 0.90, "
                      "< 5 CPU-minutes of training"):
        accuracy, train_cpu = synthetic_runs["clean"]
        assert accuracy >= 0.90, f"test accuracy {accuracy:.3f}"
        assert train_cpu < 300.0, f"training took {train_cpu:.0f} CPU-seconds"
        print(f"  [clean run: test accuracy {accuracy:.3f}, {train_cpu:.0f}s CPU train]")


def test_criterion_8_interpolation_robustness(synthetic_runs):
    with criterion(8, "20% dropout: interpolated within 10 points of clean and above zero-fill"):
        clean, _ = synthetic_runs["clean"]
        interp, _ = synthetic_runs["interp"]
        zerofill, _ = synthetic_runs["zerofill"]
        assert interp >= clean - 0.10, f"interpolated {interp:.3f} vs clean {clean:.3f}"
        assert interp > zerofill, f"interpolated {interp:.3f} vs zero-fill {zerofill:.3f}"
        print(f"  [clean {clean:.3f} | interpolated {interp:.3f} | zero-fill {zerofill:.3f}]")


def test_criterion_9_fusion_improvement():
    with criterion(9, "disjoint-confusion streams, weights (1,1,1): fused >= each stream; "
                      "rescaling keeps argmax"):
        classes, per_class = 6, 20
        labels = {f"v{c}_{i}": c for c in range(classes) for i in range(per_class)}
        confusions = {"pose": (0, 1), "spatial": (2, 3), "temporal": (4, 5)}

        def build(name):
            pair = confusions[name]
            videos = tuple(sorted(labels))
            matrix = np.full((len(videos), classes), 0.02)
            for row, video in zip(matrix, videos):
                label = labels[video]
                if label in pair:
                    row[list(pair)] = 0.5  # exact tie inside the confused pair
                else:
                    row[label] = 0.9
            return StreamScores(stream=name, videos=videos, matrix=matrix)

        streams = {name: build(name) for name in confusions}
        solo = {name: evaluate(s, labels).accuracy for name, s in streams.items()}
        fused = fuse(streams, (1.0, 1.0, 1.0))
        fused_accuracy = evaluate(fused, labels).accuracy
        for name, accuracy in solo.items():
            assert fused_accuracy >= accuracy, f"fused {fused_accuracy} < {name} {accuracy}"

        base_pred = {v: int(np.argmax(s)) for v, s in fused.scores.items()}
        for c in (0.1, 2.0, 25.0):
            scaled = fuse(streams, (c, c, c))
            for video, vec in scaled.scores.items():
                assert int(np.argmax(vec)) == base_pred[video]
        print(f"  [solo {sorted(solo.values())} -> fused {fused_accuracy:.3f}]")


def quiet_main(argv):
    with redirect_stdout(io.StringIO()):
        return main(argv)


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "preprocess->train->eval->fuse twice, same config: byte-identical CSVs"):
        ann = tmp_path / "ann.jsonl"
        assert quiet_main([
            "synth", "--out", str(ann), "--videos-per-class", "6", "--frames", "16",
            "--noise-sigma", "1", "--dropout", "0.1", "--seed", "13",
        ]) == 0
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        score_bytes, fused_bytes = [], []
        for _ in range(2):
            assert quiet_main([
                "preprocess", "--annotations", str(ann),
                "--cache", str(run_dir / "c.cache"), "--seed", "3",
            ]) == 0
            assert quiet_main([
                "train", "--cache", str(run_dir / "c.cache"),
                "--checkpoint", str(run_dir / "n.ckpt"), "--seed", "3",
                "--conv1-channels", "4", "--conv2-channels", "6", "--hidden", "16",
                "--epochs", "2", "--batch-size", "8",
            ]) == 0
            assert quiet_main([
                "eval", "--cache", str(run_dir / "c.cache"),
                "--checkpoint", str(run_dir / "n.ckpt"),
                "--scores", str(run_dir / "s.csv"), "--labels", str(run_dir / "l.csv"),
                "--seed", "3",
            ]) == 0
            assert quiet_main([
                "fuse", "--pose-scores", str(run_dir / "s.csv"),
                "--labels", str(run_dir / "l.csv"),
                "--fused-scores", str(run_dir / "f.csv"), "--weights", "1,0,0", "--seed", "3",
            ]) == 0
            score_bytes.append((run_dir / "s.csv").read_bytes())
            fused_bytes.append((run_dir / "f.csv").read_bytes())
        assert score_bytes[0] == score_bytes[1]
        assert fused_bytes[0] == fused_bytes[1]
