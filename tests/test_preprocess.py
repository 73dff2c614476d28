"""Normalization, interpolation, and annotation I/O tests."""

import ast
import copy
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import preprocess_reference as reference
from conftest import topology, write_raw
from posestream import preprocess
from posestream.cli import cmd_preprocess, main
from posestream.config import PipelineConfig, is_video_id
from posestream.fusion import StreamScores, read_labels, read_scores, write_labels, write_scores

from posestream.preprocess import (
    MODEL_FILE,
    AnnotationError,
    PoseCorpus,
    SpatialModel,
    VIS_MISSING,
    VIS_SPATIAL,
    VIS_SYNTHETIC,
    VIS_TEMPORAL,
    fit_spatial_model,
    normalize,
    pose_from_record,
    iter_annotation_lines,
    parse_annotation_line,
    spatial_interpolate,
    temporal_interpolate,
    write_annotations,
    zero_fill,
)
from posestream.skeleton import build_topology

JHMDB = build_topology("jhmdb_gt")


def simple_topology():
    """Three joints: neck, belly (torso), wrist (part 1)."""
    return topology("n=3 root=neck torso=neck,belly\nneck belly part=5\nneck wrist part=1\n",
                    "tiny")


def random_pose(rng, n=15, frames=5, lo=0.0, hi=200.0):
    coords = rng.uniform(lo, hi, size=(frames, n, 2))
    vis = np.ones((frames, n), dtype=np.uint8)
    return reference.Pose("v", coords, vis, 0)


def one_video(coords, vis=None, video="v"):
    """A one-video corpus; every joint filled unless vis says otherwise."""
    coords = np.asarray(coords, dtype=np.float64)
    vis = np.ones(coords.shape[:2], np.uint8) if vis is None else vis
    return PoseCorpus.of([reference.Pose(video, coords, vis, 0)])


def read_records(path, n_expected=None):
    """Every record of an annotation file, through the reader preprocess uses."""
    poses = (parse_annotation_line(line, n_expected) for _, line in iter_annotation_lines(path))
    return [reference.Pose(*pose) for pose in poses if pose is not None]


def preprocess_file(tmp_path, lines):
    """The preprocess report for an annotation file of the given lines."""
    path = tmp_path / "ann.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return cmd_preprocess(PipelineConfig(annotations=str(path), cache=str(tmp_path / "c.cache")))


def record_line(video):
    """A valid one-frame jhmdb_gt record."""
    return json.dumps({"video": video, "n": 15, "frames": [[[0, j, 1] for j in range(15)]]})


class TestNormalize:
    def test_hand_example(self):
        # neck=(0,0), belly=(0,2), wrist=(2,2): torso length 2, so the
        # scaled pose has the torso midpoint at (0, 0.5).
        topo = simple_topology()
        out = normalize(one_video([[[0.0, 0.0], [0.0, 2.0], [2.0, 2.0]]]), topo)
        np.testing.assert_allclose(out.coords[0, 0], [0.0, -0.5])
        np.testing.assert_allclose(out.coords[0, 1], [0.0, 0.5])
        np.testing.assert_allclose(out.coords[0, 2], [1.0, 0.5])
        assert (out.flags[0] > 0).all()

    def test_overflow_rejected_naming_video(self):
        # A torso of 1e-5 scales a joint at 1e304 past the float64 range: that
        # frame is unusable like a degenerate torso, and the next one is kept.
        coords = np.array([[[0.0, 0.0], [0.0, 1e-5], [1e304, 0.0]],
                           [[0.0, 0.0], [0.0, 2.0], [2.0, 2.0]]])
        with np.errstate(all="raise"):
            out = normalize(one_video(coords, video="clip"), simple_topology())
        assert (out.flags[0] == VIS_MISSING).all() and (out.coords[0] == 0.0).all()
        np.testing.assert_allclose(out.coords[1, 2], [1.0, 0.5])

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_coordinate_layout_keeps_the_bits(self, layout):
        """normalize reads each (x, y) pair as one complex128; a corpus whose
        coordinates are not C-ordered gives the same bits. Frame 0 overflows
        over a 1e-5 torso, and frame 2's missing wrist holds inf."""
        coords = np.array([[[0.0, 0.0], [0.0, 1e-5], [1e304, 0.0]],
                           [[0.0, 0.0], [0.0, 2.0], [2.0, 2.0]],
                           [[0.0, 0.0], [0.0, 2.0], [np.inf, 1.0]]])
        vis = np.array([[1, 1, 1], [1, 1, 1], [1, 1, 0]], dtype=np.uint8)
        corpus = one_video(coords, vis)
        other = (np.asfortranarray(corpus.coords) if layout == "fortran"
                 else np.repeat(corpus.coords, 2, axis=2)[..., ::2])
        assert not other.flags["C_CONTIGUOUS"]
        topo = simple_topology()
        expected = normalize(corpus, topo)
        out = normalize(replace(corpus, coords=other), topo)
        assert out.coords.tobytes() == expected.coords.tobytes()
        np.testing.assert_array_equal(out.flags, expected.flags)
        np.testing.assert_array_equal(expected.flags, [[0, 0, 0], [1, 1, 1], [1, 1, 0]])

    def test_joint_beyond_the_radius_is_demoted(self):
        # Torso length 2 centered on (0, 1): the wrist lies 10.1 torso lengths
        # from the center in frame 0, past PLAUSIBLE_RADIUS, and 9.9 in frame 1.
        coords = np.array([[[0.0, 0.0], [0.0, 2.0], [20.2, 1.0]],
                           [[0.0, 0.0], [0.0, 2.0], [19.8, 1.0]]])
        out = normalize(one_video(coords), simple_topology())
        assert out.flags[0, 2] == VIS_MISSING and (out.coords[0, 2] == 0.0).all()
        np.testing.assert_allclose(out.coords[1, 2], [9.9, 0.0])
        assert np.count_nonzero(out.flags) == 5

    def test_already_normalized_is_identity(self):
        topo = simple_topology()
        coords = np.array([[[0.0, -0.5], [0.0, 0.5], [1.0, 0.5]]])
        out = normalize(one_video(coords), topo)
        np.testing.assert_allclose(out.coords, coords, atol=1e-15)

    def test_torso_length_one_and_centered(self):
        rng = np.random.default_rng(0)
        pose = random_pose(rng)
        out = normalize(PoseCorpus.of([pose]), JHMDB)
        neck, belly = JHMDB.torso_anchors
        for t in range(pose.num_frames):
            a = out.coords[t, list(neck)].mean(axis=0)
            b = out.coords[t, list(belly)].mean(axis=0)
            assert abs(np.linalg.norm(a - b) - 1.0) < 1e-9
            np.testing.assert_allclose((a + b) / 2, [0.0, 0.0], atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(0.1, 10.0),
        tx=st.floats(-1e3, 1e3),
        ty=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_similarity_invariance(self, scale, tx, ty, seed):
        # Uniform scaling plus translation must not change the result.
        rng = np.random.default_rng(seed)
        pose = random_pose(rng, frames=3)
        moved = reference.Pose("v", pose.coords * scale + np.array([tx, ty]), pose.flags)
        a = normalize(PoseCorpus.of([pose]), JHMDB)
        b = normalize(PoseCorpus.of([moved]), JHMDB)
        np.testing.assert_allclose(a.coords, b.coords, atol=1e-9)

    def test_missing_joint_left_untouched(self):
        topo = simple_topology()
        coords = np.array([[[0.0, 0.0], [0.0, 2.0], [123.0, 456.0]]])
        vis = np.array([[1, 1, 0]], dtype=np.uint8)
        out = normalize(one_video(coords, vis), topo)
        np.testing.assert_allclose(out.coords[0, 2], [123.0, 456.0])
        assert out.flags[0, 2] == VIS_MISSING

    def test_degenerate_torso_flagged_unusable(self):
        topo = simple_topology()
        out = normalize(one_video(np.zeros((1, 3, 2))), topo)
        assert (out.flags[0] == VIS_MISSING).all()

    def test_missing_torso_flagged_unusable(self):
        topo = simple_topology()
        coords = np.array([[[0.0, 0.0], [0.0, 2.0], [1.0, 1.0]]])
        vis = np.array([[1, 0, 1]], dtype=np.uint8)
        out = normalize(one_video(coords, vis), topo)
        assert (out.flags[0] == VIS_MISSING).all()

    def test_midpoint_proxy_anchor(self):
        # Penn has no belly; the head-to-hip-midpoint distance becomes 1.
        topo = build_topology("penn")
        rng = np.random.default_rng(1)
        pose = random_pose(rng, n=13, frames=2)
        out = normalize(PoseCorpus.of([pose]), topo)
        head = out.coords[:, topo.joint_names.index("head")]
        hips = out.coords[:, [topo.joint_names.index("l_hip"),
                              topo.joint_names.index("r_hip")]].mean(axis=1)
        np.testing.assert_allclose(np.linalg.norm(head - hips, axis=1), 1.0, atol=1e-9)


class TestTemporalInterpolate:
    def make(self, vis_pattern, coords_fn):
        frames = len(vis_pattern)
        coords = np.zeros((frames, 1, 2))
        for t in range(frames):
            coords[t, 0] = coords_fn(t) if vis_pattern[t] else (0.0, 0.0)
        vis = np.array(vis_pattern, dtype=np.uint8)[:, None]
        return one_video(coords, vis)

    def test_linear_midpoint(self):
        # Visible at t=0 as (0,0) and t=4 as (4,8); t=2 must become (2,4).
        pose = self.make([1, 0, 0, 0, 1], lambda t: (float(t), 2.0 * t))
        out = temporal_interpolate(pose, max_gap=10)
        np.testing.assert_allclose(out.coords[2, 0], [2.0, 4.0])
        np.testing.assert_allclose(out.coords[1, 0], [1.0, 2.0])
        np.testing.assert_allclose(out.coords[3, 0], [3.0, 6.0])
        assert (out.flags[1:4, 0] == VIS_TEMPORAL).all()

    def test_fully_visible_unchanged(self):
        pose = self.make([1] * 6, lambda t: (t, -t))
        out = temporal_interpolate(pose)
        np.testing.assert_array_equal(out.coords, pose.coords)
        np.testing.assert_array_equal(out.flags, pose.flags)

    def test_boundary_run_not_filled(self):
        pose = self.make([1] + [0] * 9, lambda t: (t, t))
        out = temporal_interpolate(pose, max_gap=5)
        assert (out.flags[1:, 0] == VIS_MISSING).all()

    def test_gap_longer_than_max_not_filled(self):
        pattern = [1] + [0] * 6 + [1]
        pose = self.make(pattern, lambda t: (t, t))
        out = temporal_interpolate(pose, max_gap=5)
        assert (out.flags[1:7, 0] == VIS_MISSING).all()
        out2 = temporal_interpolate(pose, max_gap=6)
        assert (out2.flags[1:7, 0] == VIS_TEMPORAL).all()

    def test_never_modifies_visible(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(30, 4, 2))
        vis = (rng.random((30, 4)) > 0.4).astype(np.uint8)
        out = temporal_interpolate(one_video(coords, vis), max_gap=4)
        was_visible = vis > 0
        np.testing.assert_array_equal(out.coords[was_visible], coords[was_visible])
        # Missing count never increases.
        assert (out.flags == 0).sum() <= (vis == 0).sum()

    def test_exact_for_linear_motion(self):
        velocity = np.array([0.7, -1.3])
        start = np.array([5.0, 2.0])
        coords = start + velocity * np.arange(20)[:, None]
        vis = np.ones(20, dtype=np.uint8)
        vis[3:9] = 0
        out = temporal_interpolate(one_video(coords[:, None, :], vis[:, None]), max_gap=10)
        np.testing.assert_allclose(out.coords[:, 0, :], coords, atol=1e-9)


def affine_corpus(topo, num_frames=60, seed=0):
    """Poses where every joint is an exact affine function of a 2-D latent.

    Any joint pair is then exactly affine in each other, so the affine fit
    must recover the relations to rounding error.
    """
    rng = np.random.default_rng(seed)
    n = topo.n
    while True:
        mats = rng.uniform(-1.0, 1.0, size=(n, 2, 2))
        if np.all(np.abs(np.linalg.det(mats)) > 0.2):
            break
    offsets = rng.uniform(-1.0, 1.0, size=(n, 2))
    latents = rng.uniform(-2.0, 2.0, size=(num_frames, 2))
    coords = np.einsum("njk,tk->tnj", mats, latents) + offsets
    return one_video(coords, video="affine")


class TestSpatialModel:
    def test_constant_offset_corpus(self):
        topo = simple_topology()
        rng = np.random.default_rng(0)
        base = rng.uniform(size=(40, 1, 2))
        coords = np.concatenate([base, base + [0.0, -1.0], base + [0.5, 0.5]], axis=1)
        model = fit_spatial_model(one_video(coords), topo)
        pred = model.predict(0, 1, np.array([0.3, 0.7]))
        np.testing.assert_allclose(pred, [0.3, -0.3], atol=1e-9)

    def test_affine_recovery(self):
        corpus = affine_corpus(JHMDB)
        model = fit_spatial_model(corpus, JHMDB)
        coords = corpus.coords
        for s, t in [(0, 1), (3, 11), (14, 2)]:
            preds = np.array([model.predict(s, t, coords[f, s]) for f in range(10)])
            np.testing.assert_allclose(preds, coords[:10, t], atol=1e-6)

    def test_single_frame_fallback(self):
        topo = simple_topology()
        coords = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]])
        model = fit_spatial_model(one_video(coords), topo)
        # Mean offset: joint 1 = joint 0 + (1, 1) on the only sample.
        np.testing.assert_allclose(model.predict(0, 1, np.array([5.0, 5.0])), [6.0, 6.0])
        assert model.trained[0, 1]

    @pytest.mark.parametrize("case", ["one frame", "fewer frames than features",
                                      "constant source", "collinear source"])
    def test_degenerate_designs_fall_back_to_the_mean_offset(self, case):
        rng = np.random.default_rng(3)
        frames = {"one frame": 1, "fewer frames than features": 2, "constant source": 40,
                  "collinear source": 50}[case]
        coords = rng.uniform(-1, 1, (frames, 3, 2))
        if case == "constant source":
            coords[:, 0] = [0.3, -0.7]
        if case == "collinear source":
            coords[:, 0, 1] = 2.0 * coords[:, 0, 0] + 1.0
        self.assert_mean_offset(coords)

    def test_a_design_between_the_lstsq_cut_and_the_moment_cut_falls_back(self):
        """The fit falls back when the centered design's singular values are
        at most sqrt(p * m * eps) apart in ratio; lstsq cuts at m * eps and
        would fit this pair, with coefficients near 1e9."""
        rng = np.random.default_rng(4)
        coords = rng.uniform(-1, 1, (200, 3, 2))
        coords[:, 0, 1] = coords[:, 0, 0] + 1e-9 * rng.uniform(-1, 1, 200)
        design = coords[:, 0] - coords[:, 0].mean(axis=0)
        values = np.linalg.svd(np.c_[np.ones(200), design], compute_uv=False)
        eps = np.finfo(np.float64).eps
        assert 200 * eps < values[-1] / values[0] < np.sqrt(3 * 200 * eps)
        _, _, rank, _ = np.linalg.lstsq(np.c_[np.ones(200), coords[:, 0]], coords[:, 1], rcond=None)
        assert rank == 3
        self.assert_mean_offset(coords)

    @staticmethod
    def assert_mean_offset(coords):
        """Joint 0 predicts joint 1 as itself plus their mean offset, in the
        fit and in the per-pair loop."""
        topo = simple_topology()
        expected = np.zeros((3, 2))
        expected[0] = (coords[:, 1] - coords[:, 0]).mean(axis=0)
        expected[1, 0] = expected[2, 1] = 1.0
        pose = reference.Pose("v", coords, np.ones(coords.shape[:2], np.uint8))
        for model in (fit_spatial_model(PoseCorpus.of([pose]), topo),
                      reference.fit_spatial_model([pose], topo)):
            assert model.trained[0, 1]
            np.testing.assert_allclose(model.coeffs[0, 1], expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("value, axis", [(1e160, 1), (1e300, 1), (1e160, 0)])
    def test_coordinates_too_large_to_sum_name_their_joint(self, value, axis):
        coords = np.random.default_rng(5).uniform(-1, 1, (20, 3, 2))
        coords[7, 2, axis] = value
        with pytest.raises(ValueError, match="^joint 'wrist' has coordinates too large for the "
                                             "spatial fit: the sums of their products overflow"):
            fit_spatial_model(one_video(coords), simple_topology())

    def test_pairs_never_filled_together_stay_untrained(self):
        topo = simple_topology()
        coords = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]] * 2)
        vis = np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)
        model = fit_spatial_model(one_video(coords, vis), topo)
        np.testing.assert_array_equal(
            model.trained, [[False, True, True], [True, False, False], [True, False, False]]
        )

    def test_check_names_topology_and_joints(self):
        model = fit_spatial_model(affine_corpus(JHMDB), JHMDB)
        model.check(JHMDB)
        cut = replace(model, joint_names=model.joint_names[:5], coeffs=model.coeffs[:5, :5],
                      trained=model.trained[:5, :5])
        for call, message in [
            (lambda: model.check(build_topology("penn")), "fit on 'jhmdb_gt', not 'penn'"),
            (lambda: cut.check(JHMDB), "has 5 joints, topology 'jhmdb_gt' has 15"),
            (lambda: spatial_interpolate(affine_corpus(JHMDB), cut, JHMDB), "has 5 joints"),
        ]:
            with pytest.raises(ValueError, match=message):
                call()

    def test_check_refuses_a_model_of_other_joint_names(self, tmp_path):
        """Two description files of one stem load as the same profile; a
        model fit on one fills the wrong joints of the other, so check
        compares the joint names in order."""
        text = "n=4 root=neck torso=neck,belly{}\nneck belly part=5\nneck arm part=1\n" \
               "belly leg part=3\n"
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "sk.txt").write_text(text.format(""))
        (tmp_path / "b" / "sk.txt").write_text(text.format(" joints=neck,leg,arm,belly"))
        a = build_topology("custom", tmp_path / "a" / "sk.txt")
        b = build_topology("custom", tmp_path / "b" / "sk.txt")
        assert a.name == b.name == "custom:sk" and a.joint_names != b.joint_names
        model = fit_spatial_model(one_video(np.random.default_rng(6).uniform(-1, 1, (9, 4, 2))), a)
        model.check(a)
        with pytest.raises(ValueError, match=f"^spatial model joint 1 is '{a.joint_names[1]}', "
                                             f"topology 'custom:sk' has 'leg' there$"):
            model.check(b)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            fit_spatial_model(PoseCorpus.of([]), JHMDB)

    def test_save_load_round_trip(self, tmp_path):
        model = fit_spatial_model(affine_corpus(JHMDB), JHMDB)
        path = tmp_path / "model.bin"
        model.save(path)
        loaded = type(model).load(path)
        assert loaded.topology_name == model.topology_name
        assert loaded.joint_names == model.joint_names == JHMDB.joint_names
        np.testing.assert_array_equal(loaded.coeffs, model.coeffs)
        np.testing.assert_array_equal(loaded.trained, model.trained)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_predict_is_array_valued(self, seed):
        model = fit_spatial_model(affine_corpus(JHMDB, seed=seed), JHMDB)
        rng = np.random.default_rng(seed)
        sources, targets = rng.integers(0, JHMDB.n, size=(2, 40))
        xy = rng.normal(size=(40, 2))
        rows = model.predict(sources, targets, xy)
        assert rows.shape == (40, 2)
        for s, t, p, row in zip(sources, targets, xy, rows):
            np.testing.assert_array_equal(row, reference.predict(model, s, t, p))
            np.testing.assert_array_equal(row, model.predict(s, t, p))


def _write_model(path, coeffs=None, trained=None, **changes):
    """A model file with header fields replaced (None drops one) and the
    given arrays written as they are."""
    model = fit_spatial_model(affine_corpus(JHMDB), JHMDB)
    header = {"topology_name": model.topology_name, "joint_names": list(JHMDB.joint_names),
              **changes}
    arrays = {"coeffs": model.coeffs if coeffs is None else coeffs,
              "trained": model.trained.astype(np.uint8) if trained is None else trained}
    write_raw(path, MODEL_FILE, {k: v for k, v in header.items() if v is not None}, arrays)


def _bare_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.zeros(3))


def _truncated(path):
    _write_model(path)
    path.write_bytes(path.read_bytes()[:300])


MODEL_DEFECTS = {
    "truncated": (_truncated, "truncated in array 'coeffs'"),
    "not a model file": (lambda p: p.write_bytes(b"hello, not a model\n"), "bad magic"),
    "a bare .npy": (_bare_npy, "not a spatial model file (bad magic"),
    "missing key": (lambda p: _write_model(p, joint_names=None), "header field 'joint_names'"),
    "a joint name not a string": (lambda p: _write_model(p, joint_names=[0] * 15),
                                  "header field 'joint_names' must be list[str]"),
    "name not a string": (lambda p: _write_model(p, topology_name=7), "field 'topology_name'"),
    "5x5 coeffs": (lambda p: _write_model(p, coeffs=np.zeros((5, 5, 3, 2))), "truncated"),
    "degree-2 coeffs": (lambda p: _write_model(p, coeffs=np.zeros((15, 15, 6, 2))),
                        "trailing bytes"),
    "non-finite coeffs": (
        lambda p: _write_model(p, coeffs=np.full((15, 15, 3, 2), np.nan)), "non-finite"),
    "int trained": (
        lambda p: _write_model(p, trained=np.full((15, 15), 2, dtype=np.uint8)), "0 or 1"),
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_spatial_model_load_names_file_and_field(defect, tmp_path):
    make, message = MODEL_DEFECTS[defect]
    path = tmp_path / "model.bin"
    make(path)
    with pytest.raises(ValueError) as info:
        SpatialModel.load(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_a_version_1_spatial_model_is_refused_naming_the_file(tmp_path):
    # Version 1 held a degree (1 or 2) and a joint count, not the joint names.
    model = fit_spatial_model(affine_corpus(JHMDB), JHMDB)
    path = tmp_path / "model.bin"
    write_raw(path, replace(MODEL_FILE, version=1),
              {"topology_name": "jhmdb_gt", "degree": 1, "joints": JHMDB.n},
              {"coeffs": model.coeffs, "trained": model.trained.astype(np.uint8)})
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported spatial model "
                                         r"version 1 \(this reader reads version 2\)$"):
        SpatialModel.load(path)


class TestSpatialInterpolate:
    def test_mean_of_votes(self):
        # Two voters predicting (1,0) and (3,0) must fill (2,0). Use a
        # constant-offset corpus so the predictions are exact.
        topo = topology("n=5 root=neck torso=neck,belly\nneck belly part=5\nneck a part=1\n"
                        "a b part=1\nb c part=1\n", "three_arm")
        rng = np.random.default_rng(2)
        base = rng.uniform(size=(50, 1, 2))
        coords = np.concatenate(
            [base, base + [0.0, 1.0], base + [1.0, 0.0], base + [3.0, 0.0], base + [2.0, 0.0]],
            axis=1,
        )
        model = fit_spatial_model(one_video(coords), topo)

        frame = np.array([[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [3.0, 0.0], [99.0, 99.0]]])
        vis = np.array([[1, 1, 1, 1, 0]], dtype=np.uint8)
        out = spatial_interpolate(one_video(frame, vis), model, topo)
        # Voters a and b (same part) predict c at (2,0) and (2,0) exactly;
        # with the offsets above the mean is (2, 0).
        np.testing.assert_allclose(out.coords[0, 4], [2.0, 0.0], atol=1e-9)
        assert out.flags[0, 4] == VIS_SPATIAL

    def test_identity_when_nothing_missing(self):
        model = fit_spatial_model(affine_corpus(JHMDB), JHMDB)
        pose = affine_corpus(JHMDB, num_frames=4, seed=1)
        out = spatial_interpolate(pose, model, JHMDB)
        np.testing.assert_array_equal(out.coords, pose.coords)
        np.testing.assert_array_equal(out.flags, pose.flags)

    def test_knocked_out_joint_recovered(self):
        model = fit_spatial_model(affine_corpus(JHMDB, num_frames=80), JHMDB)
        probe = affine_corpus(JHMDB, num_frames=6, seed=0)
        for victim in (11, 2, 14):
            vis = probe.flags.copy()
            vis[:, victim] = 0
            broken = one_video(probe.coords, vis, video="p")
            out = spatial_interpolate(broken, model, JHMDB)
            np.testing.assert_allclose(
                out.coords[:, victim], probe.coords[:, victim], atol=1e-6
            )

    def constant_model(self, topo, predictions):
        """Model where voter v predicts a fixed point for target t."""
        from posestream.preprocess import SpatialModel

        n = topo.n
        coeffs = np.zeros((n, n, 3, 2))
        trained = np.zeros((n, n), dtype=bool)
        for (voter, target), point in predictions.items():
            coeffs[voter, target, 0] = point
            trained[voter, target] = True
        return SpatialModel(topology_name=topo.name, joint_names=topo.joint_names,
                            coeffs=coeffs, trained=trained)

    def test_torso_group_fallback_for_upper_body(self):
        # r_wrist (part 1) missing along with its whole part: voters must be
        # the part-5 joints, not every visible joint. Leg voters are trained
        # to predict something far away to catch the wrong voter set.
        topo = JHMDB
        wrist = topo.joint_names.index("r_wrist")
        preds = {(topo.joint_names.index(nm), wrist): point for nm, point in [
            ("neck", (0.0, 0.0)), ("belly", (3.0, 0.0)), ("head", (0.0, 3.0)),
        ]}
        for nm in ("r_hip", "l_hip", "r_knee", "l_knee", "r_ankle", "l_ankle"):
            preds[(topo.joint_names.index(nm), wrist)] = (9.0, 9.0)
        model = self.constant_model(topo, preds)

        vis = np.ones((1, topo.n), dtype=np.uint8)
        for nm in ("r_shoulder", "r_elbow", "r_wrist"):
            vis[0, topo.joint_names.index(nm)] = 0
        out = spatial_interpolate(one_video(np.zeros((1, topo.n, 2)), vis), model, topo)
        np.testing.assert_allclose(out.coords[0, wrist], [1.0, 1.0])

    def test_all_visible_fallback_for_lower_body(self):
        # r_ankle (part 3) missing with its whole part: not an upper-body
        # joint, so every visible trained joint votes.
        topo = JHMDB
        ankle = topo.joint_names.index("r_ankle")
        visible = [
            nm for nm in topo.joint_names
            if nm not in ("r_hip", "r_knee", "r_ankle")
        ]
        preds = {
            (topo.joint_names.index(nm), ankle): (float(i), 0.0)
            for i, nm in enumerate(visible)
        }
        model = self.constant_model(topo, preds)
        vis = np.ones((1, topo.n), dtype=np.uint8)
        for nm in ("r_hip", "r_knee", "r_ankle"):
            vis[0, topo.joint_names.index(nm)] = 0
        out = spatial_interpolate(one_video(np.zeros((1, topo.n, 2)), vis), model, topo)
        expected_x = np.mean([float(i) for i in range(len(visible))])
        np.testing.assert_allclose(out.coords[0, ankle], [expected_x, 0.0])

    def test_untrained_voter_abstains(self):
        topo = JHMDB
        wrist = topo.joint_names.index("r_wrist")
        # Only belly is trained for the wrist; neck and head abstain.
        model = self.constant_model(topo, {(topo.joint_names.index("belly"), wrist): (4.0, 5.0)})
        vis = np.ones((1, topo.n), dtype=np.uint8)
        for nm in ("r_shoulder", "r_elbow", "r_wrist"):
            vis[0, topo.joint_names.index(nm)] = 0
        out = spatial_interpolate(one_video(np.zeros((1, topo.n, 2)), vis), model, topo)
        np.testing.assert_allclose(out.coords[0, wrist], [4.0, 5.0])

    def test_zero_voters_synthetic_zero_fill(self):
        topo = simple_topology()
        coords = np.array([[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]])
        model = fit_spatial_model(one_video(coords), topo)
        model = replace(model, trained=np.zeros_like(model.trained))  # every voter abstains
        vis = np.array([[1, 1, 0]], dtype=np.uint8)
        out = spatial_interpolate(one_video(coords, vis), model, topo)
        np.testing.assert_allclose(out.coords[0, 2], [0.0, 0.0])
        assert out.flags[0, 2] == VIS_SYNTHETIC

    def test_no_missing_after_interpolation(self):
        rng = np.random.default_rng(9)
        model = fit_spatial_model(affine_corpus(JHMDB, num_frames=100), JHMDB)
        probe = affine_corpus(JHMDB, num_frames=12, seed=3)
        vis = (rng.random(probe.flags.shape) > 0.4).astype(np.uint8)
        out = spatial_interpolate(one_video(probe.coords, vis, video="p"), model, JHMDB)
        assert (out.flags > 0).all()

    def test_topology_mismatch_rejected(self):
        model = fit_spatial_model(affine_corpus(JHMDB), JHMDB)
        pose = affine_corpus(JHMDB, num_frames=2)
        with pytest.raises(ValueError, match="fit on"):
            spatial_interpolate(pose, model, build_topology("penn"))


class TestZeroFill:
    def test_fills_missing_with_origin(self):
        coords = np.array([[[1.0, 1.0], [5.0, 5.0]]])
        vis = np.array([[1, 0]], dtype=np.uint8)
        out = zero_fill(one_video(coords, vis))
        np.testing.assert_allclose(out.coords[0, 1], [0.0, 0.0])
        assert out.flags[0, 1] == VIS_SYNTHETIC
        np.testing.assert_allclose(out.coords[0, 0], [1.0, 1.0])


class TestAnnotationIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        poses = [random_pose(rng, n=3, frames=4)._replace(video=f"clip_{i}") for i in range(3)]
        for p in poses:
            p.flags[0, 1] = 0
        path = tmp_path / "ann.jsonl"
        write_annotations(path, PoseCorpus.of(poses), meta={"seed": 1})
        loaded = read_records(path, n_expected=3)
        assert [p.video for p in loaded] == ["clip_0", "clip_1", "clip_2"]
        for original, again in zip(poses, loaded):
            np.testing.assert_array_equal(original.flags > 0, again.flags > 0)
            mask = original.flags > 0
            np.testing.assert_allclose(original.coords[mask], again.coords[mask])
            assert again.label == original.label

    def test_meta_line_skipped(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        # A corpus cannot be empty, so the header-only file is written as text.
        path.write_text(json.dumps({"_meta": {"note": "header only"}}) + "\n")
        assert read_records(path) == []

    def test_rejects_wrong_n(self):
        record = reference.pose_to_record(random_pose(np.random.default_rng(0), n=5, frames=2))
        with pytest.raises(AnnotationError, match="expected n=15"):
            pose_from_record(record, n_expected=15)

    def test_rejects_bad_visibility(self):
        record = {
            "video": "v", "n": 1, "label": 0,
            "frames": [[[0.0, 0.0, 2]]],
        }
        with pytest.raises(AnnotationError, match="visibility"):
            pose_from_record(record)

    def test_rejects_missing_fields(self):
        with pytest.raises(AnnotationError):
            pose_from_record({"video": "v"})

    def test_rejects_ragged_frame(self):
        record = {"video": "v", "n": 2, "frames": [[[0, 0, 1]]]}
        with pytest.raises(AnnotationError, match="exactly 2"):
            pose_from_record(record)

    def test_rejects_non_finite_visible(self):
        record = {"video": "v", "n": 1, "frames": [[[float("nan"), 0.0, 1]]]}
        with pytest.raises(AnnotationError, match="non-finite"):
            pose_from_record(record)

    def test_integers_convert_as_floats_do(self):
        # 10**30 is beyond int64; 2**53 + 1 rounds to 2**53 as a float.
        frames = [[[10**30, 2**53 + 1, 1], [-(10**30), 7, 0]]]
        _, coords, flags, _ = pose_from_record({"video": "v", "n": 2, "frames": frames})
        expected = [[float(10**30), float(2**53 + 1)], [float(-(10**30)), 7.0]]
        np.testing.assert_array_equal(coords[0], expected)
        np.testing.assert_array_equal(flags, [[1, 0]])

    @pytest.mark.parametrize("vis", [0, 1])
    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_integer_beyond_float64_range_rejected(self, value, vis):
        record = {"video": "v", "n": 2, "frames": [[[0, 0, 1], [0, 0, 1]],
                                                   [[0, 0, 1], [1.5, value, vis]]]}
        with pytest.raises(AnnotationError, match="frame 1 joint 1 .*float64 range"):
            pose_from_record(record)

    @pytest.mark.parametrize("n", [15.9, 15.0, "15", " 15 ", "1_5", True, None, [15]])
    def test_rejects_n_that_is_not_a_json_integer(self, n):
        frames = [[[0, j, 1] for j in range(15)]]
        with pytest.raises(AnnotationError,
                           match=re.escape(f"'n' must be an integer, got {n!r}")):
            pose_from_record({"video": "v", "n": n, "frames": frames}, n_expected=15)

    def test_n_nested_thousands_deep_rejects_its_line(self):
        line = b'{"video": "v", "n": %s, "frames": [[[0, 0, 1]]]}' % (b"[" * 5000 + b"]" * 5000)
        with pytest.raises(AnnotationError, match=r"'n' must be an integer, got \[\[\["):
            parse_annotation_line(line, 1)

    def test_reader_reports_line_numbers(self, tmp_path):
        report = preprocess_file(tmp_path, [record_line("a"), "", "not json"])
        assert [entry["line"] for entry in report["rejected"]] == [3]
        assert report["rejected"][0]["error"].startswith("invalid JSON")

    @pytest.mark.parametrize("line, error", [
        (b'{"video": "b", "n": 15, "frames": []}', "'frames' must be a non-empty list"),
        (b'\xff{"video": "b", "n": 15}', "line is not UTF-8 (bad byte at offset 0)"),
        (b'{"video": "b", "n": 15.0, "frames": []}', "'n' must be an integer, got 15.0"),
    ], ids=["no-frames", "first-byte-not-utf8", "float-n"])
    def test_a_bad_line_is_rejected_and_the_run_goes_on(self, tmp_path, line, error):
        path = tmp_path / "ann.jsonl"
        path.write_bytes(b"\n".join([record_line("a").encode(), line, record_line("c").encode()]))
        report = cmd_preprocess(PipelineConfig(annotations=str(path),
                                               cache=str(tmp_path / "c.cache")))
        assert report["videos"] == 2
        assert report["rejected"] == [{"line": 2, "error": error}]

    def test_label_nested_thousands_deep_rejects_its_line(self):
        line = b'{"video": "v", "n": 1, "frames": [[[0, 0, 1]]], "label": %s}' % (
            b"[" * 5000 + b"]" * 5000)
        with pytest.raises(AnnotationError, match=r"'label' must be an integer .*, got \[\[\["):
            parse_annotation_line(line, 1)

    @pytest.mark.parametrize("video", ["a,b", 'a"b', "a\rb", "a\nb", "#a", "\ud800"])
    def test_rejects_ids_the_csvs_cannot_carry(self, video):
        with pytest.raises(AnnotationError, match="video id"):
            pose_from_record({"video": video, "n": 1, "frames": [[[0, 0, 1]]]})

    @pytest.mark.parametrize("video", ["a,b", 'a"b', "a\rb", "a\nb", "#a", "\ud800", "", 7])
    def test_writer_refuses_ids_the_reader_rejects(self, video, tmp_path):
        with pytest.raises(AnnotationError):
            pose_from_record({"video": video, "n": 1, "frames": [[[0, 0, 1]]]})
        corpus = PoseCorpus(videos=("ok", video), labels=[0, 1], offsets=[0, 1, 2],
                            coords=np.zeros((2, 1, 2)), flags=np.ones((2, 1)))
        with pytest.raises(ValueError, match=f"cannot write video id {re.escape(repr(video))}"):
            write_annotations(tmp_path / "ann.jsonl", corpus)
        assert not (tmp_path / "ann.jsonl").exists()

    @pytest.mark.parametrize("label", [-1, 2**31, 1.5, "3", True])
    def test_rejects_labels_outside_int_range(self, label):
        with pytest.raises(AnnotationError, match="label"):
            pose_from_record({"video": "v", "label": label, "n": 1, "frames": [[[0, 0, 1]]]})

    def test_preprocess_reports_bad_id_with_line_number(self, tmp_path):
        report = preprocess_file(tmp_path, [record_line("a"), record_line("a,b")])
        assert [entry["line"] for entry in report["rejected"]] == [2]
        assert report["rejected"][0]["error"].startswith("video id 'a,b'")


_ID_CHARS = st.one_of(st.characters(), st.sampled_from(list(',"\r\n# ')))


@settings(max_examples=200, deadline=None)
@given(videos=st.lists(st.text(_ID_CHARS, min_size=1, max_size=8), min_size=1, max_size=5,
                       unique=True))
def test_accepted_ids_round_trip_through_csvs(videos):
    accepted = []
    for video in videos:
        try:
            pose_from_record({"video": video, "n": 1, "frames": [[[0, 0, 1]]]})
        except AnnotationError:
            continue
        accepted.append(video)
    assume(accepted)
    videos = tuple(sorted(set(accepted)))
    scores = StreamScores("pose", videos, np.tile([0.25, 0.75], (len(videos), 1)))
    labels = {v: i for i, v in enumerate(accepted)}
    with tempfile.TemporaryDirectory() as tmp:
        write_scores(Path(tmp) / "s.csv", scores, meta={"seed": 0})
        write_labels(Path(tmp) / "l.csv", labels, meta={"seed": 0})
        assert sorted(read_scores(Path(tmp) / "s.csv").scores) == sorted(accepted)
        assert read_labels(Path(tmp) / "l.csv") == labels


# ---------------------------------------------------------------------------
# The corpus stages against the per-video loops in preprocess_reference
# ---------------------------------------------------------------------------

PROFILES = [build_topology(name) for name in ("jhmdb_gt", "estimated_14", "penn")]


def noisy_pose(topo, rng, frames, dropout, degenerate, max_gap, video="v"):
    """A pixel-space pose with every case the stage loops branch on: random
    dropout, possibly a joint missing in every frame, missing runs at both
    ends, a gap one frame longer than max_gap, frames whose torso anchor
    groups coincide to within 1e-9 (so d <= eps), and frames whose 1e-5
    torso scales a joint at 1e304 past the float64 range."""
    coords = rng.uniform(-50.0, 250.0, size=(frames, topo.n, 2))
    vis = (rng.random((frames, topo.n)) >= dropout).astype(np.uint8)
    if rng.random() < 0.5:
        vis[:, rng.integers(topo.n)] = 0
    joint = rng.integers(topo.n)
    head, tail = rng.integers(0, frames // 2 + 1, size=2)
    vis[:head, joint] = 0
    vis[frames - tail:, joint] = 0
    if frames >= max_gap + 3:
        start = rng.integers(1, frames - max_gap - 1)
        vis[start:start + max_gap + 1, rng.integers(topo.n)] = 0
    anchors = [j for group in topo.torso_anchors for j in group]
    for t in np.flatnonzero(rng.random(frames) < degenerate):
        coords[t, anchors] = coords[t, anchors[0]] + rng.uniform(-1e-9, 1e-9, (len(anchors), 2))
    others = [j for j in range(topo.n) if j not in anchors]
    for t in np.flatnonzero(rng.random(frames) < degenerate / 2):
        coords[t, anchors] = coords[t, anchors[0]] + rng.uniform(-1e-5, 1e-5, (len(anchors), 2))
        coords[t, rng.choice(others)] = 1e304
    return reference.Pose(video, coords, vis, 0)


def noisy_poses(topo, rng, counts, dropout, degenerate, max_gap):
    return [noisy_pose(topo, rng, frames, dropout, degenerate, max_gap, video=f"v{i}")
            for i, frames in enumerate(counts)]


def assert_same_corpus(corpus, poses):
    """The corpus equals the given per-video outputs concatenated, bit for bit."""
    expected = PoseCorpus.of(poses)
    assert corpus.coords.tobytes() == expected.coords.tobytes()
    np.testing.assert_array_equal(corpus.flags, expected.flags)
    np.testing.assert_array_equal(corpus.offsets, expected.offsets)
    assert corpus.videos == expected.videos


corpus_knobs = dict(
    seed=st.integers(0, 2**32 - 1),
    topo=st.sampled_from(PROFILES),
    counts=st.lists(st.integers(1, 16), min_size=1, max_size=4),
    dropout=st.floats(0.0, 0.8),
    degenerate=st.sampled_from([0.0, 0.3]),
    max_gap=st.integers(0, 5),
)


@settings(max_examples=150, deadline=None)
@given(**corpus_knobs)
# A finite joint over a tiny torso whose distance from the origin overflows.
@example(seed=2**32 - 1, topo=PROFILES[0], counts=[8], dropout=0.5, degenerate=0.3, max_gap=2)
def test_temporal_and_normalize_match_loops(seed, topo, counts, dropout, degenerate, max_gap):
    poses = noisy_poses(topo, np.random.default_rng(seed), counts, dropout, degenerate, max_gap)
    corpus = PoseCorpus.of(poses)
    filled = temporal_interpolate(corpus, max_gap=max_gap)
    filled_poses = [reference.temporal_interpolate(p, max_gap=max_gap) for p in poses]
    assert_same_corpus(filled, filled_poses)
    for source, sources in ((corpus, poses), (filled, filled_poses)):
        with np.errstate(all="raise"):
            out = normalize(source, topo)
        assert_same_corpus(out, [reference.normalize(p, topo) for p in sources])


@settings(max_examples=60, deadline=None)
@given(**corpus_knobs, min_samples=st.sampled_from([1, 4, 12]),
       abstain=st.sampled_from([0.0, 0.5]))
def test_fit_and_fill_match_loops(seed, topo, counts, dropout, degenerate, max_gap,
                                  min_samples, abstain):
    """The fit trains the pairs the per-pair lstsq loop trains, exactly, and
    its coefficients are within max(1e-9, 10 * kappa**2 * eps) times each
    pair's largest coefficient of the loop's. kappa is the condition number
    of the pair's scaled, centered design (0 for a pair with fewer frames
    than features or a feature that is 0 on every frame, which falls back to
    a mean offset): the fit solves normal equations, whose error grows with
    kappa squared, and the loop a QR. Given coefficients, the fill is the
    loop's bit for bit."""
    # Small corpora make rank-deficient designs and untrained pairs common.
    rng = np.random.default_rng(seed)
    poses = [reference.normalize(p, topo)
             for p in noisy_poses(topo, rng, counts, dropout, degenerate, max_gap)]
    corpus = PoseCorpus.of(poses)
    model = fit_spatial_model(corpus, topo)
    loop_model = reference.fit_spatial_model(poses, topo)
    np.testing.assert_array_equal(model.trained, loop_model.trained)
    kappa = reference.design_conditions(poses, topo)
    kappa[np.isinf(kappa)] = 0.0
    rtol = np.maximum(1e-9, 10 * kappa**2 * np.finfo(np.float64).eps)
    error = np.abs(model.coeffs - loop_model.coeffs).max(axis=(2, 3))
    assert (error <= rtol * np.abs(loop_model.coeffs).max(axis=(2, 3))).all()

    # Untrain pairs with few samples, and more at random, so that untrained voters abstain.
    sampled = reference.fit_spatial_model(poses, topo, min_samples=min_samples)
    model = replace(model, trained=sampled.trained & (rng.random(model.trained.shape) >= abstain))
    assert_same_corpus(spatial_interpolate(corpus, model, topo),
                       [reference.spatial_interpolate(p, model, topo) for p in poses])


def chain(values):
    """One-joint records of a three-joint topology: joint 2 takes the given
    x values (None for missing), the torso joints 0 and 1 are always there."""
    coords = np.zeros((len(values), 3, 2))
    coords[:, 1, 1] = 1.0
    coords[:, 2, 0] = [0.0 if v is None else v for v in values]
    vis = np.ones((len(values), 3), np.uint8)
    vis[:, 2] = [v is not None for v in values]
    return coords, vis


class TestVideoBoundaries:
    def corpus(self, *videos):
        return PoseCorpus.of([reference.Pose(f"v{i}", *chain(values), 0)
                              for i, values in enumerate(videos)])

    def test_temporal_fill_stays_inside_each_video(self):
        # v0 ends in a missing run and v1 starts with filled frames, and the
        # other way round: neither run has an anchor on both sides in its video.
        corpus = self.corpus([1.0, None, None], [4.0, 5.0], [None, None, 8.0])
        out = temporal_interpolate(corpus, max_gap=10)
        np.testing.assert_array_equal(out.flags[:, 2], [1, 0, 0, 1, 1, 0, 0, 1])
        assert out.coords.tobytes() == corpus.coords.tobytes()

    def test_gap_inside_a_video_is_still_filled(self):
        corpus = self.corpus([0.0], [1.0, None, 3.0], [None])
        out = temporal_interpolate(corpus, max_gap=10)
        np.testing.assert_array_equal(out.flags[:, 2], [1, 1, VIS_TEMPORAL, 1, 0])
        assert out.coords[2, 2, 0] == 2.0

    def test_one_frame_videos(self):
        poses = [reference.Pose(f"v{i}", *chain(values), i)
                 for i, values in enumerate([[None], [2.0], [None], [None, 1.0, None]])]
        corpus = PoseCorpus.of(poses)
        topo = simple_topology()
        out = normalize(temporal_interpolate(corpus, max_gap=10), topo)
        expected = [reference.normalize(reference.temporal_interpolate(p, 10), topo)
                    for p in poses]
        assert_same_corpus(out, expected)
        np.testing.assert_array_equal(out.flags[:, 2], [0, 1, 0, 0, 1, 0])
        np.testing.assert_array_equal(out.labels, [0, 1, 2, 3])

    def test_unusable_frames_at_video_edges(self):
        # The first and last frame of each video has a degenerate torso; the
        # inner frames are fine. Every edge frame is demoted to missing.
        topo = simple_topology()
        poses = []
        for i in range(3):
            coords, vis = chain([1.0, 2.0, 3.0, 4.0])
            coords[[0, -1], 1] = coords[[0, -1], 0]
            poses.append(reference.Pose(f"v{i}", coords, vis, 0))
        out = normalize(PoseCorpus.of(poses), topo)
        unusable = ~out.flags.any(axis=1)
        np.testing.assert_array_equal(np.flatnonzero(unusable), [0, 3, 4, 7, 8, 11])
        assert_same_corpus(out, [reference.normalize(p, topo) for p in poses])


class TestPoseCorpus:
    def test_of_concatenates_records(self):
        rng = np.random.default_rng(0)
        a, b = random_pose(rng, n=3, frames=2), random_pose(rng, n=3, frames=5)
        b = b._replace(video="w", label=-1)
        corpus = PoseCorpus.of([a, b])
        assert corpus.videos == ("v", "w")
        np.testing.assert_array_equal(corpus.labels, [0, -1])
        np.testing.assert_array_equal(corpus.offsets, [0, 2, 7])
        assert corpus.coords.tobytes() == np.concatenate([a.coords, b.coords]).tobytes()

    def test_rejects_mixed_joint_counts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="joint count"):
            PoseCorpus.of([random_pose(rng, n=3), random_pose(rng, n=4)])

    @pytest.mark.parametrize("offsets, message", [
        ([0, 2, 2, 5], "no empty video"), ([0, 3, 4, 6], "rise from 0 to 5"),
        ([1, 2, 3, 5], "rise from 0"), ([0, 5], "labels and 4 offsets"),
    ])
    def test_rejects_bad_offsets(self, offsets, message):
        with pytest.raises(ValueError, match=message):
            PoseCorpus(("a", "b", "c"), [0, 1, 2], offsets, np.zeros((5, 2, 2)),
                       np.ones((5, 2), np.uint8))

    def test_non_finite_filled_coordinate_names_its_video(self):
        coords = np.zeros((5, 2, 2))
        coords[3, 1, 0] = np.nan
        flags = np.ones((5, 2), np.uint8)
        flags[3, 1] = 0  # a missing joint may hold anything
        PoseCorpus(("a", "b"), [0, 1], [0, 3, 5], coords, flags)
        flags[3, 1] = 1
        with pytest.raises(ValueError, match="video 'b' has non-finite"):
            PoseCorpus(("a", "b"), [0, 1], [0, 3, 5], coords, flags)


_ODD_VALUES = [2, -1, 0.5, 1.0, -0.0, True, False, float("nan"), float("inf"), 2**40,
               -(2**62), 2**63, "1", None, [1], {}]
_EDITS = ["value", "drop", "extra", "entry", "frame", "short"]


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 3),
    frames=st.integers(1, 3),
    edits=st.lists(
        st.tuples(st.sampled_from(_EDITS), st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 2), st.sampled_from(_ODD_VALUES)),
        max_size=3,
    ),
)
def test_parser_matches_loop_on_malformed_records(n, frames, edits):
    table = [[[float(10 * t + j), float(j), 1] for j in range(n)] for t in range(frames)]
    for kind, t, j, k, value in edits:
        t %= len(table)
        frame = table[t]
        if kind == "frame":
            table[t] = copy.deepcopy(value)
        elif not isinstance(frame, list) or not frame:
            continue
        elif kind == "short":
            del frame[j % len(frame)]
        elif kind == "entry":
            frame[j % len(frame)] = copy.deepcopy(value)
        elif isinstance(entry := frame[j % len(frame)], list) and entry:
            if kind == "value":
                entry[k % len(entry)] = copy.deepcopy(value)
            elif kind == "drop":
                del entry[k % len(entry)]
            else:
                entry.append(copy.deepcopy(value))
    record = {"video": "v", "n": n, "label": 1, "frames": table}

    def outcome(parse):
        try:
            _, coords, flags, label = parse(copy.deepcopy(record))
        except AnnotationError as exc:
            return str(exc)
        return coords.tobytes(), flags.tobytes(), label

    assert outcome(pose_from_record) == outcome(reference.pose_from_record)


_BIG_INTS = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 2**64 + 2**11,
             -(2**64), 10**400, -(10**400)]
_LINE_VALUES = [*_ODD_VALUES, *_BIG_INTS, float("-inf"), "\ud800", "a\ud800b", "é"]
_FIELDS = ["x", "y", "vis", "n", "label", "video", "extra"]
_FRAMINGS = ["record", "duplicate key", "trailing data", "bom", "meta", "deep", "deep extra",
             "deep meta"]


def _line_outcome(parse, line):
    try:
        record = parse(line)
    except AnnotationError as exc:
        return str(exc)
    if record is None:
        return None
    video, coords, flags, label = record
    return (video, coords.shape, coords.dtype.str, coords.tobytes(), flags.shape,
            flags.dtype.str, flags.tobytes(), type(label), label)


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 3),
    frames=st.integers(1, 3),
    xy=st.lists(st.floats(width=64), min_size=18, max_size=18),
    vis=st.lists(st.integers(0, 1), min_size=9, max_size=9),
    edits=st.lists(st.tuples(st.sampled_from(_FIELDS), st.integers(0, 8),
                             st.sampled_from(_LINE_VALUES)), max_size=3),
    framing=st.sampled_from(_FRAMINGS),
    duplicate=st.sampled_from([("n", 1), ("n", 2**64), ("video", "w"), ("frames", [])]),
    depth=st.sampled_from([3000, 10000]),
)
def test_line_parser_matches_json_oracle(n, frames, xy, vis, edits, framing, duplicate, depth):
    """A line orjson accepts gives the json-only parser's record bytes or its
    rejection text, and a line orjson refuses gives ``invalid JSON (...)``
    with orjson's message: NaN and Infinity tokens on missing and visible
    joints, integers beyond float64 in each field, lone surrogates in ids,
    duplicate keys, trailing data, a byte-order mark and deep nesting."""
    import orjson

    table = [[[xy[2 * (3 * t + j)], xy[2 * (3 * t + j) + 1], vis[3 * t + j]]
              for j in range(n)] for t in range(frames)]
    record = {"video": "v", "n": n, "label": 1, "frames": table}
    for field, at, value in edits:
        if field in ("x", "y", "vis"):
            table[at // 3 % frames][at % n]["xyv".index(field[0])] = value
        else:
            record[field] = value
    line = json.dumps(record)

    def framed(nest):
        return {
            "record": line,
            "duplicate key": line[:-1] + ", %s: %s}" % tuple(map(json.dumps, duplicate)),
            "trailing data": line + " {}",
            "bom": "\ufeff" + line,
            "meta": '{"_meta": %s}' % line,
            "deep": nest % line,
            "deep extra": line[:-1] + ', "deep": %s}' % (nest % 1),
            "deep meta": '{"_meta": %s}' % (nest % line),
        }[framing]

    text = framed("[" * depth + "%s" + "]" * depth)
    ours = _line_outcome(lambda b: parse_annotation_line(b, n), text.encode("utf-8"))
    try:
        orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        assert ours == f"invalid JSON ({exc.msg})"
        # Trailing data, or a byte-order mark or token RFC 8259 does not allow.
        assert (framing in ("bom", "trailing data")
                or re.search(r"NaN|Infinity|\\ud[89a-f]|\d{310}", text))
        return
    # orjson nests as deep as the stack guard lets a line through, past
    # json's recursion limit, so json reads the deep framings one level deep.
    expected = _line_outcome(lambda shallow: reference.parse_annotation_line(shallow, n),
                             framed("[%s]"))
    values = [value for *_, value in edits] + [duplicate[1]] * (framing == "duplicate key")
    if isinstance(expected, str) and any(type(value) is int and not -(2**63) <= value < 2**64
                                         for value in values):
        # orjson reads such an integer as a float, which a rejection may name.
        assert isinstance(ours, str)
    else:
        assert ours == expected


def test_orjson_decodes_the_traffic(tmp_path, monkeypatch):
    """A synth file at 20% dropout, its _meta line included, parses with the
    stdlib decoder broken, to the records the json-only parser reads."""
    path = tmp_path / "synth.jsonl"
    assert main(["synth", "--out", str(path), "--videos-per-class", "3", "--frames", "8",
                 "--dropout", "0.2"]) == 0
    lines = [line for _, line in iter_annotation_lines(path)]
    expected = [_line_outcome(reference.parse_annotation_line, line.decode()) for line in lines]

    def no_json(*args, **kwargs):
        raise AssertionError("the stdlib JSON decoder ran")

    monkeypatch.setattr(preprocess.json, "loads", no_json)
    assert [_line_outcome(parse_annotation_line, line) for line in lines] == expected
    assert expected[0] is None and all(isinstance(e, tuple) for e in expected[1:])
    assert any(b", 0]" in line for line in lines)  # missing joints were written


def test_missing_joints_holding_nan_written_as_zero(tmp_path, monkeypatch):
    """write_annotations writes 0 for a NaN or infinite coordinate on a
    missing joint: the same bytes as for the corpus holding 0 there, which
    orjson decodes on every line with the stdlib decoder broken."""
    import orjson

    coords = np.random.default_rng(3).normal(size=(2, 4, 3, 2))
    flags = np.ones((4, 3), np.uint8)
    flags[1, 2] = flags[3, 0] = 0
    coords[0, 1, 2] = np.nan, np.inf
    coords[0, 3, 0, 1] = -np.inf
    corpus = PoseCorpus.of([reference.Pose("nan", coords[0], flags, 2),
                            reference.Pose("plain", coords[1], np.ones_like(flags), -1)])
    zeroed = replace(corpus, coords=np.where(np.isfinite(corpus.coords), corpus.coords, 0.0))
    path, expected = tmp_path / "ann.jsonl", tmp_path / "zeroed.jsonl"
    write_annotations(path, corpus, meta={"seed": 1})
    write_annotations(expected, zeroed, meta={"seed": 1})
    assert path.read_bytes() == expected.read_bytes()
    assert all(orjson.loads(line) for _, line in iter_annotation_lines(path))

    def no_json(*args, **kwargs):
        raise AssertionError("the stdlib JSON decoder ran")

    monkeypatch.setattr(preprocess.json, "loads", no_json)
    again = PoseCorpus.of(read_records(path, n_expected=3))
    assert again.videos == corpus.videos and again.labels.tolist() == [2, -1]
    assert again.coords.tobytes() == zeroed.coords.tobytes()
    assert again.flags.tobytes() == corpus.flags.tobytes()


@pytest.mark.parametrize("value, message", [
    (float("nan"), "not JSON compliant"), (-float("inf"), "not JSON compliant"),
    (10**400, "meta is not RFC 8259 JSON"),
])
def test_meta_the_reader_would_refuse_fails_before_the_file_is_opened(tmp_path, value, message):
    corpus = PoseCorpus.of([reference.Pose("a", np.zeros((1, 1, 2)), np.ones((1, 1), np.uint8))])
    path = tmp_path / "ann.jsonl"
    with pytest.raises(ValueError, match=message):
        write_annotations(path, corpus, meta={"seed": value})
    assert not path.exists()


_JSON_DECODERS = {"loads", "load", "JSONDecoder"}


def _json_decoder_uses(tree: ast.AST) -> list[str]:
    """The stdlib JSON decoders tree names: json.loads, json.load and
    json.JSONDecoder as attributes or imported names, and aliased imports of
    json, through which an attribute would go unseen."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "json" and alias.name != "json"
                      or alias.name == "json" and alias.asname]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found += [alias.name for alias in node.names if alias.name in _JSON_DECODERS]
        elif isinstance(node, ast.Attribute) and node.attr in _JSON_DECODERS:
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id == "json":
                found.append(node.attr)
    return found


def test_orjson_is_the_only_annotation_decoder():
    tree = ast.parse(Path(preprocess.__file__).read_text(encoding="utf-8"))
    assert _json_decoder_uses(tree) == []


def test_the_decoder_guard_sees_every_bypass():
    tree = ast.parse("import json\nimport json as j\nimport json.decoder\n"
                     "from json import dumps, loads\nfrom json.decoder import JSONDecoder\n"
                     "json.loads(s)\njson.load(f)\njson.decoder.JSONDecoder()\njson.dumps(x)\n"
                     "orjson.loads(s)\nreader.load(f)\n")
    assert sorted(_json_decoder_uses(tree)) == ["JSONDecoder", "JSONDecoder", "json",
                                                "json.decoder", "load", "loads", "loads"]


@settings(max_examples=200, deadline=None)
@given(text=st.text(st.sampled_from(list(" \t\r\n\x0b\x0c\x1c\x85\xa0\u3000\ufeff{}a")),
                    max_size=30))
def test_annotation_lines_are_those_text_mode_reads(text):
    """Lines end at LF, CR or CR LF, and whitespace-only lines (Unicode
    whitespace too) are skipped, with the numbers a text-mode reader gives."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ann.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            expected = [(number, line.rstrip("\n")) for number, line in enumerate(handle, 1)
                        if line.strip()]
        got = [(number, line.decode("utf-8").rstrip("\n"))
               for number, line in iter_annotation_lines(path)]
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    labelled=st.sampled_from([0.0, 0.5, 1.0]),
    meta=st.sampled_from([None, {"seed": 3, "spec": {"frames": 2, "classes": ["a"]}}]),
)
def test_writer_matches_record_loop(seed, n, counts, labelled, meta):
    """write_annotations writes the json.dumps lines of the per-joint record
    loop, byte for byte: flags 0-4 collapse to vis 0/1, a label of -1 is left
    out, -0.0 and integer-valued floats keep their form, and NaN on missing
    joints is written as 0."""
    rng = np.random.default_rng(seed)
    poses = []
    for i, frames in enumerate(counts):
        coords = rng.normal(scale=100.0, size=(frames, n, 2))
        kind = rng.integers(0, 5, size=coords.shape)
        coords[kind == 1] = -0.0
        coords[kind == 2] = np.round(coords[kind == 2])
        coords[kind == 3] = 1e17
        flags = rng.integers(0, 5, size=(frames, n)).astype(np.uint8)
        coords[(flags == 0)[..., None] & (kind == 4)] = np.nan
        label = int(rng.integers(0, 2**31)) if rng.random() < labelled else -1
        poses.append(reference.Pose(f"clip_é{i}", coords, flags, label))
    lines = [] if meta is None else [json.dumps({"_meta": meta}, sort_keys=True)]
    lines += [json.dumps(reference.pose_to_record(pose)) for pose in poses]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ann.jsonl"
        write_annotations(path, PoseCorpus.of(poses), meta=meta)
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


# Coordinates orjson writes as repr does, and the boundary values just outside
# that range, which repr writes in exponent form.
_PLAIN_VALUES = [1e-4, np.nextafter(1e16, 0), -0.0, 0.0, 1.0, 37.0, -1e15, 123456789012345.0,
                 2.0**53, 0.1, 1 / 3]
_EXPONENT_VALUES = [np.nextafter(1e-4, 0), 1e16, 5e-324, -1e-5, 1e17, -1e300]
# json.dumps escapes these; none may be touched by the frames' byte replaces.
# Ids holding ',' or '"' are refused before anything is written.
_ODD_IDS = ["null", "frames", "frames: null}", "a[1.0] b[0.0]", "tab\there\\", "\x01ctl",
            "café_é", "视频", "\U0001f600", "NaN"]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=len(_ODD_IDS)),
    labelled=st.sampled_from([0.0, 0.5, 1.0]),
    spiked=st.sampled_from([0.0, 0.3]),
)
def test_writer_fast_path_matches_record_loop(seed, n, counts, labelled, spiked):
    """The orjson path writes the json.dumps lines of the per-joint record loop
    byte for byte on in-range coordinates, and every video holding a value
    repr writes in exponent form goes through json.dumps instead."""
    import orjson

    rng = np.random.default_rng(seed)
    poses, plain_videos = [], 0
    for i, frames in enumerate(counts):
        scale = 10.0 ** rng.integers(-3, 15, size=(frames, n, 2))
        coords = rng.normal(size=(frames, n, 2)) * scale
        coords[np.abs(coords) < 1e-4] = 0.5
        kind = rng.integers(0, 4, size=coords.shape)
        coords[kind == 1] = np.round(coords[kind == 1])
        coords[kind == 2] = rng.choice(_PLAIN_VALUES, size=int((kind == 2).sum()))
        if rng.random() < spiked:
            coords[tuple(rng.integers(0, d) for d in coords.shape)] = rng.choice(_EXPONENT_VALUES)
        else:
            plain_videos += 1
        flags = rng.integers(0, 5, size=(frames, n)).astype(np.uint8)
        label = int(rng.integers(0, 2**31)) if rng.random() < labelled else -1
        poses.append(reference.Pose(_ODD_IDS[i], coords, flags, label))
    lines = [json.dumps(reference.pose_to_record(pose)) for pose in poses]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return dumps(*args, **kwargs)

    dumps = orjson.dumps
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(orjson, "dumps", counted)
        path = Path(tmp) / "ann.jsonl"
        write_annotations(path, PoseCorpus.of(poses))
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")
    assert len(calls) == plain_videos


# ---------------------------------------------------------------------------
# Mutation fuzz of annotation lines
# ---------------------------------------------------------------------------

_TOKENS = [b"{", b"}", b"[", b"]", b",", b":", b'"', b"-", b".", b"e", b"0", b"-0", b"1e999",
           b"1e-400", b"18446744073709551616", b"NaN", b"Infinity", b"null", b"true", b"\xff",
           b"\xc3", b"\\u", b"\\ud800", b'"n": 2', b'"frames": []', b'"label": -1',
           b'"video": ""', b'"_meta": {}', b"[[", b"]]"]
# JSON values that stand in for one number or string of a line.
_VALUES = [b"null", b"true", b"-1", b"2.5", b"1e999", b"4294967296", b'"x"', b'""', b"[]", b"{}",
           b"[1, 2]", b"[[0, 0, 1]]", b'{"n": 3}']


@pytest.fixture(scope="module")
def annotation_lines():
    """The lines write_annotations writes for two 3-joint videos, one with
    missing joints, after a _meta line."""
    rng = np.random.default_rng(12)
    vis = np.ones((3, 3), np.uint8)
    vis[1, 2] = vis[2, 0] = 0
    poses = [("walk", rng.normal(size=(2, 3, 2)), np.ones((2, 3), np.uint8), 1),
             ("jump #2", rng.normal(size=(3, 3, 2)) * 1e3, vis, -1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ann.jsonl"
        write_annotations(path, PoseCorpus.of(poses), meta={"seed": 4})
        return [line for _, line in iter_annotation_lines(path)]


@st.composite
def _mutated(draw, lines):
    line = draw(st.sampled_from(lines))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(line)))
        to = draw(st.integers(at, min(len(line), at + 12)))
        kind = draw(st.sampled_from(["cut", "flip", "insert", "duplicate", "delete", "value"]))
        scalars = list(re.finditer(rb'-?\d[\d.eE+-]*|"[^"]*"', line))
        if kind == "value" and scalars:
            span = draw(st.sampled_from(scalars)).span()
            line = line[:span[0]] + draw(st.sampled_from(_VALUES)) + line[span[1]:]
        elif kind == "cut":
            line = line[:at]
        elif kind == "flip" and at < len(line):
            line = line[:at] + bytes([draw(st.integers(0, 255))]) + line[at + 1:]
        elif kind == "insert":
            line = line[:at] + draw(st.sampled_from(_TOKENS)) + line[at:]
        elif kind == "duplicate":
            line = line[:to] + line[at:to] + line[to:]
        elif kind == "delete":
            line = line[:at] + line[to:]
    return line


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data(), n_expected=st.sampled_from([None, 3]))
def test_a_mutated_annotation_line_fails_only_as_an_annotation_error(
        annotation_lines, data, n_expected):
    """Real annotation lines with bytes cut, flipped, inserted, duplicated or
    deleted, or a number or string swapped for another JSON value, either
    parse or raise AnnotationError; warnings are errors here, so a numpy
    warning fails too."""
    line = data.draw(_mutated(annotation_lines))
    try:
        parse_annotation_line(line, n_expected)
    except AnnotationError:
        pass


@settings(max_examples=500, deadline=None)
@given(video=st.text(alphabet=st.characters(min_codepoint=0xD7F0, max_codepoint=0xE010)
                           | st.characters() | st.sampled_from(',"\r\n#'), max_size=8)
       | st.none() | st.integers() | st.binary(max_size=4))
@example(video="\udfff")
@example(video="퟿")
@example(video="a#b")
def test_video_id_rule_matches_the_per_character_loop(video):
    assert is_video_id(video) == reference.is_video_id(video)
