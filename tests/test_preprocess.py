"""Normalization, interpolation, and annotation I/O tests."""

import copy
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import preprocess_reference as reference
from posestream.cli import cmd_preprocess
from posestream.config import PipelineConfig
from posestream.fusion import StreamScores, read_labels, read_scores, write_labels, write_scores

from posestream.preprocess import (
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
from posestream.skeleton import build_topology, make_topology

JHMDB = build_topology("jhmdb_gt")


def simple_topology():
    """Three joints: neck, belly (torso), wrist (part 1)."""
    return make_topology(
        name="tiny",
        joint_names=["neck", "belly", "wrist"],
        edges=[("neck", "belly"), ("neck", "wrist")],
        root="neck",
        parts={"neck": 5, "belly": 5, "wrist": 1},
        torso=("neck", "belly"),
    )


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

    Any joint pair is then exactly affine in each other, so a degree-1 fit
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
        model = fit_spatial_model(one_video(coords), topo, degree=1)
        pred = model.predict(0, 1, np.array([0.3, 0.7]))
        np.testing.assert_allclose(pred, [0.3, -0.3], atol=1e-9)

    def test_affine_recovery(self):
        corpus = affine_corpus(JHMDB)
        model = fit_spatial_model(corpus, JHMDB, degree=1)
        coords = corpus.coords
        for s, t in [(0, 1), (3, 11), (14, 2)]:
            preds = np.array([model.predict(s, t, coords[f, s]) for f in range(10)])
            np.testing.assert_allclose(preds, coords[:10, t], atol=1e-6)

    def test_single_frame_fallback(self):
        topo = simple_topology()
        coords = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]])
        model = fit_spatial_model(one_video(coords), topo, degree=1)
        # Mean offset: joint 1 = joint 0 + (1, 1) on the only sample.
        np.testing.assert_allclose(model.predict(0, 1, np.array([5.0, 5.0])), [6.0, 6.0])
        assert model.trained[0, 1]

    def test_pairs_never_filled_together_stay_untrained(self):
        topo = simple_topology()
        coords = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]] * 2)
        vis = np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)
        model = fit_spatial_model(one_video(coords, vis), topo, degree=1)
        np.testing.assert_array_equal(
            model.trained, [[False, True, True], [True, False, False], [True, False, False]]
        )

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="degree"):
            fit_spatial_model(affine_corpus(JHMDB), JHMDB, degree=3)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            fit_spatial_model(PoseCorpus.of([]), JHMDB)

    def test_degree_two_fits_quadratic(self):
        topo = simple_topology()
        rng = np.random.default_rng(5)
        src = rng.uniform(-1, 1, size=(80, 2))
        tgt = np.stack([src[:, 0] ** 2, src[:, 0] * src[:, 1]], axis=1)
        coords = np.stack([src, tgt, src + 1.0], axis=1)
        model = fit_spatial_model(one_video(coords), topo, degree=2)
        pred = model.predict(0, 1, np.array([0.4, -0.3]))
        np.testing.assert_allclose(pred, [0.16, -0.12], atol=1e-9)

    def test_model_file_with_counts_fills_identically(self, tmp_path):
        # Model files once also held a per-pair sample count; load ignores it.
        corpus = affine_corpus(JHMDB)
        model = fit_spatial_model(corpus, JHMDB, degree=1)
        old, new = tmp_path / "old.npz", tmp_path / "new.npz"
        _write_npz(old, counts=np.ones((JHMDB.n, JHMDB.n), dtype=np.int64))
        model.save(new)
        assert "counts" in np.load(old).files
        rng = np.random.default_rng(3)
        vis = (rng.random(corpus.flags.shape) > 0.3).astype(np.uint8)
        holed = replace(corpus, flags=np.where(vis, corpus.flags, VIS_MISSING))
        old_fill = spatial_interpolate(holed, SpatialModel.load(old), JHMDB)
        new_fill = spatial_interpolate(holed, SpatialModel.load(new), JHMDB)
        assert old_fill.coords.tobytes() == new_fill.coords.tobytes()
        np.testing.assert_array_equal(old_fill.flags, new_fill.flags)
        assert (new_fill.flags == VIS_SPATIAL).any()

    def test_save_load_round_trip(self, tmp_path):
        model = fit_spatial_model(affine_corpus(JHMDB), JHMDB, degree=1)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = type(model).load(path)
        assert loaded.topology_name == model.topology_name
        assert loaded.degree == model.degree
        np.testing.assert_array_equal(loaded.coeffs, model.coeffs)
        np.testing.assert_array_equal(loaded.trained, model.trained)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_predict_is_array_valued(self, degree):
        model = fit_spatial_model(affine_corpus(JHMDB), JHMDB, degree=degree)
        rng = np.random.default_rng(degree)
        sources, targets = rng.integers(0, JHMDB.n, size=(2, 40))
        xy = rng.normal(size=(40, 2))
        rows = model.predict(sources, targets, xy)
        assert rows.shape == (40, 2)
        for s, t, p, row in zip(sources, targets, xy, rows):
            np.testing.assert_array_equal(row, reference.predict(model, s, t, p))
            np.testing.assert_array_equal(row, model.predict(s, t, p))


def _write_npz(path, **changes):
    """A valid degree-1 model file with some fields replaced; None drops a field."""
    model = fit_spatial_model(affine_corpus(JHMDB), JHMDB, degree=1)
    fields = dict(topology_name=np.array(model.topology_name), degree=np.array(1),
                  coeffs=model.coeffs, trained=model.trained)
    fields.update(changes)
    with open(path, "wb") as handle:
        np.savez(handle, **{k: v for k, v in fields.items() if v is not None})


def _bare_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.zeros(3))


def _truncated(path):
    _write_npz(path)
    path.write_bytes(path.read_bytes()[:300])


MODEL_DEFECTS = {
    "truncated zip": (_truncated, "not a spatial model .npz"),
    "not a zip": (lambda p: p.write_bytes(b"hello, not a model\n"), "not a spatial model .npz"),
    "a bare .npy": (_bare_npy, "not a spatial model .npz"),
    "missing key": (lambda p: _write_npz(p, trained=None), "field 'trained' is missing"),
    "degree 3": (lambda p: _write_npz(p, degree=np.array(3)), "field 'degree'"),
    "float degree": (lambda p: _write_npz(p, degree=np.array(1.0)), "field 'degree'"),
    "name not a string": (lambda p: _write_npz(p, topology_name=np.array(7)), "field 'topology_name'"),
    "5x5 coeffs": (lambda p: _write_npz(p, coeffs=np.zeros((5, 5, 3, 2))), "field 'trained'"),
    "degree-2 coeffs": (lambda p: _write_npz(p, coeffs=np.zeros((15, 15, 6, 2))), "field 'coeffs'"),
    "non-finite coeffs": (
        lambda p: _write_npz(p, coeffs=np.full((15, 15, 3, 2), np.nan)), "field 'coeffs'"),
    "int trained": (
        lambda p: _write_npz(p, trained=np.ones((15, 15), dtype=np.int64)), "field 'trained'"),
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_spatial_model_load_names_file_and_field(defect, tmp_path):
    make, message = MODEL_DEFECTS[defect]
    path = tmp_path / "model.npz"
    make(path)
    with pytest.raises(ValueError, match="spatial model") as info:
        SpatialModel.load(path)
    assert str(path) in str(info.value)
    assert message in str(info.value)


class TestSpatialInterpolate:
    def test_mean_of_votes(self):
        # Two voters predicting (1,0) and (3,0) must fill (2,0). Use a
        # constant-offset corpus so the predictions are exact.
        topo = make_topology(
            name="three_arm",
            joint_names=["neck", "belly", "a", "b", "c"],
            edges=[("neck", "belly"), ("neck", "a"), ("a", "b"), ("b", "c")],
            root="neck",
            parts={"neck": 5, "belly": 5, "a": 1, "b": 1, "c": 1},
            torso=("neck", "belly"),
        )
        rng = np.random.default_rng(2)
        base = rng.uniform(size=(50, 1, 2))
        coords = np.concatenate(
            [base, base + [0.0, 1.0], base + [1.0, 0.0], base + [3.0, 0.0], base + [2.0, 0.0]],
            axis=1,
        )
        model = fit_spatial_model(one_video(coords), topo, degree=1)

        frame = np.array([[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [3.0, 0.0], [99.0, 99.0]]])
        vis = np.array([[1, 1, 1, 1, 0]], dtype=np.uint8)
        out = spatial_interpolate(one_video(frame, vis), model, topo)
        # Voters a and b (same part) predict c at (2,0) and (2,0) exactly;
        # with the offsets above the mean is (2, 0).
        np.testing.assert_allclose(out.coords[0, 4], [2.0, 0.0], atol=1e-9)
        assert out.flags[0, 4] == VIS_SPATIAL

    def test_identity_when_nothing_missing(self):
        model = fit_spatial_model(affine_corpus(JHMDB), JHMDB, degree=1)
        pose = affine_corpus(JHMDB, num_frames=4, seed=1)
        out = spatial_interpolate(pose, model, JHMDB)
        np.testing.assert_array_equal(out.coords, pose.coords)
        np.testing.assert_array_equal(out.flags, pose.flags)

    def test_knocked_out_joint_recovered(self):
        model = fit_spatial_model(affine_corpus(JHMDB, num_frames=80), JHMDB, degree=1)
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
        return SpatialModel(topology_name=topo.name, degree=1, coeffs=coeffs, trained=trained)

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
        model = fit_spatial_model(one_video(coords), topo, degree=1)
        model = replace(model, trained=np.zeros_like(model.trained))  # every voter abstains
        vis = np.array([[1, 1, 0]], dtype=np.uint8)
        out = spatial_interpolate(one_video(coords, vis), model, topo)
        np.testing.assert_allclose(out.coords[0, 2], [0.0, 0.0])
        assert out.flags[0, 2] == VIS_SYNTHETIC

    def test_no_missing_after_interpolation(self):
        rng = np.random.default_rng(9)
        model = fit_spatial_model(affine_corpus(JHMDB, num_frames=100), JHMDB, degree=1)
        probe = affine_corpus(JHMDB, num_frames=12, seed=3)
        vis = (rng.random(probe.flags.shape) > 0.4).astype(np.uint8)
        out = spatial_interpolate(one_video(probe.coords, vis, video="p"), model, JHMDB)
        assert (out.flags > 0).all()

    def test_topology_mismatch_rejected(self):
        model = fit_spatial_model(affine_corpus(JHMDB), JHMDB, degree=1)
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

    def test_reader_reports_line_numbers(self, tmp_path):
        report = preprocess_file(tmp_path, [record_line("a"), "", "not json"])
        assert [entry["line"] for entry in report["rejected"]] == [3]
        assert report["rejected"][0]["error"].startswith("invalid JSON")

    @pytest.mark.parametrize("video", ["a,b", 'a"b', "a\rb", "a\nb", "#a", "\ud800"])
    def test_rejects_ids_the_csvs_cannot_carry(self, video):
        with pytest.raises(AnnotationError, match="video id"):
            pose_from_record({"video": video, "n": 1, "frames": [[[0, 0, 1]]]})

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
@given(**corpus_knobs, degree=st.sampled_from([1, 2]),
       min_samples=st.sampled_from([1, 4, 12]), abstain=st.sampled_from([0.0, 0.5]))
def test_fit_and_fill_match_loops(seed, topo, counts, dropout, degenerate, max_gap,
                                  degree, min_samples, abstain):
    # Small corpora make rank-deficient designs and untrained pairs common.
    rng = np.random.default_rng(seed)
    poses = [reference.normalize(p, topo)
             for p in noisy_poses(topo, rng, counts, dropout, degenerate, max_gap)]
    corpus = PoseCorpus.of(poses)
    model = fit_spatial_model(corpus, topo, degree=degree)
    loop_model = reference.fit_spatial_model(poses, topo, degree=degree)
    assert model.coeffs.tobytes() == loop_model.coeffs.tobytes()
    np.testing.assert_array_equal(model.trained, loop_model.trained)

    # Untrain pairs with few samples, and more at random, so that untrained voters abstain.
    sampled = reference.fit_spatial_model(poses, topo, degree=degree, min_samples=min_samples)
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
    out, and -0.0, integer-valued floats and NaN on missing joints keep their form."""
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
