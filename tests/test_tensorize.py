"""Snippet planning, tensor assembly, and filled-corpus file tests."""

import numpy as np
import pytest

from posestream.preprocess import NormalizedPoseSequence
from posestream.skeleton import build_topology, euler_tour, make_topology
from posestream.tensorize import (
    FilledCorpus,
    SnippetPlan,
    _video_seed,
    build_pose_tensor,
    corpus_tensors,
    plan_snippets,
    read_corpus,
    stack_tensors,
    write_corpus,
)


def segment_bounds(num_frames, k):
    """Independent oracle for the segment layout."""
    return [((s * num_frames) // k, ((s + 1) * num_frames) // k) for s in range(k)]


def chain_topology(n):
    return make_topology(
        name=f"chain{n}",
        joint_names=[f"j{i}" for i in range(n)],
        edges=[(f"j{i}", f"j{i+1}") for i in range(n - 1)],
        root="j0",
        parts={f"j{i}": 1 + (i % 5) for i in range(n)},
        torso=("j0", "j1"),
    )


def filled_pose(coords, video="v", label=0):
    coords = np.asarray(coords, dtype=np.float64)
    vis = np.ones(coords.shape[:2], dtype=np.uint8)
    return NormalizedPoseSequence(video=video, coords=coords, visibility=vis, label=label)


class TestPlanSnippets:
    def test_center_thirty_over_fifteen(self):
        # Segments [2s, 2s+2); midpoint (lo+hi)//2 = 2s+1.
        plan = plan_snippets(30, k=15, mode="center")
        assert plan.frames == tuple(range(1, 30, 2))

    def test_singleton_segments(self):
        for mode in ("center", "random"):
            plan = plan_snippets(15, k=15, mode=mode, seed=3)
            assert plan.frames == tuple(range(15))

    def test_short_video_backfill(self):
        # F=7, K=15: every frame appears, empties copy their predecessor,
        # plan is monotone and full length.
        plan = plan_snippets(7, k=15, mode="center")
        assert len(plan.frames) == 15
        assert set(plan.frames) == set(range(7))
        assert all(b >= a for a, b in zip(plan.frames, plan.frames[1:]))

    def test_random_within_segment(self):
        bounds = segment_bounds(120, 15)
        for seed in range(25):
            plan = plan_snippets(120, k=15, mode="random", seed=seed)
            for (lo, hi), frame in zip(bounds, plan.frames):
                assert lo <= frame < hi

    def test_center_within_segment(self):
        for frames in (15, 16, 29, 30, 100, 1000):
            bounds = segment_bounds(frames, 15)
            plan = plan_snippets(frames, k=15, mode="center")
            for (lo, hi), frame in zip(bounds, plan.frames):
                assert lo <= frame < hi

    def test_random_is_seed_deterministic(self):
        a = plan_snippets(200, k=15, mode="random", seed=11)
        b = plan_snippets(200, k=15, mode="random", seed=11)
        c = plan_snippets(200, k=15, mode="random", seed=12)
        assert a.frames == b.frames
        assert a.frames != c.frames  # astronomically unlikely to collide

    def test_rejects_empty_video(self):
        with pytest.raises(ValueError, match="empty video"):
            plan_snippets(0, k=15)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="sampling mode"):
            plan_snippets(10, k=5, mode="fancy")

    def test_plan_validates_frames(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SnippetPlan(frames=(3, 1), num_frames=5)
        with pytest.raises(ValueError, match="outside"):
            SnippetPlan(frames=(0, 9), num_frames=5)


class TestBuildPoseTensor:
    def path_for(self, n):
        return euler_tour(chain_topology(n))

    def test_profile_shapes(self):
        # 15/14/13 joints with K=15 give 15x58x3, 15x54x3, 15x50x3.
        rng = np.random.default_rng(0)
        for profile, width in [("jhmdb_gt", 58), ("estimated_14", 54), ("penn", 50)]:
            topo = build_topology(profile)
            tour = euler_tour(topo)
            pose = filled_pose(rng.normal(size=(30, topo.n, 2)))
            plan = plan_snippets(30, k=15, mode="center")
            tensor = build_pose_tensor(pose, tour, plan)
            assert tensor.data.shape == (15, width, 3)

    def test_static_pose_zero_derivatives(self):
        path = self.path_for(3)
        frame = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        pose = filled_pose(np.repeat(frame[None], 10, axis=0))
        tensor = build_pose_tensor(pose, path, plan_snippets(10, k=5, mode="center"))
        assert (tensor.data[:, :, 1] == 0).all()
        assert (tensor.data[:, :, 2] == 0).all()

    def test_finite_difference_rows(self):
        # Channel-0 first column [0, 2, 6] -> velocity [0, 2, 4],
        # acceleration [0, 2, 2].
        path = self.path_for(2)
        coords = np.zeros((3, 2, 2))
        coords[:, 0, 0] = [0.0, 2.0, 6.0]
        pose = filled_pose(coords)
        plan = plan_snippets(3, k=3, mode="center")
        tensor = build_pose_tensor(pose, path, plan)
        np.testing.assert_allclose(tensor.data[:, 0, 0], [0.0, 2.0, 6.0])
        np.testing.assert_allclose(tensor.data[:, 0, 1], [0.0, 2.0, 4.0])
        np.testing.assert_allclose(tensor.data[:, 0, 2], [0.0, 2.0, 2.0])

    def test_positions_follow_tour_order(self):
        topo = build_topology("jhmdb_gt")
        tour = euler_tour(topo)
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(15, topo.n, 2))
        pose = filled_pose(coords)
        plan = plan_snippets(15, k=15, mode="center")
        tensor = build_pose_tensor(pose, tour, plan)
        for k in range(15):
            expected = np.concatenate([coords[k, j] for j in tour.joints])
            np.testing.assert_array_equal(tensor.data[k, :, 0], expected)

    def test_reconstruction_from_velocity(self):
        rng = np.random.default_rng(2)
        path = self.path_for(4)
        pose = filled_pose(rng.normal(size=(40, 4, 2)))
        plan = plan_snippets(40, k=15, mode="random", seed=5)
        tensor = build_pose_tensor(pose, path, plan)
        rebuilt = tensor.data[0, :, 0] + np.cumsum(tensor.data[:, :, 1], axis=0)
        np.testing.assert_allclose(rebuilt, tensor.data[:, :, 0], atol=1e-12)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(60, 4, 2))
        path = self.path_for(4)
        t1 = build_pose_tensor(filled_pose(coords), path, plan_snippets(60, 15, "random", 9))
        t2 = build_pose_tensor(filled_pose(coords), path, plan_snippets(60, 15, "random", 9))
        assert (t1.data == t2.data).all()

    def test_rejects_missing_joints(self):
        path = self.path_for(2)
        pose = filled_pose(np.zeros((4, 2, 2)))
        pose.visibility[1, 0] = 0
        with pytest.raises(ValueError, match="missing joints"):
            build_pose_tensor(pose, path, plan_snippets(4, k=2, mode="center"))

    def test_rejects_plan_length_mismatch(self):
        path = self.path_for(2)
        pose = filled_pose(np.zeros((4, 2, 2)))
        with pytest.raises(ValueError, match="plan covers"):
            build_pose_tensor(pose, path, plan_snippets(5, k=2, mode="center"))

    def test_consistent_relabeling_keeps_tensor(self):
        # Moving joint data to new indices while renaming the topology the
        # same way (preserving sibling index order, which fixes the tour)
        # yields the identical tensor: ordering follows the topology.
        topo = make_topology(
            name="orig",
            joint_names=["r", "a", "b"],
            edges=[("r", "a"), ("r", "b")],
            root="r",
            parts={"r": 5, "a": 1, "b": 2},
            torso=("a", "b"),
        )
        perm = [2, 0, 1]  # old index -> new index, order-preserving on siblings
        permuted = make_topology(
            name="perm",
            joint_names=["a", "b", "r"],
            edges=[("r", "a"), ("r", "b")],
            root="r",
            parts={"r": 5, "a": 1, "b": 2},
            torso=("a", "b"),
        )
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(6, 3, 2))
        new_coords = np.empty_like(coords)
        for old, new in enumerate(perm):
            new_coords[:, new] = coords[:, old]
        plan = plan_snippets(6, k=3, mode="center")
        t_orig = build_pose_tensor(filled_pose(coords), euler_tour(topo), plan)
        t_perm = build_pose_tensor(filled_pose(new_coords), euler_tour(permuted), plan)
        np.testing.assert_array_equal(t_orig.data, t_perm.data)


class TestTensorCache:
    """The filled-corpus file that preprocess writes at the --cache path."""

    def make_tensors(self, count=3, k=5, n=4):
        rng = np.random.default_rng(7)
        tour = euler_tour(chain_topology(n))
        tensors = []
        for i in range(count):
            pose = filled_pose(rng.normal(size=(20, n, 2)), video=f"vid{i}", label=i % 2)
            plan = plan_snippets(20, k=k, mode="random", seed=i)
            tensors.append(build_pose_tensor(pose, tour, plan))
        return tensors

    def make_corpus(self, frames=(20, 3, 9), n=4, labels=(0, None, 1)):
        rng = np.random.default_rng(8)
        poses = []
        for i, (count, label) in enumerate(zip(frames, labels)):
            pose = filled_pose(rng.normal(size=(count, n, 2)), video=f"vid{i}", label=label)
            pose.visibility[:] = rng.integers(1, 5, size=pose.visibility.shape)
            poses.append(pose)
        return FilledCorpus(euler_tour(chain_topology(n)), 42, "abc123", poses)

    def test_round_trip(self, tmp_path):
        corpus = self.make_corpus()
        path = tmp_path / "corpus.bin"
        write_corpus(path, corpus)
        loaded = read_corpus(path)
        assert loaded.seed == 42
        assert loaded.config_hash == "abc123"
        assert loaded.path == corpus.path
        assert [s.video for s in loaded.poses] == ["vid0", "vid1", "vid2"]
        assert [s.label for s in loaded.poses] == [0, None, 1]
        for original, again in zip(corpus.poses, loaded.poses):
            # Coordinates are float64 on disk: bit-exact, like the flags.
            np.testing.assert_array_equal(again.coords, original.coords)
            np.testing.assert_array_equal(again.visibility, original.visibility)

    def test_rejects_empty(self, tmp_path):
        tour = euler_tour(chain_topology(4))
        with pytest.raises(ValueError, match="empty"):
            write_corpus(tmp_path / "x.bin", FilledCorpus(tour, 0, "", []))

    def test_rejects_mixed_shapes(self, tmp_path):
        a = filled_pose(np.zeros((5, 4, 2)), video="a")
        b = filled_pose(np.zeros((5, 3, 2)), video="b")
        tour = euler_tour(chain_topology(4))
        with pytest.raises(ValueError, match="joint count"):
            write_corpus(tmp_path / "x.bin", FilledCorpus(tour, 0, "", [a, b]))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_corpus(path)

    @pytest.mark.parametrize("field, patch, message", [
        ("version", lambda raw, at: raw[:4] + b"\x09" + raw[5:], "version 9"),
        ("offsets", lambda raw, at: raw[:at["offsets"] + 8] + b"\x00" * 8
         + raw[at["offsets"] + 16:], "frame offsets"),
        ("label", lambda raw, at: raw[:at["labels"]] + np.int32(-2).tobytes()
         + raw[at["labels"] + 4:], "labels below -1"),
        ("flag 0", lambda raw, at: raw[:-1] + b"\x00", "fill flags"),
        ("flag 5", lambda raw, at: raw[:-1] + b"\x05", "fill flags"),
        ("nan", lambda raw, at: raw[:at["flags"] - 8] + np.float64(np.nan).tobytes()
         + raw[at["flags"]:], "non-finite"),
        ("trailing", lambda raw, at: raw + b"\x00", "trailing bytes"),
    ])
    def test_reader_rejects_defects_naming_file_and_field(self, tmp_path, field, patch, message):
        corpus = self.make_corpus()
        good = tmp_path / "good.bin"
        write_corpus(good, corpus)
        raw = good.read_bytes()
        # Header: magic, version, topology name, tour, config hash, seed,
        # video count, joint count; the flags are the last F * n bytes.
        header = 8 + 4 + len(corpus.path.topology) + 4 + 4 * len(corpus.path) + 4 + 6 + 8 + 4 + 4
        flags = sum(s.visibility.size for s in corpus.poses)
        offsets = 8 * (len(corpus.poses) + 1)
        at = {"offsets": header, "labels": header + offsets, "flags": len(raw) - flags}
        bad = tmp_path / "bad.bin"
        bad.write_bytes(patch(raw, at))
        with pytest.raises(ValueError, match=message) as exc:
            read_corpus(bad)
        assert str(bad) in str(exc.value)

    def test_corpus_tensors_follow_the_seed_rule(self):
        corpus = self.make_corpus()
        tensors = corpus_tensors(corpus, k=5, mode="random", seed=3, epoch=2)
        for tensor, seq in zip(tensors, corpus.poses):
            plan = plan_snippets(seq.num_frames, k=5, mode="random",
                                 seed=_video_seed(3, seq.video, 2))
            expected = build_pose_tensor(seq, corpus.path, plan)
            np.testing.assert_array_equal(tensor.data, expected.data)
            assert tensor.label == seq.label
        # A video's plan does not depend on the rest of the corpus.
        alone = FilledCorpus(corpus.path, 42, "", corpus.poses[1:2])
        only = corpus_tensors(alone, k=5, mode="random", seed=3, epoch=2)[0]
        np.testing.assert_array_equal(only.data, tensors[1].data)

    def test_stack_tensors(self):
        tensors = self.make_tensors()
        data, labels = stack_tensors(tensors)
        assert data.shape == (3, 5, 14, 3)
        np.testing.assert_array_equal(labels, [0, 1, 0])

    def test_stack_rejects_unlabeled(self):
        tensors = self.make_tensors()
        tensors[1].label = None
        with pytest.raises(ValueError, match="without labels"):
            stack_tensors(tensors)
