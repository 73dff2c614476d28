"""Snippet planning, tensor assembly, and filled-corpus file tests."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorize_reference as reference
from conftest import write_raw
from posestream import binio
from posestream.config import NET_DTYPE
from posestream.preprocess import PoseCorpus
from preprocess_reference import Pose
from posestream.skeleton import build_topology, euler_tour, make_topology
from posestream.tensorize import (
    CORPUS_FILE,
    FilledCorpus,
    _video_seed,
    corpus_tensors,
    read_corpus,
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
    return Pose(video, coords, vis, label)


def filled_corpus(path, poses, seed=0, config_hash=""):
    return FilledCorpus(**vars(PoseCorpus.of(poses)), path=path, seed=seed,
                        config_hash=config_hash)


def tensor_of(pose, path, k, mode="center", seed=0):
    """The tensor corpus_tensors builds for a one-video corpus."""
    return corpus_tensors(filled_corpus(path, [pose]), [0], k=k, mode=mode, seed=seed)[0]


def planned_frames(num_frames, k=15, mode="random", seed=0):
    """The snippet frames corpus_tensors picks for one video: its first joint's
    x coordinate is the frame index, and channel 0 column 0 reads it back."""
    coords = np.zeros((num_frames, 2, 2))
    coords[:, 0, 0] = np.arange(num_frames)
    tensor = tensor_of(filled_pose(coords), euler_tour(chain_topology(2)), k, mode, seed)
    return tuple(int(f) for f in tensor[:, 0, 0])


class TestPlanSnippets:
    def test_center_thirty_over_fifteen(self):
        # Segments [2s, 2s+2); midpoint (lo+hi)//2 = 2s+1.
        assert planned_frames(30, k=15, mode="center") == tuple(range(1, 30, 2))

    def test_singleton_segments(self):
        for mode in ("center", "random"):
            assert planned_frames(15, k=15, mode=mode, seed=3) == tuple(range(15))

    def test_short_video_backfill(self):
        # F=7, K=15: every frame appears, empties copy their predecessor,
        # plan is monotone and full length.
        frames = planned_frames(7, k=15, mode="center")
        assert len(frames) == 15
        assert set(frames) == set(range(7))
        assert all(b >= a for a, b in zip(frames, frames[1:]))

    def test_random_within_segment(self):
        bounds = segment_bounds(120, 15)
        for seed in range(25):
            frames = planned_frames(120, k=15, mode="random", seed=seed)
            for (lo, hi), frame in zip(bounds, frames):
                assert lo <= frame < hi

    def test_center_within_segment(self):
        for count in (15, 16, 29, 30, 100, 1000):
            bounds = segment_bounds(count, 15)
            frames = planned_frames(count, k=15, mode="center")
            for (lo, hi), frame in zip(bounds, frames):
                assert lo <= frame < hi

    def test_random_is_seed_deterministic(self):
        a = planned_frames(200, k=15, mode="random", seed=11)
        b = planned_frames(200, k=15, mode="random", seed=11)
        c = planned_frames(200, k=15, mode="random", seed=12)
        assert a == b
        assert a != c  # astronomically unlikely to collide

    def test_rejects_empty_video(self):
        with pytest.raises(ValueError, match="empty video"):
            planned_frames(0, k=15)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="sampling mode"):
            planned_frames(10, k=5, mode="fancy")

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 60), k=st.integers(1, 20), mode=st.sampled_from(["random", "center"]),
           seed=st.integers(0, 2**32 - 1))
    def test_frames_inside_video_and_non_decreasing(self, count, k, mode, seed):
        frames = planned_frames(count, k=k, mode=mode, seed=seed)
        assert len(frames) == k
        assert all(0 <= f < count for f in frames)
        assert all(b >= a for a, b in zip(frames, frames[1:]))


class TestBuildPoseTensor:
    def path_for(self, n):
        return euler_tour(chain_topology(n))

    def test_profile_shapes(self):
        # 15/14/13 joints with K=15 give 15x58x3, 15x54x3, 15x50x3.
        rng = np.random.default_rng(0)
        for profile, width in [("jhmdb_gt", 58), ("estimated_14", 54), ("penn", 50)]:
            topo = build_topology(profile)
            pose = filled_pose(rng.normal(size=(30, topo.n, 2)))
            assert tensor_of(pose, euler_tour(topo), 15).shape == (15, width, 3)

    def test_static_pose_zero_derivatives(self):
        path = self.path_for(3)
        frame = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        tensor = tensor_of(filled_pose(np.repeat(frame[None], 10, axis=0)), path, 5)
        assert (tensor[:, :, 1] == 0).all()
        assert (tensor[:, :, 2] == 0).all()

    def test_finite_difference_rows(self):
        # Channel-0 first column [0, 2, 6] -> velocity [0, 2, 4],
        # acceleration [0, 2, 2].
        path = self.path_for(2)
        coords = np.zeros((3, 2, 2))
        coords[:, 0, 0] = [0.0, 2.0, 6.0]
        tensor = tensor_of(filled_pose(coords), path, 3)
        np.testing.assert_allclose(tensor[:, 0, 0], [0.0, 2.0, 6.0])
        np.testing.assert_allclose(tensor[:, 0, 1], [0.0, 2.0, 4.0])
        np.testing.assert_allclose(tensor[:, 0, 2], [0.0, 2.0, 2.0])

    def test_positions_follow_tour_order(self):
        topo = build_topology("jhmdb_gt")
        tour = euler_tour(topo)
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(15, topo.n, 2))
        tensor = tensor_of(filled_pose(coords), tour, 15)
        for k in range(15):
            expected = np.concatenate([coords[k, j] for j in tour.joints]).astype(NET_DTYPE)
            assert tensor[k, :, 0].tobytes() == expected.tobytes()

    def test_reconstruction_from_velocity(self):
        # Multiples of 1/64 below 8 in magnitude: every difference and partial
        # sum is exact in float32, so the velocity integrates back exactly.
        rng = np.random.default_rng(2)
        path = self.path_for(4)
        coords = rng.integers(-256, 256, size=(40, 4, 2)) / 64
        tensor = tensor_of(filled_pose(coords), path, 15, "random", 5)
        rebuilt = tensor[0, :, 0] + np.cumsum(tensor[:, :, 1], axis=0)
        assert rebuilt.tobytes() == tensor[:, :, 0].tobytes()

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(60, 4, 2))
        path = self.path_for(4)
        t1 = tensor_of(filled_pose(coords), path, 15, "random", 9)
        t2 = tensor_of(filled_pose(coords), path, 15, "random", 9)
        assert t1.tobytes() == t2.tobytes()

    def test_rejects_missing_joints(self):
        path = self.path_for(2)
        pose = filled_pose(np.zeros((4, 2, 2)))
        pose.flags[1, 0] = 0
        with pytest.raises(ValueError, match="missing joints"):
            tensor_of(pose, path, 2)

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
        t_orig = tensor_of(filled_pose(coords), euler_tour(topo), 3)
        t_perm = tensor_of(filled_pose(new_coords), euler_tour(permuted), 3)
        np.testing.assert_array_equal(t_orig, t_perm)


class TestTensorCache:
    """The filled-corpus file that preprocess writes at the --cache path."""

    def make_poses(self, frames=(20, 3, 9), n=4, labels=(0, -1, 1)):
        rng = np.random.default_rng(8)
        poses = []
        for i, (count, label) in enumerate(zip(frames, labels)):
            pose = filled_pose(rng.normal(size=(count, n, 2)), video=f"vid{i}", label=label)
            pose.flags[:] = rng.integers(1, 5, size=pose.flags.shape)
            poses.append(pose)
        return poses

    def make_corpus(self, frames=(20, 3, 9), n=4, labels=(0, -1, 1)):
        poses = self.make_poses(frames, n, labels)
        return filled_corpus(euler_tour(chain_topology(n)), poses, 42, "abc123")

    def test_round_trip(self, tmp_path):
        corpus = self.make_corpus()
        path = tmp_path / "corpus.bin"
        write_corpus(path, corpus)
        loaded = read_corpus(path)
        assert loaded.seed == 42
        assert loaded.config_hash == "abc123"
        assert loaded.path == corpus.path
        assert loaded.videos == ("vid0", "vid1", "vid2")
        np.testing.assert_array_equal(loaded.labels, [0, -1, 1])
        np.testing.assert_array_equal(loaded.offsets, [0, 20, 23, 32])
        # Coordinates are held and stored as the float32 cast of the float64
        # ones the corpus was built from: bit-exact, like the flags.
        written = np.concatenate([pose.coords for pose in self.make_poses()])
        assert written.dtype == np.float64 and loaded.coords.dtype == NET_DTYPE
        assert loaded.coords.tobytes() == written.astype(np.float32).tobytes()
        np.testing.assert_array_equal(loaded.flags, corpus.flags)

    def test_rejects_empty(self, tmp_path):
        tour = euler_tour(chain_topology(4))
        with pytest.raises(ValueError, match="empty"):
            filled_corpus(tour, [])

    def test_rejects_mixed_shapes(self, tmp_path):
        a = filled_pose(np.zeros((5, 4, 2)), video="a")
        b = filled_pose(np.zeros((5, 3, 2)), video="b")
        tour = euler_tour(chain_topology(4))
        with pytest.raises(ValueError, match="joint count"):
            filled_corpus(tour, [a, b])

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_corpus(path)

    @pytest.mark.parametrize("field, patch, message", [
        ("version", lambda raw, at: raw[:4] + b"\x09" + raw[5:], "version 9"),
        ("offsets", lambda raw, at: raw[:at["offsets"] + 8] + b"\x00" * 8
         + raw[at["offsets"] + 16:], "frame offsets"),
        ("label", lambda raw, at: raw[:at["labels"]] + np.int64(-2).tobytes()
         + raw[at["labels"] + 8:], "labels below -1"),
        ("flag 0", lambda raw, at: raw[:-1] + b"\x00", "fill flags"),
        ("flag 5", lambda raw, at: raw[:-1] + b"\x05", "fill flags"),
        ("nan", lambda raw, at: raw[:at["flags"] - 4] + np.float32(np.nan).tobytes()
         + raw[at["flags"]:], "non-finite float32"),
        ("trailing", lambda raw, at: raw + b"\x00", "trailing bytes"),
        ("ids", lambda raw, at: raw.replace(b'"vid2"', b'"vid1"'), "video ids are not unique"),
        ("seed", lambda raw, at: raw.replace(b'"seed": 42', b'"seed": -4'), "seed must be >= 0"),
        ("joints", lambda raw, at: raw.replace(b'"joints": 4', b'"joints":-4'),
         r"array 'coords' has a negative dimension: \(32, -4, 2\)"),
    ])
    def test_reader_rejects_defects_naming_file_and_field(self, tmp_path, field, patch, message):
        corpus = self.make_corpus()
        good = tmp_path / "good.bin"
        write_corpus(good, corpus)
        raw = good.read_bytes()
        # The int64 offsets follow the prefix and header, then the int64
        # labels; the flags are the last F * n bytes.
        _, _, length = binio.PREFIX.unpack_from(raw)
        offsets = binio.PREFIX.size + length
        at = {"offsets": offsets, "labels": offsets + 8 * (len(corpus.videos) + 1),
              "flags": len(raw) - corpus.flags.size}
        bad = tmp_path / "bad.bin"
        bad.write_bytes(patch(raw, at))
        with pytest.raises(ValueError, match=message) as exc:
            read_corpus(bad)
        assert str(bad) in str(exc.value)

    @pytest.mark.parametrize("video", ["a,bc", "#vid"])
    def test_an_id_no_csv_can_hold_is_refused_on_write_and_read(self, tmp_path, video):
        corpus = self.make_corpus()
        message = f"cannot write video id {re.escape(repr(video))}"
        with pytest.raises(ValueError, match=message):
            replace(corpus, videos=("vid0", video, "vid2"))
        good = tmp_path / "good.bin"
        write_corpus(good, corpus)
        bad = tmp_path / "bad.bin"  # the same length of id keeps the header's framing
        bad.write_bytes(good.read_bytes().replace(b'"vid1"', f'"{video}"'.encode()))
        with pytest.raises(ValueError, match=message) as exc:
            read_corpus(bad)
        assert str(exc.value).startswith(f"{bad}: ")

    def test_rejects_non_finite_coordinates(self):
        corpus = self.make_corpus()
        coords = corpus.coords.copy()
        coords[21, 1, 0] = np.inf
        with pytest.raises(ValueError, match="video 'vid1' has non-finite"):
            replace(corpus, coords=coords)

    @pytest.mark.filterwarnings("error")
    def test_a_coordinate_beyond_float32_is_refused_naming_the_video(self):
        # 1e300 is finite in float64 but casts to inf in float32; 1e30 fits.
        poses = self.make_poses()
        poses[2].coords[4, 3, 1] = 1e300
        with pytest.raises(ValueError, match=r"^video 'vid2' has non-finite float32 "
                                             r"coordinates on filled joints$"):
            filled_corpus(euler_tour(chain_topology(4)), poses)
        poses[2].coords[4, 3, 1] = 1e30
        corpus = filled_corpus(euler_tour(chain_topology(4)), poses)
        assert corpus.coords[23 + 4, 3, 1] == np.float32(1e30)

    def test_rejects_a_version_2_corpus_naming_the_file(self, tmp_path):
        # Version 2 held the same header and arrays, the coordinates as float64.
        corpus = self.make_corpus()
        path = tmp_path / "corpus.bin"
        header = {"topology": corpus.path.topology, "tour": list(corpus.path.joints),
                  "config_hash": corpus.config_hash, "seed": corpus.seed,
                  "videos": list(corpus.videos), "frames": len(corpus.coords),
                  "joints": corpus.num_joints}
        arrays = {"offsets": corpus.offsets, "labels": corpus.labels,
                  "coords": corpus.coords.astype(np.float64), "flags": corpus.flags}
        write_raw(path, replace(CORPUS_FILE, version=2), header, arrays)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported "
                                             r"filled-corpus version 2 \(this reader reads "
                                             r"version 3\)$"):
            read_corpus(path)

    def test_corpus_tensors_follow_the_seed_rule(self):
        corpus = self.make_corpus()
        data = corpus_tensors(corpus, range(3), k=5, mode="random", seed=3, epoch=2)
        for row, video in enumerate(corpus.videos):
            lo, hi = corpus.offsets[row:row + 2]
            frames = reference.plan_snippets(int(hi - lo), k=5, mode="random",
                                             seed=_video_seed(3, video, 2))
            expected = reference.build_pose_tensor(corpus.coords[lo:hi], corpus.path, frames)
            assert data[row].tobytes() == expected.tobytes()
        # A video's plan does not depend on the rest of the corpus.
        alone = filled_corpus(corpus.path, [filled_pose(corpus.coords[20:23], video="vid1")])
        only = corpus_tensors(alone, [0], k=5, mode="random", seed=3, epoch=2)[0]
        assert only.tobytes() == data[1].tobytes()

    def test_stack_tensors(self):
        corpus = self.make_corpus()
        data = corpus_tensors(corpus, range(3), k=5, mode="center", seed=0)
        assert data.shape == (3, *corpus.tensor_shape(5)) == (3, 5, 14, 3)
        assert data.dtype == NET_DTYPE and corpus.labels.dtype == np.int64
        np.testing.assert_array_equal(corpus.labels, [0, -1, 1])
        for out in (np.empty((2, 5, 14, 3), NET_DTYPE), np.empty((3, 5, 14, 3))):
            with pytest.raises(ValueError, match=r"out must be a float32 array of shape "
                                                 r"\(3, 5, 14, 3\)"):
                corpus_tensors(corpus, range(3), k=5, mode="center", seed=0, out=out)

    def test_unlabeled_videos_read_minus_one(self, tmp_path):
        corpus = self.make_corpus(labels=(-1, -1, 2))
        write_corpus(tmp_path / "c.bin", corpus)
        labels = read_corpus(tmp_path / "c.bin").labels
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [-1, -1, 2])


@st.composite
def corpora(draw):
    """Random corpora: frame counts from 1 (so F < K) upwards, 2-4 joints."""
    n = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poses = [filled_pose(rng.normal(size=(count, n, 2)), video=f"clip{i}", label=i)
             for i, count in enumerate(counts)]
    return filled_corpus(euler_tour(chain_topology(n)), poses, seed=1)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), k=st.integers(1, 20), mode=st.sampled_from(["random", "center"]),
       seed=st.integers(0, 2**64 - 1), epoch=st.none() | st.integers(0, 50))
def test_corpus_tensors_match_per_video_reference(corpus, k, mode, seed, epoch):
    data = corpus_tensors(corpus, range(len(corpus.videos)), k=k, mode=mode, seed=seed,
                          epoch=epoch)
    expected = reference.corpus_tensors(corpus, k, mode, seed, epoch)
    assert data.dtype == expected.dtype and data.shape == expected.shape
    assert data.tobytes() == expected.tobytes()
    # A buffer a caller reuses, whatever it held, gets the same bits.
    out = np.full(expected.shape, np.nan, NET_DTYPE)
    assert corpus_tensors(corpus, range(len(corpus.videos)), k=k, mode=mode, seed=seed,
                          epoch=epoch, out=out) is out
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(corpus=corpora(), k=st.integers(1, 20), mode=st.sampled_from(["random", "center"]),
       seed=st.integers(0, 2**64 - 1), data=st.data())
def test_rows_select_the_videos_they_name(corpus, k, mode, seed, data):
    """Any selection of rows, in any order, gets the tensors the whole
    corpus gives those videos, bit for bit."""
    count = len(corpus.videos)
    rows = data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=count,
                              unique=True))
    tensors = corpus_tensors(corpus, rows, k=k, mode=mode, seed=seed)
    expected = reference.corpus_tensors(corpus, k, mode, seed, None)
    assert tensors.tobytes() == expected[rows].tobytes()
