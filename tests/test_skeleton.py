"""Topology construction and Euler-tour tests."""

import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import topology
from posestream.cli import main
from posestream.skeleton import (
    DESCRIPTIONS,
    PROFILES,
    SkeletonTopology,
    build_topology,
    euler_tour,
    load_topology,
    upper_body_joints,
)
from posestream.tensorize import read_corpus


def chain_topology():
    return topology("n=3 root=root torso=root,a\nroot a part=1\na b part=1\n", "chain3")


def random_tree(rng, n):
    """Random rooted tree as a parent array: parent[i] < i for i >= 1."""
    lines = [f"n={n} root=j0 torso=j0,j1"]
    lines += [f"j{int(rng.integers(0, i))} j{i} part={1 + i % 5}" for i in range(1, n)]
    return topology("\n".join(lines), f"random{n}")


class TestBuildTopology:
    def test_profiles_exist(self):
        assert set(PROFILES) == {"jhmdb_gt", "estimated_14", "penn"}

    def test_jhmdb_gt(self):
        topo = build_topology("jhmdb_gt")
        assert topo.n == 15
        assert len(topo.edges) == 14
        assert topo.joint_names[topo.root] == "belly"

    def test_penn_rooted_at_head(self):
        topo = build_topology("penn")
        assert topo.n == 13
        assert topo.joint_names[topo.root] == "head"

    def test_estimated_14_has_no_belly(self):
        topo = build_topology("estimated_14")
        assert topo.n == 14
        assert "belly" not in topo.joint_names

    def test_tour_lengths_match_tensor_widths(self):
        # 2n - 1 tour entries, two coordinates each.
        for profile, width in [("jhmdb_gt", 58), ("estimated_14", 54), ("penn", 50)]:
            tour = euler_tour(build_topology(profile))
            assert 2 * len(tour) == width

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            build_topology("mystery")

    def test_custom_requires_file(self):
        with pytest.raises(ValueError, match="description file"):
            build_topology("custom")

    def test_every_joint_in_exactly_one_part(self):
        for topo in PROFILES.values():
            assert len(topo.parts) == topo.n
            assert all(p in (1, 2, 3, 4, 5) for p in topo.parts)


class TestTopologyValidation:
    def test_rejects_double_parent(self):
        with pytest.raises(ValueError, match="^bad:3: joint 'a' has two parents$"):
            topology("n=3 root=r torso=r,a\nr a part=1\nb a part=1\n", "bad")

    def test_rejects_disconnected_cycle(self):
        # r-a plus a 2-cycle between b and c: every joint but the root has
        # one parent, but b and c are unreachable from the root.
        with pytest.raises(ValueError, match="not reachable"):
            topology("n=4 root=r torso=r,a\nr a part=1\nb c part=1\nc b part=1\n", "bad")

    def test_rejects_bad_part_id(self):
        with pytest.raises(ValueError, match="part ids"):
            topology("n=2 root=r torso=r,a\nr a part=7\n", "bad")

    def test_rejects_identical_torso_anchors(self):
        with pytest.raises(ValueError, match="anchor groups must differ"):
            topology("n=2 root=r torso=r,r\nr a part=1\n", "bad")


class TestEulerTour:
    def test_chain(self):
        # Depth-first tour of root-a-b is forced.
        tour = euler_tour(chain_topology())
        assert tour.joints == (0, 1, 2, 1, 0)

    def test_star_child_order(self):
        # Both child orders are legal tours; ascending index picks c1 first.
        topo = topology("n=3 root=root torso=c1,c2\nroot c1 part=1\nroot c2 part=2\n", "star")
        assert euler_tour(topo).joints == (0, 1, 0, 2, 0)

    def test_jhmdb_length(self):
        assert len(euler_tour(build_topology("jhmdb_gt"))) == 29

    def test_deterministic(self):
        topo = build_topology("jhmdb_gt")
        assert euler_tour(topo).joints == euler_tour(topo).joints

    def test_random_trees_properties(self):
        # Tour length, boundary joints, adjacency of consecutive entries,
        # and exact double edge coverage on random trees.
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            topo = random_tree(rng, n)
            tour = euler_tour(topo).joints
            assert len(tour) == 2 * n - 1
            assert tour[0] == tour[-1] == topo.root
            assert set(tour) == set(range(n))
            edge_set = {frozenset(e) for e in topo.edges}
            step_counts = {}
            for a, b in zip(tour, tour[1:]):
                assert frozenset((a, b)) in edge_set
                step_counts[frozenset((a, b))] = step_counts.get(frozenset((a, b)), 0) + 1
            assert all(count == 2 for count in step_counts.values())
            assert len(step_counts) == len(edge_set)


class TestDescriptionFile:
    def test_round_trip(self, tmp_path):
        text = (
            "n=3 root=root torso=root,a\n"
            "root a part=1\n"
            "a b part=1\n"
        )
        path = tmp_path / "chain.topo"
        path.write_text(text)
        topo = build_topology("custom", path)
        assert topo.n == 3
        assert euler_tour(topo).joints == (0, 1, 2, 1, 0)
        assert topo.parts[topo.root] == 5  # root defaults to the torso group

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.topo"
        path.write_text("# comment\nn=2 root=r torso=r,a\n\nr a part=3  # trailing\n")
        topo = load_topology(path)
        assert topo.n == 2
        assert topo.parts == (5, 3)

    def test_rejects_wrong_n(self, tmp_path):
        path = tmp_path / "bad.topo"
        path.write_text("n=4 root=r torso=r,a\nr a part=1\na b part=1\n")
        with pytest.raises(ValueError, match="n=4"):
            load_topology(path)

    def test_rejects_non_tree(self, tmp_path):
        path = tmp_path / "bad.topo"
        path.write_text("n=3 root=r torso=r,a\nr a part=1\nr a part=1\n")
        with pytest.raises(ValueError) as exc:
            load_topology(path)
        assert str(exc.value) == f"{path}:3: joint 'a' has two parents"

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.topo"
        path.write_text("n=2 root=r torso=r,a\nr a\n")
        with pytest.raises(ValueError, match="part="):
            load_topology(path)


    @pytest.mark.parametrize("content, where, message", [
        (b"n=x root=r torso=r,a\nr a part=1\n", ":1: ", "n 'x' is not an integer"),
        (b"n=2 root=r torso=r,a\n\n# edges\nr a part=one\n", ":4: ", "part 'one' is not"),
        (b"# skeleton\nn=2 root=r torso=r\nr a part=1\n", ":2: ", "torso must name exactly two"),
        (b"n=2 root=r torso=r,a\nr a part=1 # caf\xe9\n", ":2: ",
         "line is not UTF-8 (bad byte at offset 16)"),
        (b"n=2 root=r torso=r,zz\nr a part=1\n", ": ", "unknown joint 'zz'"),
        (b"n=2 root=r torso=r,a\nr a part=7\n", ": ", "part ids must be in 1..5"),
        (b"# nothing here\n", ": ", "empty topology description"),
        (b"n=2 root=r torso=r,a nn=5 n=2\nr a part=1\n", ":1: ", "unknown header key 'nn'"),
        (b"n=2 root=r torso=r,a n=2\nr a part=1\n", ":1: ", "header key 'n' given twice"),
        (b"# typo\nn=2 root=r tosro=r,a\nr a part=1\n", ":2: ",
         "unknown header key 'tosro' (the keys are n, root, torso, joints)"),
        (b"n=3 root=r torso=r,a joints=r,a,a\nr a part=1\na b part=1\n", ":1: ",
         "joints= names 'a' twice"),
        (b"n=2 root=r torso=r,a joints=r,zz\nr a part=1\n", ":1: ",
         "joints= names 'zz', which neither the root nor an edge names"),
        (b"n=2 root=r torso=r,a joints=r,a,b\nr a part=1\n", ":1: ",
         "joints= names 3 joints but n=2"),
        # The line is named after the message, so that a single unknown torso
        # joint reads as it always has.
        (b"# hips\nn=3 root=r torso=r,a+zz\nr a part=1\nr b part=2\n", ": ",
         "unknown joint 'zz' in the torso on line 2"),
        (b"n=3 root=r torso=r,a+\nr a part=1\nr b part=2\n", ":1: ",
         "torso group 'a+' has an empty member"),
        (b"n=2 root=r torso=r,a a\nr a part=1\n", ":1: ", "malformed header token 'a'"),
        (b"n=2 torso=r,a\nr a part=1\n", ":1: ", "header missing 'root='"),
        (b"n=1 root=r torso=r,r\n", ": ", "topology 'custom:bad' needs at least 2 joints, got 1"),
        (b"n=3 root=r torso=r,a\nb a part=1\n", ": ",
         "second root: joints ['b'] are no edge's child"),
        # The tree defects are named on the line that makes them.
        (b"n=3 root=r torso=r,a\na r part=1\nr b part=1\n", ":2: ",
         "the root 'r' appears as a child"),
        (b"n=3 root=r torso=r,a\nr a part=1\nb a part=1\n", ":3: ", "joint 'a' has two parents"),
        (b"n=2 root=r torso=r,a\nr a part=1\nr a part=2\n", ":3: ",
         "joint 'a' has two parents"),
    ], ids=["n-not-int", "part-not-int", "torso-one-joint", "not-utf8", "unknown-torso-joint",
            "part-out-of-range", "empty", "unknown-key", "repeated-key", "misspelt-key",
            "joints-repeated", "joints-stray", "joints-not-n", "torso-group-unknown-joint",
            "torso-group-empty-member", "malformed-header-token", "header-key-missing",
            "one-joint", "second-root", "root-as-child", "two-parents", "part-conflict"])
    def test_every_defect_names_the_file(self, tmp_path, content, where, message):
        path = tmp_path / "bad.topo"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            load_topology(path)
        assert str(exc.value).startswith(f"{path}{where}")

    def test_built_in_profile_refuses_a_description_file(self, tmp_path):
        path = tmp_path / "never_read.topo"
        with pytest.raises(ValueError, match="--topology-file.*'custom', not 'penn'"):
            build_topology("penn", path)


# Each built-in profile's fields and Euler tour, as the Python-data form of
# the profiles gave them before they became description texts.
BUILT_INS = {
    "jhmdb_gt": dict(
        joint_names=("neck", "belly", "head", "r_shoulder", "l_shoulder", "r_hip", "l_hip",
                     "r_elbow", "l_elbow", "r_knee", "l_knee", "r_wrist", "l_wrist", "r_ankle",
                     "l_ankle"),
        edges=((1, 0), (0, 2), (0, 3), (0, 4), (3, 7), (7, 11), (4, 8), (8, 12), (1, 5), (1, 6),
               (5, 9), (9, 13), (6, 10), (10, 14)),
        root=1,
        parts=(5, 5, 5, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4),
        torso_anchors=((0,), (1,)),
        tour=(1, 0, 2, 0, 3, 7, 11, 7, 3, 0, 4, 8, 12, 8, 4, 0, 1, 5, 9, 13, 9, 5, 1, 6, 10, 14,
              10, 6, 1),
    ),
    "estimated_14": dict(
        joint_names=("head", "neck", "r_shoulder", "r_elbow", "r_wrist", "l_shoulder", "l_elbow",
                     "l_wrist", "r_hip", "r_knee", "r_ankle", "l_hip", "l_knee", "l_ankle"),
        edges=((1, 0), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (1, 8), (8, 9), (9, 10),
               (1, 11), (11, 12), (12, 13)),
        root=1,
        parts=(5, 5, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4),
        torso_anchors=((1,), (8, 11)),
        tour=(1, 0, 1, 2, 3, 4, 3, 2, 1, 5, 6, 7, 6, 5, 1, 8, 9, 10, 9, 8, 1, 11, 12, 13, 12, 11,
              1),
    ),
    "penn": dict(
        joint_names=("head", "l_shoulder", "r_shoulder", "l_elbow", "r_elbow", "l_wrist",
                     "r_wrist", "l_hip", "r_hip", "l_knee", "r_knee", "l_ankle", "r_ankle"),
        edges=((0, 1), (0, 2), (1, 3), (3, 5), (2, 4), (4, 6), (1, 7), (2, 8), (7, 9), (9, 11),
               (8, 10), (10, 12)),
        root=0,
        parts=(5, 2, 1, 2, 1, 2, 1, 4, 3, 4, 3, 4, 3),
        torso_anchors=((0,), (7, 8)),
        tour=(0, 1, 3, 5, 3, 1, 7, 9, 11, 9, 7, 1, 0, 2, 4, 6, 4, 2, 8, 10, 12, 10, 8, 2, 0),
    ),
}


class TestBuiltInDescriptions:
    @pytest.mark.parametrize("profile", sorted(BUILT_INS))
    def test_fields_and_tour_are_pinned(self, profile):
        fields = dict(BUILT_INS[profile])
        tour = fields.pop("tour")
        topo = build_topology(profile)
        assert topo == SkeletonTopology(name=profile, **fields)
        assert euler_tour(topo).joints == tour

    @pytest.mark.parametrize("profile", sorted(BUILT_INS))
    def test_written_to_a_file_it_loads_as_custom(self, tmp_path, profile):
        path = tmp_path / f"my_{profile}.topo"
        path.write_text(DESCRIPTIONS[profile], "utf-8")
        topo = build_topology("custom", path)
        assert topo.name == f"custom:my_{profile}"
        assert dataclasses.replace(topo, name=profile) == PROFILES[profile]

    @pytest.mark.parametrize("profile", sorted(BUILT_INS))
    def test_a_file_preprocesses_as_the_built_in(self, tmp_path, profile):
        path = tmp_path / "skeleton.topo"
        path.write_text(DESCRIPTIONS[profile], "utf-8")
        ann = tmp_path / "ann.jsonl"
        assert main(["synth", "--out", str(ann), "--profile", profile, "--videos-per-class", "2",
                     "--frames", "12", "--dropout", "0.2", "--seed", "3"]) == 0
        corpora, reports = [], []
        for name, extra in (("built_in", ["--profile", profile]),
                            ("file", ["--profile", "custom", "--topology-file", str(path)])):
            cache, report = tmp_path / f"{name}.cache", tmp_path / f"{name}.json"
            assert main(["preprocess", "--annotations", str(ann), "--cache", str(cache),
                         "--report", str(report), *extra]) == 0
            corpora.append(read_corpus(cache))
            reports.append(json.loads(report.read_text("utf-8")))
        built_in, from_file = corpora
        # Both fills ran, so the torso anchors and the part votes were used.
        fills = reports[1]["fills"]
        assert fills["temporal"] > 0 and fills["spatial"] > 0
        assert fills == reports[0]["fills"]
        assert reports[1]["fills_per_joint"] == reports[0]["fills_per_joint"]
        for field in ("offsets", "labels", "coords"):
            assert np.array_equal(getattr(from_file, field), getattr(built_in, field)), field


class TestUpperBody:
    def test_jhmdb_upper_body(self):
        topo = build_topology("jhmdb_gt")
        upper = {topo.joint_names[i] for i in upper_body_joints(topo)}
        assert upper == {
            "head", "neck", "r_shoulder", "l_shoulder",
            "r_elbow", "l_elbow", "r_wrist", "l_wrist",
        }
