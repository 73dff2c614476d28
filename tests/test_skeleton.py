"""Topology construction and Euler-tour tests."""

import numpy as np
import pytest

from posestream.skeleton import (
    PROFILES,
    build_topology,
    euler_tour,
    load_topology,
    make_topology,
    upper_body_joints,
)


def chain_topology():
    return make_topology(
        name="chain3",
        joint_names=["root", "a", "b"],
        edges=[("root", "a"), ("a", "b")],
        root="root",
        parts={"root": 5, "a": 1, "b": 1},
        torso=("root", "a"),
    )


def random_tree(rng, n):
    """Random rooted tree as a parent array: parent[i] < i for i >= 1."""
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
        with pytest.raises(ValueError, match="two parents"):
            make_topology(
                name="bad",
                joint_names=["r", "a", "b"],
                edges=[("r", "a"), ("b", "a")],
                root="r",
                parts={"r": 5, "a": 1, "b": 1},
                torso=("r", "a"),
            )

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="must have 2 edges"):
            make_topology(
                name="bad",
                joint_names=["r", "a", "b"],
                edges=[("r", "a")],
                root="r",
                parts={"r": 5, "a": 1, "b": 1},
                torso=("r", "a"),
            )

    def test_rejects_disconnected_cycle(self):
        # r-a plus a 2-cycle between b and c: edge count is right but b, c
        # are unreachable from the root.
        with pytest.raises(ValueError, match="not reachable"):
            make_topology(
                name="bad",
                joint_names=["r", "a", "b", "c"],
                edges=[("r", "a"), ("b", "c"), ("c", "b")],
                root="r",
                parts={"r": 5, "a": 1, "b": 1, "c": 1},
                torso=("r", "a"),
            )

    def test_rejects_bad_part_id(self):
        with pytest.raises(ValueError, match="part ids"):
            make_topology(
                name="bad",
                joint_names=["r", "a"],
                edges=[("r", "a")],
                root="r",
                parts={"r": 5, "a": 7},
                torso=("r", "a"),
            )

    def test_rejects_identical_torso_anchors(self):
        with pytest.raises(ValueError, match="anchor groups must differ"):
            make_topology(
                name="bad",
                joint_names=["r", "a"],
                edges=[("r", "a")],
                root="r",
                parts={"r": 5, "a": 1},
                torso=("r", "r"),
            )


class TestEulerTour:
    def test_chain(self):
        # Depth-first tour of root-a-b is forced.
        tour = euler_tour(chain_topology())
        assert tour.joints == (0, 1, 2, 1, 0)

    def test_star_child_order(self):
        # Both child orders are legal tours; ascending index picks c1 first.
        topo = make_topology(
            name="star",
            joint_names=["root", "c1", "c2"],
            edges=[("root", "c1"), ("root", "c2")],
            root="root",
            parts={"root": 5, "c1": 1, "c2": 2},
            torso=("c1", "c2"),
        )
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
        with pytest.raises(ValueError, match="two parents|joints"):
            load_topology(path)

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.topo"
        path.write_text("n=2 root=r torso=r,a\nr a\n")
        with pytest.raises(ValueError, match="part="):
            load_topology(path)


class TestUpperBody:
    def test_jhmdb_upper_body(self):
        topo = build_topology("jhmdb_gt")
        upper = {topo.joint_names[i] for i in upper_body_joints(topo)}
        assert upper == {
            "head", "neck", "r_shoulder", "l_shoulder",
            "r_elbow", "l_elbow", "r_wrist", "l_wrist",
        }
