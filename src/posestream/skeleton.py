"""Skeleton topologies and the joint traversal that orders pose-tensor columns.

A topology is a rooted tree over named 2D joints plus the metadata the rest
of the pipeline needs: which joints anchor the torso segment used for
normalization, and which of the five body-part groups each joint belongs to
(used when voting for missing joints). The depth-first Euler tour of the
tree fixes the column ordering of the pose tensor; a tree with ``n`` joints
yields a tour of length ``2n - 1`` and therefore ``2 * (2n - 1)`` coordinate
columns per tensor row.

Built-in profiles:

- ``jhmdb_gt``       15 joints, rooted at the belly (tour length 29)
- ``estimated_14``   14 detector joints, no belly, rooted at the neck (27)
- ``penn``           13 joints, rooted at the head (25)
- ``custom``         loaded from a plain-text description file

Description format (UTF-8, ``#`` comments allowed)::

    n=<int> root=<name> torso=<group>,<group> [joints=<name>,...]
    <parent_name> <child_name> part=<1..5>
    ...

The header holds each of its keys once, in any order, and no other;
``joints=`` is optional. A torso group is one joint, or joints joined by
``+`` whose mean stands in for a joint the skeleton lacks
(``torso=neck,r_hip+l_hip``). Joint indices follow ``joints=``, which
names each joint of the root and the edges once; without it they follow
first appearance, the root first. The root is in part 5. Each other
joint is the child on exactly one line: a line whose child is the root, or
a joint that an earlier line already made a child, is refused naming that
line. The built-in profiles are ``DESCRIPTIONS`` in this format, read by
the same parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .config import decode_utf8


@dataclass(frozen=True)
class SkeletonTopology:
    """Rooted joint tree for one dataset profile.

    Attributes:
        name: Profile identifier (e.g. ``jhmdb_gt``).
        joint_names: Joint label per index; ``len(joint_names)`` is ``n``.
        edges: ``(parent, child)`` index pairs; exactly ``n - 1`` of them.
        root: Index of the tour's start/end joint.
        parts: Body-part id in 1..5 per joint (1-4 limbs, 5 torso/head).
        torso_anchors: Two anchor groups; each group is a tuple of joint
            indices whose mean position defines one end of the torso
            segment. Groups of size > 1 act as midpoint proxies for
            profiles without a dedicated torso joint.
    """

    name: str
    joint_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    root: int
    parts: tuple[int, ...]
    torso_anchors: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def n(self) -> int:
        return len(self.joint_names)

    def children(self) -> dict[int, list[int]]:
        """Parent index -> child indices, ascending."""
        out: dict[int, list[int]] = {i: [] for i in range(self.n)}
        for parent, child in self.edges:
            out[parent].append(child)
        for kids in out.values():
            kids.sort()
        return out


@dataclass(frozen=True)
class TraversalPath:
    """Euler tour of a topology: root-to-root walk covering every edge twice."""

    joints: tuple[int, ...]
    topology: str

    def __len__(self) -> int:
        return len(self.joints)


# Joint names containing one of these substrings count as upper body for the
# torso-group fallback during spatial interpolation.
_UPPER_BODY_MARKERS = ("head", "nose", "neck", "shoulder", "elbow", "wrist")


def upper_body_joints(topology: SkeletonTopology) -> frozenset[int]:
    """Indices of head/neck/shoulder/elbow/wrist joints, by name matching."""
    return frozenset(
        i
        for i, nm in enumerate(topology.joint_names)
        if any(marker in nm.lower() for marker in _UPPER_BODY_MARKERS)
    )


def euler_tour(topology: SkeletonTopology) -> TraversalPath:
    """Depth-first root-to-root walk; children visited in ascending index order.

    The result has length ``2n - 1``, starts and ends at the root, steps only
    along tree edges, and uses each edge exactly twice (once per direction).
    Deterministic for a given topology, so tensor column order is stable.
    """
    children = topology.children()
    order = [topology.root]
    stack: list[tuple[int, int]] = [(topology.root, 0)]  # (joint, next child slot)
    while stack:
        node, slot = stack[-1]
        kids = children[node]
        if slot == len(kids):
            stack.pop()
            if stack:
                order.append(stack[-1][0])
        else:
            stack[-1] = (node, slot + 1)
            child = kids[slot]
            order.append(child)
            stack.append((child, 0))
    return TraversalPath(joints=tuple(order), topology=topology.name)


HEADER_KEYS = ("n", "root", "torso", "joints")


def _parse(text: str, source: str, name: str) -> SkeletonTopology:
    """The topology a description text gives, named name (see module
    docstring for the format). Every defect raises ValueError starting with
    source, and naming the line where there is one."""
    lines = [(lineno, stripped) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (stripped := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ValueError(f"{source}: empty topology description")

    def integer(lineno: int, what: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: {what} '{text}' is not an integer") from None

    header_line, header_text = lines[0]
    at = f"{source}:{header_line}"
    header: dict[str, str] = {}
    for token in header_text.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"{at}: malformed header token '{token}'")
        if key not in HEADER_KEYS:
            raise ValueError(f"{at}: unknown header key '{key}' "
                             f"(the keys are {', '.join(HEADER_KEYS)})")
        if key in header:
            raise ValueError(f"{at}: header key '{key}' given twice")
        header[key] = value
    for key in ("n", "root", "torso"):
        if key not in header:
            raise ValueError(f"{at}: header missing '{key}='")
    n = integer(header_line, "n", header["n"])
    torso = [tuple(group.split("+")) for group in header["torso"].split(",")]
    if len(torso) != 2:
        raise ValueError(f"{at}: torso must name exactly two joint groups")
    for group in torso:
        if "" in group:
            raise ValueError(f"{at}: torso group '{'+'.join(group)}' has an empty member")

    root = header["root"]
    edges: list[tuple[str, str]] = []
    parts: dict[str, int] = {}  # child -> part
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 3 or not fields[2].startswith("part="):
            raise ValueError(
                f"{source}:{lineno}: expected '<parent> <child> part=<1..5>', got '{line}'"
            )
        parent, child = fields[0], fields[1]
        part = integer(lineno, "part", fields[2][len("part="):])
        if child == root:
            raise ValueError(f"{source}:{lineno}: the root '{root}' appears as a child")
        if child in parts:
            raise ValueError(f"{source}:{lineno}: joint '{child}' has two parents")
        edges.append((parent, child))
        parts[child] = part

    names = list(dict.fromkeys([root, *(nm for edge in edges for nm in edge)]))
    if len(names) != n:
        raise ValueError(f"{at}: header says n={n} but {len(names)} joints are named")
    if "joints" in header:
        order = header["joints"].split(",")
        if len(order) != n:
            raise ValueError(f"{at}: joints= names {len(order)} joints but n={n}")
        for nm in order:
            if order.count(nm) > 1:
                raise ValueError(f"{at}: joints= names '{nm}' twice")
            if nm not in names:
                raise ValueError(f"{at}: joints= names '{nm}', which neither the root "
                                 "nor an edge names")
        names = order
    for nm in (nm for group in torso for nm in group):
        if nm not in names:
            raise ValueError(f"{source}: unknown joint '{nm}' in the torso on line {header_line}")

    # Once every joint but the root is the child of exactly one line, the
    # lines are n - 1 edges, and they form a tree if the root reaches every
    # joint.
    second = [nm for nm in names if nm != root and nm not in parts]
    if second:
        raise ValueError(f"{source}: second root: joints {second} are no edge's child")
    if n < 2:
        raise ValueError(f"{source}: topology '{name}' needs at least 2 joints, got {n}")
    parts[root] = 5
    index = {nm: i for i, nm in enumerate(names)}
    topology = SkeletonTopology(
        name=name,
        joint_names=tuple(names),
        edges=tuple((index[p], index[c]) for p, c in edges),
        root=index[root],
        parts=tuple(parts[nm] for nm in names),
        torso_anchors=tuple(tuple(index[nm] for nm in group) for group in torso),
    )
    reached = set(euler_tour(topology).joints)
    if len(reached) != n:
        missing = sorted(set(range(n)) - reached)
        raise ValueError(f"{source}: joints {missing} not reachable from root; "
                         "edges do not form a tree")
    bad = [p for p in topology.parts if p not in (1, 2, 3, 4, 5)]
    if bad:
        raise ValueError(f"{source}: part ids must be in 1..5, got {sorted(set(bad))}")
    if set(torso[0]) == set(torso[1]):
        raise ValueError(f"{source}: torso anchor groups must differ")
    return topology


def load_topology(path: str | Path) -> SkeletonTopology:
    """Read a topology description file as profile ``custom:<file stem>``.

    Every defect raises ValueError naming the file, and the line where
    there is one."""
    path = Path(path)
    return _parse(decode_utf8(path, path.read_bytes()), str(path), f"custom:{path.stem}")


# ---------------------------------------------------------------------------
# Built-in profiles, as description texts
# ---------------------------------------------------------------------------

DESCRIPTIONS = {
    "jhmdb_gt": """\
# 15 manually annotated joints, puppet order. Tree rooted at the belly with
# limb chains as branches; torso segment is neck-belly.
n=15 root=belly torso=neck,belly joints=neck,belly,head,r_shoulder,l_shoulder,r_hip,l_hip,r_elbow,l_elbow,r_knee,l_knee,r_wrist,l_wrist,r_ankle,l_ankle
belly neck part=5
neck head part=5
neck r_shoulder part=1
neck l_shoulder part=2
r_shoulder r_elbow part=1
r_elbow r_wrist part=1
l_shoulder l_elbow part=2
l_elbow l_wrist part=2
belly r_hip part=3
belly l_hip part=4
r_hip r_knee part=3
r_knee r_ankle part=3
l_hip l_knee part=4
l_knee l_ankle part=4
""",
    "estimated_14": """\
# Detector output with the four face keypoints dropped and the nose kept as
# the head. No belly annotation, so the torso segment runs from the neck to
# the hip midpoint.
n=14 root=neck torso=neck,r_hip+l_hip joints=head,neck,r_shoulder,r_elbow,r_wrist,l_shoulder,l_elbow,l_wrist,r_hip,r_knee,r_ankle,l_hip,l_knee,l_ankle
neck head part=5
neck r_shoulder part=1
r_shoulder r_elbow part=1
r_elbow r_wrist part=1
neck l_shoulder part=2
l_shoulder l_elbow part=2
l_elbow l_wrist part=2
neck r_hip part=3
r_hip r_knee part=3
r_knee r_ankle part=3
neck l_hip part=4
l_hip l_knee part=4
l_knee l_ankle part=4
""",
    "penn": """\
# 13 joints, official annotation order, rooted at the head. No neck or
# belly, so the torso segment runs from the head to the hip midpoint.
n=13 root=head torso=head,l_hip+r_hip joints=head,l_shoulder,r_shoulder,l_elbow,r_elbow,l_wrist,r_wrist,l_hip,r_hip,l_knee,r_knee,l_ankle,r_ankle
head l_shoulder part=2
head r_shoulder part=1
l_shoulder l_elbow part=2
l_elbow l_wrist part=2
r_shoulder r_elbow part=1
r_elbow r_wrist part=1
l_shoulder l_hip part=4
r_shoulder r_hip part=3
l_hip l_knee part=4
l_knee l_ankle part=4
r_hip r_knee part=3
r_knee r_ankle part=3
""",
}

PROFILES: dict[str, SkeletonTopology] = {
    name: _parse(text, name, name) for name, text in DESCRIPTIONS.items()
}


def build_topology(
    profile: str, description_file: str | Path | None = None
) -> SkeletonTopology:
    """Return the topology for a dataset profile.

    ``profile='custom'`` loads a description file, and only it takes one.
    Raises ValueError for unknown profiles, a description file given to a
    built-in profile or missing for ``custom``, and invalid description files.
    """
    if profile == "custom":
        if description_file is None:
            raise ValueError("profile 'custom' requires a description file")
        return load_topology(description_file)
    if description_file is not None:
        raise ValueError(f"a description file (--topology-file) is read only for profile "
                         f"'custom', not '{profile}'")
    try:
        return PROFILES[profile]
    except KeyError:
        known = sorted(PROFILES) + ["custom"]
        raise ValueError(f"unknown profile '{profile}'; known: {known}") from None
