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

Description file format (UTF-8, ``#`` comments allowed)::

    n=<int> root=<name> torso=<name>,<name>
    <parent_name> <child_name> part=<1..5>
    ...

The header holds each of its three keys once, in any order, and no other.
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


def _validate(topology: SkeletonTopology) -> SkeletonTopology:
    n = topology.n
    if n < 2:
        raise ValueError(f"topology '{topology.name}' needs at least 2 joints, got {n}")
    if len(set(topology.joint_names)) != n:
        raise ValueError(f"topology '{topology.name}' has duplicate joint names")
    if not 0 <= topology.root < n:
        raise ValueError(f"root index {topology.root} out of range for n={n}")
    if len(topology.edges) != n - 1:
        raise ValueError(
            f"topology '{topology.name}' must have {n - 1} edges, got {len(topology.edges)}"
        )

    parent_of: dict[int, int] = {}
    for parent, child in topology.edges:
        for idx in (parent, child):
            if not 0 <= idx < n:
                raise ValueError(f"edge ({parent}, {child}) references joint {idx} >= n={n}")
        if child == topology.root:
            raise ValueError(f"root joint {child} appears as a child")
        if child in parent_of:
            raise ValueError(f"joint {child} has two parents")
        parent_of[child] = parent

    # With n-1 edges and unique parents, reachability from the root is
    # equivalent to the edges forming a tree.
    children = topology.children()
    seen = {topology.root}
    stack = [topology.root]
    while stack:
        for child in children[stack.pop()]:
            seen.add(child)
            stack.append(child)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"joints {missing} not reachable from root; edges do not form a tree")

    if len(topology.parts) != n:
        raise ValueError("parts must assign exactly one part id per joint")
    bad = [p for p in topology.parts if p not in (1, 2, 3, 4, 5)]
    if bad:
        raise ValueError(f"part ids must be in 1..5, got {sorted(set(bad))}")

    anchors = topology.torso_anchors
    if len(anchors) != 2 or any(len(group) == 0 for group in anchors):
        raise ValueError("torso_anchors must be two non-empty joint groups")
    for group in anchors:
        for idx in group:
            if not 0 <= idx < n:
                raise ValueError(f"torso anchor joint {idx} out of range")
    if set(anchors[0]) == set(anchors[1]):
        raise ValueError("torso anchor groups must differ")
    return topology


def make_topology(
    name: str,
    joint_names: list[str] | tuple[str, ...],
    edges: list[tuple[str, str]],
    root: str,
    parts: dict[str, int],
    torso: tuple[str | tuple[str, ...], str | tuple[str, ...]],
) -> SkeletonTopology:
    """Build and validate a topology from joint names instead of indices."""
    names = tuple(joint_names)
    index = {nm: i for i, nm in enumerate(names)}

    def resolve(nm: str) -> int:
        if nm not in index:
            raise ValueError(f"unknown joint '{nm}' in topology '{name}'")
        return index[nm]

    def resolve_group(group: str | tuple[str, ...]) -> tuple[int, ...]:
        if isinstance(group, str):
            return (resolve(group),)
        return tuple(resolve(g) for g in group)

    missing_part = [nm for nm in names if nm not in parts]
    if missing_part:
        raise ValueError(f"joints without a part assignment: {missing_part}")
    topology = SkeletonTopology(
        name=name,
        joint_names=names,
        edges=tuple((resolve(p), resolve(c)) for p, c in edges),
        root=resolve(root),
        parts=tuple(parts[nm] for nm in names),
        torso_anchors=(resolve_group(torso[0]), resolve_group(torso[1])),
    )
    return _validate(topology)


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


# ---------------------------------------------------------------------------
# Built-in profiles
# ---------------------------------------------------------------------------

# 15 manually annotated joints, puppet order. Tree rooted at the belly with
# limb chains as branches; torso segment is neck-belly.
JHMDB_GT = make_topology(
    name="jhmdb_gt",
    joint_names=[
        "neck",        # 0
        "belly",       # 1
        "head",        # 2
        "r_shoulder",  # 3
        "l_shoulder",  # 4
        "r_hip",       # 5
        "l_hip",       # 6
        "r_elbow",     # 7
        "l_elbow",     # 8
        "r_knee",      # 9
        "l_knee",      # 10
        "r_wrist",     # 11
        "l_wrist",     # 12
        "r_ankle",     # 13
        "l_ankle",     # 14
    ],
    edges=[
        ("belly", "neck"),
        ("neck", "head"),
        ("neck", "r_shoulder"),
        ("neck", "l_shoulder"),
        ("r_shoulder", "r_elbow"),
        ("r_elbow", "r_wrist"),
        ("l_shoulder", "l_elbow"),
        ("l_elbow", "l_wrist"),
        ("belly", "r_hip"),
        ("belly", "l_hip"),
        ("r_hip", "r_knee"),
        ("r_knee", "r_ankle"),
        ("l_hip", "l_knee"),
        ("l_knee", "l_ankle"),
    ],
    root="belly",
    parts={
        "r_shoulder": 1, "r_elbow": 1, "r_wrist": 1,
        "l_shoulder": 2, "l_elbow": 2, "l_wrist": 2,
        "r_hip": 3, "r_knee": 3, "r_ankle": 3,
        "l_hip": 4, "l_knee": 4, "l_ankle": 4,
        "head": 5, "neck": 5, "belly": 5,
    },
    torso=("neck", "belly"),
)

# Detector output with the four face keypoints dropped and the nose kept as
# the head. No belly annotation, so the torso segment runs from the neck to
# the hip midpoint.
ESTIMATED_14 = make_topology(
    name="estimated_14",
    joint_names=[
        "head",        # 0
        "neck",        # 1
        "r_shoulder",  # 2
        "r_elbow",     # 3
        "r_wrist",     # 4
        "l_shoulder",  # 5
        "l_elbow",     # 6
        "l_wrist",     # 7
        "r_hip",       # 8
        "r_knee",      # 9
        "r_ankle",     # 10
        "l_hip",       # 11
        "l_knee",      # 12
        "l_ankle",     # 13
    ],
    edges=[
        ("neck", "head"),
        ("neck", "r_shoulder"),
        ("r_shoulder", "r_elbow"),
        ("r_elbow", "r_wrist"),
        ("neck", "l_shoulder"),
        ("l_shoulder", "l_elbow"),
        ("l_elbow", "l_wrist"),
        ("neck", "r_hip"),
        ("r_hip", "r_knee"),
        ("r_knee", "r_ankle"),
        ("neck", "l_hip"),
        ("l_hip", "l_knee"),
        ("l_knee", "l_ankle"),
    ],
    root="neck",
    parts={
        "r_shoulder": 1, "r_elbow": 1, "r_wrist": 1,
        "l_shoulder": 2, "l_elbow": 2, "l_wrist": 2,
        "r_hip": 3, "r_knee": 3, "r_ankle": 3,
        "l_hip": 4, "l_knee": 4, "l_ankle": 4,
        "head": 5, "neck": 5,
    },
    torso=("neck", ("r_hip", "l_hip")),
)

# 13 joints, official annotation order, rooted at the head. No neck or
# belly, so the torso segment runs from the head to the hip midpoint.
PENN = make_topology(
    name="penn",
    joint_names=[
        "head",        # 0
        "l_shoulder",  # 1
        "r_shoulder",  # 2
        "l_elbow",     # 3
        "r_elbow",     # 4
        "l_wrist",     # 5
        "r_wrist",     # 6
        "l_hip",       # 7
        "r_hip",       # 8
        "l_knee",      # 9
        "r_knee",      # 10
        "l_ankle",     # 11
        "r_ankle",     # 12
    ],
    edges=[
        ("head", "l_shoulder"),
        ("head", "r_shoulder"),
        ("l_shoulder", "l_elbow"),
        ("l_elbow", "l_wrist"),
        ("r_shoulder", "r_elbow"),
        ("r_elbow", "r_wrist"),
        ("l_shoulder", "l_hip"),
        ("r_shoulder", "r_hip"),
        ("l_hip", "l_knee"),
        ("l_knee", "l_ankle"),
        ("r_hip", "r_knee"),
        ("r_knee", "r_ankle"),
    ],
    root="head",
    parts={
        "r_shoulder": 1, "r_elbow": 1, "r_wrist": 1,
        "l_shoulder": 2, "l_elbow": 2, "l_wrist": 2,
        "r_hip": 3, "r_knee": 3, "r_ankle": 3,
        "l_hip": 4, "l_knee": 4, "l_ankle": 4,
        "head": 5,
    },
    torso=("head", ("l_hip", "r_hip")),
)

PROFILES: dict[str, SkeletonTopology] = {
    "jhmdb_gt": JHMDB_GT,
    "estimated_14": ESTIMATED_14,
    "penn": PENN,
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


HEADER_KEYS = ("n", "root", "torso")


def load_topology(path: str | Path) -> SkeletonTopology:
    """Parse a topology description file (see module docstring for format).

    Every defect raises ValueError naming the file, and the line where
    there is one."""
    path = Path(path)
    lines = [
        (lineno, stripped)
        for lineno, raw in enumerate(decode_utf8(path, path.read_bytes()).splitlines(), start=1)
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if not lines:
        raise ValueError(f"{path}: empty topology description")

    def integer(lineno: int, what: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {what} '{text}' is not an integer") from None

    header_line, header_text = lines[0]
    header: dict[str, str] = {}
    for token in header_text.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"{path}:{header_line}: malformed header token '{token}'")
        if key not in HEADER_KEYS:
            raise ValueError(f"{path}:{header_line}: unknown header key '{key}' "
                             f"(the keys are {', '.join(HEADER_KEYS)})")
        if key in header:
            raise ValueError(f"{path}:{header_line}: header key '{key}' given twice")
        header[key] = value
    for key in HEADER_KEYS:
        if key not in header:
            raise ValueError(f"{path}:{header_line}: header missing '{key}='")
    n = integer(header_line, "n", header["n"])
    torso_names = header["torso"].split(",")
    if len(torso_names) != 2:
        raise ValueError(f"{path}:{header_line}: torso must name exactly two joints")

    edges: list[tuple[str, str]] = []
    parts: dict[str, int] = {}
    names: list[str] = []

    def register(nm: str) -> None:
        if nm not in names:
            names.append(nm)

    register(header["root"])
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 3 or not fields[2].startswith("part="):
            raise ValueError(
                f"{path}:{lineno}: expected '<parent> <child> part=<1..5>', got '{line}'"
            )
        parent, child = fields[0], fields[1]
        part = integer(lineno, "part", fields[2][len("part="):])
        register(parent)
        register(child)
        edges.append((parent, child))
        prev = parts.setdefault(child, part)
        if prev != part:
            raise ValueError(f"{path}:{lineno}: joint '{child}' assigned to parts {prev} and {part}")

    if len(names) != n:
        raise ValueError(f"{path}: header says n={n} but {len(names)} joints are named")
    # The root never appears as a child; default it to the torso group (5).
    parts.setdefault(header["root"], 5)
    missing = [nm for nm in names if nm not in parts]
    if missing:
        raise ValueError(f"{path}: joints without a part: {missing}")

    try:
        return make_topology(
            name=f"custom:{path.stem}",
            joint_names=names,
            edges=edges,
            root=header["root"],
            parts=parts,
            torso=(torso_names[0], torso_names[1]),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
