"""Every public name of the package is used by the package or the benchmark.

A name in ``posestream.__all__`` that nothing references outside its own
``def`` or ``class`` in ``src/posestream`` or ``perfbench/`` is public API
that only tests use; it should go, or the code that needs it should use it.
"""

import ast
from pathlib import Path

import posestream

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "posestream").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def _references(tree: ast.AST) -> set[str]:
    """Names loaded as a bare name or an attribute, except inside a def or
    class of the same name."""
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_user_outside_the_tests():
    used: set[str] = set()
    for path in SOURCES:
        used |= _references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    unused = sorted(set(posestream.__all__) - used)
    assert not unused, f"public names used only by tests: {unused}"


def test_the_guard_sees_a_def_that_only_refers_to_itself():
    tree = ast.parse("def lonely(x):\n    return lonely(x - 1)\n\n"
                     "class Box:\n    def make(self):\n        return Box()\n\n"
                     "def user():\n    return helper.used()\n")
    assert {"lonely", "Box"}.isdisjoint(_references(tree))
    assert {"helper", "used"} <= _references(tree)
