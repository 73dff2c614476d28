"""Every public name of the package is used by the package or the benchmark,
resolves on first use from a bare ``import posestream``, and the README's
library example runs.

A name in ``posestream.__all__`` that nothing references outside its own
``def`` or ``class`` in ``src/posestream`` or ``perfbench/`` is public API
that only tests use; it should go, or the code that needs it should use it.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1, "the Library use section should hold one python block"
    namespace: dict = {}
    exec(compile(blocks[0], "README.md#library-use", "exec"), namespace)
    assert 0.0 <= namespace["accuracy"] <= 1.0



def test_every_public_name_resolves_on_first_use():
    code = (
        "import importlib, sys, posestream\n"
        "names = posestream.__all__\n"
        "assert set(names) <= set(dir(posestream))\n"
        "for name in names:\n"
        "    value = getattr(posestream, name)\n"
        "    namespace = {}\n"
        "    exec(f'from posestream import {name}', namespace)\n"
        "    assert namespace[name] is value, name\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    assert getattr(home, name) is value, name\n"
        "print(len(names))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [str(len(posestream.__all__))]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        posestream.no_such_name
    assert not hasattr(posestream, "no_such_name")
    with pytest.raises(ImportError):
        exec("from posestream import no_such_name", {})
