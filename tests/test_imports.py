"""No module imports a name it never uses.

Every module of the package (except the re-exports of __init__.py) and
every test module is parsed with ast: each name bound by a module-level
import must be referenced somewhere in the module, as a name, as the
root of an attribute chain, or inside a string annotation.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "covertwist").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


def _annotation_names(node):
    """Names inside a string annotation such as "MultiPoly | None"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def unused_imports(source: str) -> list[str]:
    """The names that source imports at module level and never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if ann is not None:
                for sub in ast.walk(ann):
                    used |= _annotation_names(sub)
    return sorted(set(imported) - used)


def test_the_scan_sees_unused_and_used_names():
    source = ("import os\nimport os.path as osp\n"
              "from fractions import Fraction\nfrom typing import Sequence\n"
              "from math import gcd as g\n"
              "def f(x: 'Sequence[int]'):\n    return os.sep, g\n")
    assert unused_imports(source) == ["Fraction", "osp"]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): names for p in MODULES
             if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert found == {}
