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


# rooted_forest_sum, the enum_* walks and the subset-expansion Pfaffian
# are wrapped by certbench/layers.py, which reaches them from outside src/
UNREFERENCED_EXCEPTIONS = {"oracles.rooted_forest_sum",
                           "oracles.enum_spanning_trees",
                           "oracles.enum_perfect_matchings",
                           "matrix.pfaffian"}


def definitions(source: str) -> list[str]:
    """The top-level functions and classes of source, and the methods of
    its classes as Class.method, dunder methods left out: Python calls
    those itself."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__"))]
    return out


def referenced_names(source: str) -> set[str]:
    """Every name source reads: bare names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module.definition for each definition in sources whose name no
    module reads."""
    used = set().union(*map(referenced_names, sources.values()))
    return sorted(f"{mod}.{name}" for mod, src in sources.items()
                  for name in definitions(src)
                  if name.rsplit(".", 1)[-1] not in used)


def test_the_guard_sees_unreferenced_definitions():
    sources = {"a": ("class C:\n    def __len__(self):\n        return 0\n"
                     "    def used(self):\n        return f()\n"
                     "    def dead(self):\n        pass\n"
                     "def f():\n    return C().used\n"
                     "def g():\n    pass\n")}
    assert unreferenced(sources) == ["a.C.dead", "a.g"]


def test_every_definition_is_referenced_in_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES
               if p.parent.name == "covertwist"}
    assert set(unreferenced(sources)) == UNREFERENCED_EXCEPTIONS


def size_bounds(source: str) -> list[str]:
    """The module-level names source binds that end in _BUDGET, _CAP or
    _LIMIT."""
    out = []
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        out += [t.id for t in targets if isinstance(t, ast.Name)
                and t.id.endswith(("_BUDGET", "_CAP", "_LIMIT"))]
    return out


def test_the_scan_sees_size_bounds():
    source = ("A_CAP = 1\nB_LIMIT: int = 2\nC_BUDGETS = 3\n"
              "D_BUDGET = 4\ndef f():\n    E_CAP = 5\n")
    assert size_bounds(source) == ["A_CAP", "B_LIMIT", "D_BUDGET"]


def test_one_work_budget_and_one_hard_cap():
    # the kernels, the walks and the cover build charge one work meter;
    # only the cyclotomic fields keep a size cap of their own
    found = {name for p in MODULES if p.parent.name == "covertwist"
             for name in size_bounds(p.read_text(encoding="utf-8"))}
    assert found == {"WORK_LIMIT", "CYCLOTOMIC_ORDER_BUDGET"}


def value_equality(source: str) -> list[str]:
    """The classes in source that define __eq__ or __hash__, by a method
    or by an assignment in the class body."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        names = set()
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names.add(item.name)
            elif isinstance(item, ast.Assign):
                names.update(t.id for t in item.targets
                             if isinstance(t, ast.Name))
        if names & {"__eq__", "__hash__"}:
            out.append(node.name)
    return out


def test_the_scan_sees_value_equality():
    source = ("class A:\n    def __eq__(self, other):\n        return True\n"
              "class B:\n    __hash__ = None\n"
              "class C:\n    def __lt__(self, other):\n        return True\n"
              "def f():\n    class D:\n        def __hash__(self):\n"
              "            return 0\n")
    assert value_equality(source) == ["A", "B", "D"]


def test_records_compare_by_identity():
    # graphs, trees, presentations, covers and the rest are plain records;
    # only the polynomial ring's values and the cyclotomic numbers, which
    # arithmetic and reports compare, define value equality
    found = {name for p in MODULES if p.parent.name == "covertwist"
             for name in value_equality(p.read_text(encoding="utf-8"))}
    assert found == {"VarRegistry", "MultiPoly", "Cyclotomic"}
