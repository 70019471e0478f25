"""The package's record classes are plain classes.

Importing the CLI in a fresh interpreter loads none of `dataclasses`,
`inspect` or `typing`, and no class of the package is a dataclass.  The
five records that are compared by value (the graph types, the
presentation types and the covering map) keep field-wise equality and a
matching hash; the checks that ran after construction still refuse bad
fields with their old messages.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from covertwist.covering import CoveringMap, VoltageAssignment
from covertwist.domains import QQ
from covertwist.graphs import DirectedGraph, Graph
from covertwist.homotopy import Pi1Presentation, SpanningTree
from covertwist.matrix import Matrix
from covertwist.representation import Representation

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import covertwist.cli
loaded = [m for m in ("dataclasses", "inspect", "typing") if m in sys.modules]
records = sorted(
    f"{name}.{cls.__name__}"
    for name, mod in list(sys.modules.items())
    if name.split(".")[0] == "covertwist"
    for cls in vars(mod).values()
    if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__"))
print(json.dumps([loaded, records]))
"""


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, which may import typing on their own
    out = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[], []]


def tree_args(g):
    return (g, 0, (None, 1), (0, 1), frozenset({0}))


def pres_args(g):
    return (SpanningTree(*tree_args(g)), (1,), (2,))


def cover_args(g):
    return (g, g, (0, 1), (0, 1, 2, 3), 0, 0)


def graph():
    return Graph(DirectedGraph(2, (0, 1, 0, 1), (1, 0, 1, 0)), (1, 0, 3, 2))


def other_graph():
    return Graph(DirectedGraph(2, (0, 1, 0, 0), (1, 0, 0, 0)), (1, 0, 3, 2))


# (class, fresh field values, field values of which each one differs)
VALUE_RECORDS = [
    (DirectedGraph, lambda: (2, (0, 1), (1, 0)),
     (3, (1, 1), (0, 0))),
    (Graph, lambda: (DirectedGraph(2, (0, 1), (1, 0)), (1, 0)),
     (DirectedGraph(2, (0, 0), (1, 1)), (0, 1))),
    (SpanningTree, lambda: tree_args(graph()),
     (other_graph(), 1, (1, None), (1, 0), frozenset({1}))),
    (Pi1Presentation, lambda: pres_args(graph()),
     (SpanningTree(*tree_args(other_graph())), (0,), (0,))),
    (CoveringMap, lambda: cover_args(graph()),
     (other_graph(), other_graph(), (1, 0), (1, 0, 3, 2), 1, 1)),
]


@pytest.mark.parametrize("cls, fields, other", VALUE_RECORDS,
                         ids=[r[0].__name__ for r in VALUE_RECORDS])
def test_equal_fields_give_equal_records_and_hashes(cls, fields, other):
    a, b = cls(*fields()), cls(*fields())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields, other", VALUE_RECORDS,
                         ids=[r[0].__name__ for r in VALUE_RECORDS])
def test_one_differing_field_gives_unequal_records(cls, fields, other):
    a = cls(*fields())
    for i, value in enumerate(other):
        changed = list(fields())
        changed[i] = value
        assert a != cls(*changed), i
    assert a != fields()


def test_directed_graph_refuses_an_endpoint_out_of_range():
    with pytest.raises(ValueError, match="^edge 1 has endpoint out of range$"):
        DirectedGraph(2, (0, 1), (1, 2))


def test_directed_graph_refuses_src_and_tgt_of_different_lengths():
    with pytest.raises(ValueError, match="^src and tgt lengths differ$"):
        DirectedGraph(2, (0, 1), (1,))


def test_voltage_refuses_a_non_permutation():
    with pytest.raises(ValueError, match=r"^voltage for generator 1 is not a "
                                         r"permutation of 0\.\.2$"):
        VoltageAssignment(3, ((1, 2, 0), (0, 0, 1)))


def test_representation_refuses_a_non_invertible_generator():
    m = Matrix(QQ, [[1, 1], [1, 1]])
    with pytest.raises(ValueError,
                       match="^generator 0: stored inverse is wrong$"):
        Representation(QQ, 2, (m,), (m,))


def test_representation_refuses_a_generator_of_the_wrong_shape():
    m = Matrix(QQ, [[1, 0]])
    with pytest.raises(ValueError, match=r"^generator 0 has shape \(1, 2\)$"):
        Representation(QQ, 2, (m,), (m,))
