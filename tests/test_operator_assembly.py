"""The operator builders against the dense reference, entry for entry.

twisted_adjacency and laplacian assemble from the nonzero entries of
each distinct connection matrix; operator_reference.py visits every
entry of every edge's matrix and builds the Laplacian as a dense
difference.  The drawn instances are multigraphs with loops and
parallel edges; connections of degree 1 to 3 over QQ, QQ(i) and
Q(zeta_5), picked per edge from a pool holding one shared identity,
a signed permutation and matrices with arbitrary entries; rational or
symbolic weights; and, when drawn, a parallel twin of the first edge
with the same matrices and the negated weight, whose terms cancel
that edge's.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import Phase, given, settings, strategies as st

from covertwist.domains import QI, QQ, cyclotomic_field, root_of_unity
from covertwist.graphs import build_graph
from covertwist.matrix import Matrix, _cleared, _hessenberg_charpoly, charpoly
from covertwist.operators import (
    laplacian,
    twisted_adjacency,
    weights_from_unoriented,
)
from covertwist.poly import MultiPoly, PolyDomain, VarRegistry
from covertwist.representation import Connection, trivial_connection

from bareiss_reference import bareiss_charpoly
from builders import dense
from operator_reference import laplacian_dense, twisted_adjacency_dense

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.generate))
FIELDS = (QQ, QI, cyclotomic_field(5))


def scalars(field):
    special = [1, -1, 2, Fraction(-1, 2)]
    if field.conductor > 1:
        z = root_of_unity(field.conductor)
        special += [z, -z, 1 - z * z]
    return st.one_of(st.sampled_from(special),
                     st.builds(Fraction, st.integers(-3, 3),
                               st.integers(1, 3)))


@st.composite
def instances(draw):
    """(graph, weights, connection), the weights symmetric."""
    n = draw(st.integers(1, 4))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=7))
    twin = draw(st.booleans())
    g = build_graph(n, pairs + pairs[:1] if twin else pairs)

    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), scalars(field))
    perm = draw(st.permutations(range(m)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    pool = [Matrix.identity(field, m),
            Matrix(field, [[signs[i] if perm[i] == j else 0 for j in range(m)]
                           for i in range(m)])]
    for _ in range(draw(st.integers(0, 2))):
        pool.append(Matrix(field, [[field.coerce(draw(entry))
                                    for _ in range(m)] for _ in range(m)]))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=g.num_edges, max_size=g.num_edges))
    if twin:
        picks[-2:] = picks[:2]
    conn = Connection(field, m, tuple(pool[k] for k in picks))

    if draw(st.booleans()):
        reg = VarRegistry(tuple(f"x_{u}" for u in range(g.num_unoriented)))
        dom = PolyDomain(reg)
        vals = [MultiPoly.variable(reg, name) for name in reg.names]
    else:
        dom = QQ
        vals = [draw(st.builds(Fraction, st.integers(-4, 4),
                               st.integers(1, 4)))
                for _ in range(g.num_unoriented)]
    if twin:
        vals[-1] = dom.neg(vals[0])
    return g, weights_from_unoriented(g, dom, vals), conn


def assert_same_entries(got: Matrix, want: Matrix):
    dom = want.domain
    assert got.domain.name == dom.name
    assert got.shape == want.shape
    for grow, wrow in zip(dense(got), dense(want)):
        for a, b in zip(grow, wrow):
            assert dom.eq(a, b)
            assert dom.is_zero(a) == dom.is_zero(b)


@SETTINGS
@given(instances())
def test_twisted_adjacency_against_dense(inst):
    g, x, conn = inst
    assert_same_entries(twisted_adjacency(g, x, conn),
                        twisted_adjacency_dense(g, x, conn))


@SETTINGS
@given(instances())
def test_laplacian_against_dense(inst):
    g, x, conn = inst
    assert_same_entries(laplacian(g, x, conn), laplacian_dense(g, x, conn))


def cancelling_pair(dom, w, others):
    """The triangle 0-1-2 with a second edge 0-1: the two parallel edges
    weigh w and -w, the others the given two values."""
    g = build_graph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
    return g, weights_from_unoriented(g, dom, [w, dom.neg(w), *others])


def test_cancelled_rational_entry_is_no_kernel_nonzero():
    g, x = cancelling_pair(QQ, Fraction(3, 2), [2, 5])
    a = twisted_adjacency(g, x, trivial_connection(QQ, g.num_edges))
    assert QQ.is_zero(a[0, 1]) and QQ.is_zero(a[1, 0])
    assert a.eq(twisted_adjacency_dense(g, x,
                                        trivial_connection(QQ, g.num_edges)))
    _, rows, _ = _cleared(a)
    assert [j for j, *_ in rows[0]] == [2] and [j for j, *_ in rows[1]] == [2]

    columns = []

    def record(cols, p):
        columns.append(cols)
        return _hessenberg_charpoly(cols, p)

    with mock.patch("covertwist.matrix._hessenberg_charpoly", record):
        cp = charpoly(a)
    assert cp == bareiss_charpoly(a)
    nonzero = sum(map(len, a.rows))
    assert [sum(map(len, cols)) for cols in columns] == [nonzero] == [4]


def test_cancelled_symbolic_entry_is_zero():
    reg = VarRegistry(("x", "y", "z"))
    dom = PolyDomain(reg)
    x, y, z = (MultiPoly.variable(reg, v) for v in reg.names)
    g, w = cancelling_pair(dom, x, [y, z])
    for build, dense in ((twisted_adjacency, twisted_adjacency_dense),
                         (laplacian, laplacian_dense)):
        op = build(g, w, trivial_connection(QQ, g.num_edges))
        assert dom.is_zero(op[0, 1]) and dom.is_zero(op[1, 0])
        assert_same_entries(op, dense(g, w,
                                      trivial_connection(QQ, g.num_edges)))
    conn = trivial_connection(QI, g.num_edges, 2)
    assert_same_entries(twisted_adjacency(g, w, conn),
                        twisted_adjacency_dense(g, w, conn))
