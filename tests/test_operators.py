"""Twisted adjacency and Laplacian operators, line digraphs, Kasteleyn
orientations."""

import pytest

from covertwist.covering import VoltageAssignment, build_cover
from covertwist.domains import QQ
from covertwist.errors import NotPlanarError
from covertwist.graphs import build_graph, default_rotation
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import Matrix, det
from covertwist.operators import (
    check_clockwise_odd,
    kasteleyn_orientation,
    kasteleyn_weights,
    laplacian,
    lift_weights,
    line_digraph,
    symbolic_weights,
    twisted_adjacency,
    weights_from_unoriented,
)
from covertwist.poly import MultiPoly, PolyDomain
from covertwist.representation import (
    connection_from_rep,
    trivial_connection,
    trivial_representation,
)

from builders import unit_weights


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def test_symbolic_weights_naming():
    g = triangle()
    x = symbolic_weights(g)
    assert isinstance(x.domain, PolyDomain)
    assert x.domain.reg.names == ("x_0", "x_1", "x_2")
    # both orientations of an unoriented edge share the variable
    for e, ebar in g.unoriented:
        assert x.values[e] == x.values[ebar]


def test_unit_weights_adjacency():
    g = triangle()
    a = twisted_adjacency(g, unit_weights(g),
                          trivial_connection(QQ, g.num_edges))
    expect = Matrix(QQ, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert a.eq(expect)


def test_adjacency_counts_loops_twice():
    g = build_graph(1, [(0, 0)])
    a = twisted_adjacency(g, unit_weights(g),
                          trivial_connection(QQ, g.num_edges))
    assert a[0, 0] == 2


def test_weights_from_unoriented():
    g = triangle()
    x = weights_from_unoriented(g, QQ, [1, 2, 3])
    a = twisted_adjacency(g, x, trivial_connection(QQ, g.num_edges))
    assert a[0, 1] == 1 and a[1, 0] == 1
    assert a[1, 2] == 2 and a[0, 2] == 3


def test_laplacian_rows_annihilate_constants():
    # (D - A) applied to the all-ones vector is zero off loops
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    x = symbolic_weights(g)
    lap = laplacian(g, x)
    for i in range(3):
        row_sum = None
        for j in range(3):
            row_sum = lap[i, j] if row_sum is None else row_sum + lap[i, j]
        assert row_sum.is_zero


def test_laplacian_ignores_loops():
    g = build_graph(2, [(0, 1), (0, 0)])
    x = symbolic_weights(g)
    lap = laplacian(g, x)
    # the loop contributes nothing: degree term x_0 only
    x0 = MultiPoly.variable(x.domain.reg, "x_0")
    assert lap[0, 0] == x0


def test_twisted_adjacency_with_connection():
    g = triangle()
    pres = fundamental_presentation(g, 0)
    rho = trivial_representation(QQ, pres.rank, degree=2)
    a = twisted_adjacency(g, unit_weights(g), connection_from_rep(pres, rho))
    assert a.nrows == 6


def test_twist_respects_inverse():
    # the connection matrix on a reversed edge is the inverse
    g = triangle()
    pres = fundamental_presentation(g, 0)
    from covertwist.representation import representation
    rho = representation(QQ, [Matrix(QQ, [[2]])])
    conn = connection_from_rep(pres, rho)
    for e in range(g.num_edges):
        prod = conn.mats[e] * conn.mats[g.inv[e]]
        assert prod.eq(Matrix.identity(QQ, 1))


def test_line_digraph_no_backtracking():
    g = triangle()
    x = unit_weights(g)
    ld = line_digraph(g, x)
    # each directed edge has exactly one non-backtracking successor
    assert ld.digraph.num_vertices == 6
    assert ld.digraph.num_edges == 6
    for a in range(ld.digraph.num_edges):
        e, e2 = ld.digraph.src[a], ld.digraph.tgt[a]
        assert g.tgt[e] == g.src[e2]
        assert e2 != g.inv[e]
        assert ld.arc_source_edge[a] == e


def test_line_digraph_single_edge_empty():
    # one unoriented edge admits no non-backtracking step
    g = build_graph(2, [(0, 1)])
    ld = line_digraph(g, unit_weights(g))
    assert ld.digraph.num_edges == 0


def test_lift_weights():
    g = triangle()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(2, ((1, 0),)))
    x = symbolic_weights(g)
    lifted = lift_weights(p, x)
    for e in range(p.cover.num_edges):
        assert lifted.values[e] == x.values[p.p_edge[e]]


def test_kasteleyn_square():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rot = default_rotation(g)
    orient = kasteleyn_orientation(g, rot)
    assert check_clockwise_odd(g, rot, orient).ok
    kw = kasteleyn_weights(g, orient, unit_weights(g))
    a = twisted_adjacency(g, kw, trivial_connection(QQ, g.num_edges))
    # 4-cycle: two matchings, det = Z^2 = 4
    assert det(a) == 4
    for e, ebar in g.unoriented:
        assert kw.values[e] == -kw.values[ebar]


def test_kasteleyn_needs_planar():
    # the two-loop bouquet on the torus has one face, chi = 0
    g = build_graph(1, [(0, 0), (0, 0)])
    from covertwist.graphs import RotationSystem
    rot = RotationSystem(((0, 2, 1, 3),))
    with pytest.raises(NotPlanarError):
        kasteleyn_orientation(g, rot)
