"""End-to-end certificates: intertwiner, divisibility, dimers, torus."""

from fractions import Fraction

import pytest

from covertwist.certificates import (
    cor1_certificate,
    cor2_certificate,
    dimer_certificate,
    kos_certificate,
    tree_certificates,
    verify_main,
)
from covertwist.covering import (
    VoltageAssignment,
    build_cover,
    coset_data,
    identity_cover,
)
from covertwist.domains import QQ
from covertwist.errors import EvenDegreeError, NotPlanarQuotientError
from covertwist.graphs import build_graph, default_rotation
from covertwist.homotopy import fundamental_presentation, spanning_tree
from covertwist.matrix import Matrix, charpoly
from covertwist.operators import (
    lift_weights,
    symbolic_weights,
    twisted_adjacency,
    weights_from_unoriented,
)
from covertwist.representation import representation, trivial_connection

from builders import evaluate, forest_coefficient_checks, unit_weights


def c3():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def c3_double_cover():
    g = c3()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(2, ((1, 0),)))
    return g, pres, p


def all_ones(poly):
    names = poly.reg.names
    return evaluate(poly, {n: Fraction(1) for n in names})


# ---------------------------------------------------------------------------
# the intertwiner


def test_verify_main_hexagon_cover():
    g, pres, p = c3_double_cover()
    cd = coset_data(p, spanning_tree(g, 0))
    rho = representation(QQ, [Matrix(QQ, [[1, 1], [0, 1]])])
    x = symbolic_weights(g)
    cert = verify_main(p, cd, rho, x)
    assert cert.commutes
    assert cert.invertible
    assert cert.ok
    assert cert.a_cover.nrows == 6 * 2
    assert cert.a_base.nrows == 3 * 4


def test_verify_main_identity_cover():
    g = c3()
    p = identity_cover(g)
    cd = coset_data(p, spanning_tree(g, 0))
    rho = representation(QQ, [Matrix(QQ, [[2, 1], [1, 1]])])
    cert = verify_main(p, cd, rho, symbolic_weights(g))
    assert cert.ok
    # degree-1 cover: both operators act on the same space
    assert cert.a_cover.shape == cert.a_base.shape


def test_verify_main_rational_rep_degree_two():
    g, pres, p = c3_double_cover()
    cd = coset_data(p, spanning_tree(g, 0))
    rho = representation(QQ, [Matrix(QQ, [[Fraction(1, 2), 1],
                                          [Fraction(1, 3), 2]])])
    cert = verify_main(p, cd, rho, symbolic_weights(g))
    assert cert.ok


# ---------------------------------------------------------------------------
# charpoly divisibility


def test_cor1_hexagon_quotient():
    g, pres, p = c3_double_cover()
    x = symbolic_weights(g)
    res = cor1_certificate(p, x)
    assert res.ok
    assert res.quotient_monic
    assert res.complement_matches
    q = res.certificate.quotient
    assert q.to_text() == ("-x_0^2*lambda + 2*x_0*x_1*x_2 - x_1^2*lambda "
                           "- x_2^2*lambda + lambda^3")
    assert res.certificate.check_product()
    # the dividend is the hexagon's own charpoly, not only base·quotient
    conn = trivial_connection(QQ, p.cover.num_edges)
    direct = charpoly(twisted_adjacency(p.cover, lift_weights(p, x), conn))
    assert res.certificate.dividend == direct


def test_cor1_identity_cover_quotient_is_one():
    g = c3()
    p = identity_cover(g)
    res = cor1_certificate(p, symbolic_weights(g))
    assert res.ok
    assert res.certificate.quotient.to_text() == "1"


# ---------------------------------------------------------------------------
# factorization over an abelian cover


def test_cor2_exact_symbolic():
    g, pres, p = c3_double_cover()
    res = cor2_certificate(p, pres, symbolic_weights(g))
    assert res.matches
    assert res.factor_degrees == (1, 1)


def test_cor2_triple_cover_numeric():
    # cube-root characters take Q(ζ_3); the product of their charpolys
    # comes back rational
    g = c3()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(3, ((1, 2, 0),)))
    x = weights_from_unoriented(g, QQ, (Fraction(1), Fraction(2),
                                        Fraction(1, 3)))
    res = cor2_certificate(p, pres, x)
    assert res.matches
    assert res.lhs == res.rhs
    assert all(isinstance(c, (int, Fraction))
               for c in res.rhs.terms.values())
    assert sorted(res.factor_degrees) == [1, 1, 1]


# ---------------------------------------------------------------------------
# spanning trees and rooted forests


def test_trees_hexagon_symbolic():
    g, pres, p = c3_double_cover()
    x = symbolic_weights(g)
    res = tree_certificates(p, x)
    assert res.ok
    assert res.st.quotient.to_text() == "2*x_0*x_1*x_2"
    assert res.st.check_product()
    assert res.rsf.check_product()
    tags = [t for t, _ in res.coefficient_checks]
    assert "base: c_{n-1} = -2*sum(x)" in tags
    assert all(flag for _, flag in res.coefficient_checks)


def test_trees_hexagon_unit_values():
    g, pres, p = c3_double_cover()
    res = tree_certificates(p, symbolic_weights(g))
    # spanning trees at unit weights: 6 upstairs, 3 downstairs
    assert all_ones(res.st.dividend) == 6
    assert all_ones(res.st.divisor) == 3
    # rooted forests: 320 over 16
    assert all_ones(res.rsf.dividend) == 320
    assert all_ones(res.rsf.divisor) == 16
    assert all_ones(res.rsf.quotient) == 20


def test_forest_quotient_frozen():
    g, pres, p = c3_double_cover()
    res = tree_certificates(p, symbolic_weights(g))
    assert res.rsf.quotient.to_text() == (
        "4*x_0*x_1*x_2 + 3*x_0*x_1 + 3*x_0*x_2 + 3*x_1*x_2"
        " + 2*x_0 + 2*x_1 + 2*x_2 + 1")


def test_forest_coefficient_checks_exhaustive_small():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    checks = forest_coefficient_checks(g, symbolic_weights(g))
    assert checks
    assert all(flag for _, flag in checks)


# ---------------------------------------------------------------------------
# dimers


def test_dimer_square_triple_cover():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rot = default_rotation(g)
    zd = (1, 2, 0, 0, 0, 0, 0, 0)
    res = dimer_certificate(g, rot, zd, 3, symbolic_weights(g))
    assert res.ok
    assert res.det_identity
    assert res.z_base.to_text() == "x_0*x_2 + x_1*x_3"
    assert res.z_cover.to_text() == "x_0^3*x_2^3 + x_1^3*x_3^3"
    assert res.matching_cert.quotient.to_text() == (
        "x_0^2*x_2^2 - x_0*x_1*x_2*x_3 + x_1^2*x_3^2")
    assert res.pf_base_squared_ok and res.pf_cover_squared_ok


def test_dimer_rejects_even_symmetry():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rot = default_rotation(g)
    with pytest.raises(EvenDegreeError):
        dimer_certificate(g, rot, (0,) * 8, 2, symbolic_weights(g))


def test_dimer_rejects_torus_quotient():
    g = build_graph(1, [(0, 0), (0, 0)])
    from covertwist.graphs import RotationSystem
    rot = RotationSystem(((0, 2, 1, 3),))
    with pytest.raises(NotPlanarQuotientError):
        dimer_certificate(g, rot, (0,) * 4, 3, symbolic_weights(g))


# ---------------------------------------------------------------------------
# torus product identity


def test_kos_bouquet_3x3():
    g = build_graph(1, [(0, 0), (0, 0)])
    z2 = ((1, 0), (-1, 0), (0, 1), (0, -1))
    res = kos_certificate(g, z2, unit_weights(g), 3, 3)
    assert res.ok
    assert res.lhs == res.rhs == 64
    assert len(res.factors) == 9


def test_kos_bouquet_2x2_degenerate():
    g = build_graph(1, [(0, 0), (0, 0)])
    z2 = ((1, 0), (-1, 0), (0, 1), (0, -1))
    res = kos_certificate(g, z2, unit_weights(g), 2, 2)
    assert res.ok
    assert res.lhs == res.rhs == 0


def test_kos_rational_weights():
    g = build_graph(1, [(0, 0), (0, 0)])
    z2 = ((1, 0), (-1, 0), (0, 1), (0, -1))
    x = weights_from_unoriented(g, QQ, (Fraction(1, 2), Fraction(3, 4)))
    res = kos_certificate(g, z2, x, 2, 3)
    assert res.ok
