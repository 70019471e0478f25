"""Prime cycles, L-series determinants, log-derivative identity, axioms."""

from fractions import Fraction

import pytest

from covertwist.covering import (
    VoltageAssignment,
    build_cover,
    perm_compose,
    perm_identity,
)
from covertwist.domains import QQ
from covertwist.errors import BudgetExceededError, RegistryMismatchError
from covertwist.graphs import build_graph
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import Matrix
from covertwist.operators import (
    symbolic_weights,
    weights_from_unoriented,
)
from covertwist.representation import representation, trivial_representation
from covertwist.zeta import (
    amitsur_check,
    artin_axioms,
    l_series_inverse,
    prime_cycles,
    untwisted_l_series_inverse,
)

from builders import unit_weights


def c3():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def b2():
    return build_graph(1, [(0, 0), (0, 0)])


# ---------------------------------------------------------------------------
# prime cycles


def test_prime_cycle_counts():
    # the triangle has exactly its two orientations at length three
    assert len(prime_cycles(c3(), 3)) == 2
    # four non-backtracking length-1 loops on the two-loop bouquet
    assert len(prime_cycles(b2(), 1)) == 4
    # a single edge supports no non-backtracking cycle at all
    k2 = build_graph(2, [(0, 1)])
    assert len(prime_cycles(k2, 6)) == 0


def test_prime_cycles_reject_powers():
    # squares of the triangle loops are not primitive
    primes = prime_cycles(c3(), 6)
    lengths = sorted(pc.length for pc in primes)
    assert lengths == [3, 3]


def test_cycle_is_closed_and_nonbacktracking():
    g = b2()
    for pc in prime_cycles(g, 4):
        es = pc.edges
        for a, b in zip(es, es[1:] + es[:1]):
            assert g.tgt[a] == g.src[b]
            assert b != g.inv[a]


# ---------------------------------------------------------------------------
# determinant form of the series


def test_c3_untwisted_line_determinant():
    g = c3()
    x = unit_weights(g)
    out = untwisted_l_series_inverse(g, x)
    assert out.to_text() == "u^6 - 2*u^3 + 1"


def test_twisted_determinant_sign_character():
    g = c3()
    pres = fundamental_presentation(g, 0)
    x = unit_weights(g)
    rho = representation(QQ, [Matrix(QQ, [[-1]])])
    out = l_series_inverse(g, x, rho, pres)
    # the sign twist flips the odd coefficient: (1 + u^3)^2
    assert out.to_text() == "u^6 + 2*u^3 + 1"


def test_twisted_times_trivial_covers_untwisted():
    g = c3()
    pres = fundamental_presentation(g, 0)
    x = unit_weights(g)
    triv = trivial_representation(QQ, pres.rank)
    assert l_series_inverse(g, x, triv, pres) == untwisted_l_series_inverse(g, x)


# ---------------------------------------------------------------------------
# the log-derivative identity


def test_amitsur_c3_exact():
    g = c3()
    pres = fundamental_presentation(g, 0)
    res = amitsur_check(g, symbolic_weights(g),
                        trivial_representation(QQ, pres.rank), pres,
                        max_length=6)
    assert res.ok
    assert res.prime_count == 2
    assert res.lhs == res.rhs
    assert res.lhs.to_text() != "0"


def test_amitsur_b2_twisted():
    g = b2()
    pres = fundamental_presentation(g, 0)
    rho = representation(QQ, [Matrix(QQ, [[1, 1], [0, 1]]),
                              Matrix(QQ, [[2, 0], [0, Fraction(1, 2)]])])
    res = amitsur_check(g, symbolic_weights(g), rho, pres, max_length=4)
    assert res.ok


def test_amitsur_rational_weights():
    g = c3()
    pres = fundamental_presentation(g, 0)
    x = weights_from_unoriented(g, QQ, (Fraction(1, 2), Fraction(2), Fraction(3)))
    res = amitsur_check(g, x, trivial_representation(QQ, pres.rank), pres,
                        max_length=8)
    assert res.ok


def test_amitsur_budget():
    g = c3()
    pres = fundamental_presentation(g, 0)
    with pytest.raises(BudgetExceededError):
        amitsur_check(g, symbolic_weights(g),
                      trivial_representation(QQ, pres.rank), pres,
                      max_length=13)


def test_amitsur_series_variable_collision():
    g = c3()
    pres = fundamental_presentation(g, 0)
    x = symbolic_weights(g, prefix="u")
    with pytest.raises(RegistryMismatchError):
        amitsur_check(g, x, trivial_representation(QQ, pres.rank), pres,
                      max_length=2, series_var="u_0")


# ---------------------------------------------------------------------------
# the four axioms on a tower


def z4_over_b2():
    g = b2()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(4, ((1, 2, 3, 0),
                                                (0, 1, 2, 3))))
    return g, pres, p


def test_artin_axioms_z4_tower():
    g, pres, p = z4_over_b2()
    sigma = (1, 2, 3, 0)
    sq = perm_compose(sigma, sigma)
    sub = (perm_identity(4), sq)
    res = artin_axioms(p, pres, sub, symbolic_weights(g))
    assert res.identity_axiom
    assert res.additivity_axiom
    assert res.inflation_axiom
    assert res.induction_axiom
    assert res.ok
    assert res.group_order == 4
    assert res.subgroup_order == 2


def test_artin_axioms_z4_over_triangle():
    g = c3()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(4, ((1, 2, 3, 0),)))
    sigma = (1, 2, 3, 0)
    sub = (perm_identity(4), perm_compose(sigma, sigma))
    res = artin_axioms(p, pres, sub, symbolic_weights(g))
    assert res.ok
    assert res.group_order == 4


def test_artin_trivial_subgroup():
    g, pres, p = z4_over_b2()
    sub = (perm_identity(4),)
    res = artin_axioms(p, pres, sub, symbolic_weights(g))
    assert res.ok
    assert res.subgroup_order == 1
