"""Prime cycles, L-series determinants, log-derivative identity, axioms."""

import random
import time
from fractions import Fraction
from math import ceil
from unittest import mock

import pytest

from covertwist import zeta
from covertwist.covering import (
    VoltageAssignment,
    build_cover,
    coset_data,
    perm_compose,
    perm_identity,
)
from covertwist.domains import QQ
from covertwist.errors import (
    BudgetExceededError,
    RegistryMismatchError,
    work_limit,
)
from covertwist.graphs import build_graph
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import Matrix
from covertwist.operators import (
    symbolic_weights,
    weights_from_unoriented,
)
from covertwist.poly import MAX_EXP
from covertwist.representation import representation, trivial_representation
from covertwist.zeta import (
    _walk_counts,
    amitsur_check,
    artin_axioms,
    l_series_inverse,
    prime_cycles,
    untwisted_l_series_inverse,
)

from amitsur_reference import amitsur_lhs_reference
from builders import cyclic_character, unimodular_rep, unit_weights


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


def closed_path_charges(g, max_length: int) -> list[int]:
    """The prime search's charges for its closed paths, sorted: k units
    per rotation tried, one per occurrence of the first edge, for each
    closed cyclically non-backtracking walk of length k <= max_length
    that starts at its least edge, walks listed one by one."""
    out = []
    walks = [[e] for e in range(g.num_edges)]
    for _ in range(max_length):
        out += [len(w) * w.count(w[0]) for w in walks
                if w[0] == min(w) and g.tgt[w[-1]] == g.src[w[0]]
                and g.inv[w[0]] != w[-1]]
        walks = [w + [e] for w in walks for e in g.out_edges[g.tgt[w[-1]]]
                 if e != g.inv[w[-1]]]
    return sorted(out)


def test_amitsur_budget(monkeypatch):
    # the prime search is charged its walk count before any power of B
    # is formed, so a length past the work budget stops at once
    g = rank3_graph()
    pres = fundamental_presentation(g, 0)
    rho = trivial_representation(QQ, pres.rank)
    assert sum(_walk_counts(g, 13)) > 1000
    with work_limit(1000), \
            mock.patch.object(Matrix, "__mul__", side_effect=AssertionError), \
            pytest.raises(BudgetExceededError,
                          match="work budget exceeded in prime_cycles"):
        amitsur_check(g, symbolic_weights(g), rho, pres, max_length=13)
    units = []
    monkeypatch.setattr(zeta, "charge", lambda n, where: units.append(n))
    assert amitsur_check(g, symbolic_weights(g), rho, pres, max_length=4).ok
    monkeypatch.undo()
    assert units[0] == 4 * (3 * g.num_edges + g.num_vertices)
    assert units[1:5] == list(_walk_counts(g, 4))
    # then, as the search meets them, its closed paths
    assert sorted(units[5:-1]) == closed_path_charges(g, 4)
    with work_limit(sum(units)):
        assert amitsur_check(g, symbolic_weights(g), rho, pres,
                             max_length=4).ok
    # the powers of B it keeps are charged next, before any is formed
    with work_limit(sum(units) - 1), \
            mock.patch.object(Matrix, "__mul__", side_effect=AssertionError), \
            pytest.raises(BudgetExceededError,
                          match="work budget exceeded in amitsur_check"):
        amitsur_check(g, symbolic_weights(g), rho, pres, max_length=4)


def path_graph(n: int):
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def test_a_tree_counts_its_walks_only_while_there_are_any():
    # no walk outlasts the longest path, so the count stops there, not
    # after one step per length of a long horizon
    t0 = time.perf_counter()
    assert prime_cycles(path_graph(3), 10 ** 7) == []
    assert time.perf_counter() - t0 < 1.0


def test_amitsur_refuses_a_series_past_the_exponent_limit():
    g = path_graph(2)
    pres = fundamental_presentation(g, 0)
    rho = trivial_representation(QQ, pres.rank)
    x = weights_from_unoriented(g, QQ, [1])
    with pytest.raises(BudgetExceededError,
                       match=f"series length past {MAX_EXP}"):
        amitsur_check(g, x, rho, pres, max_length=MAX_EXP + 1)


def non_backtracking_walks(g, length: int) -> int:
    """Walks of exactly `length` directed edges, none followed by its
    reverse, counted one by one."""
    walks = [[e] for e in range(g.num_edges)]
    for _ in range(length - 1):
        walks = [w + [e] for w in walks for e in g.out_edges[g.tgt[w[-1]]]
                 if e != g.inv[w[-1]]]
    return len(walks)


@pytest.mark.parametrize("graph", ["c3", "b2", "rank3"])
def test_walk_counts_are_the_non_backtracking_walks(graph):
    g = {"c3": c3, "b2": b2, "rank3": rank3_graph}[graph]()
    assert list(_walk_counts(g, 6)) == [non_backtracking_walks(g, k)
                                        for k in range(1, 7)]


def test_amitsur_series_variable_collision():
    g = c3()
    pres = fundamental_presentation(g, 0)
    x = symbolic_weights(g, prefix="u")
    with pytest.raises(RegistryMismatchError):
        amitsur_check(g, x, trivial_representation(QQ, pres.rank), pres,
                      max_length=2, series_var="u_0")


def rank3_graph():
    """A 5-cycle with two chords: loop rank 3, and 290 primes of length
    at most 12."""
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                           (0, 2), (1, 3)])


def small_integer_weights(rng, g):
    return weights_from_unoriented(
        g, QQ, [rng.randrange(1, 3) for _ in range(g.num_unoriented)])


AMITSUR_CASES = [
    ("QQ", small_integer_weights, unimodular_rep),
    ("QQ(i)", small_integer_weights,
     lambda rng, rank: cyclic_character(rng, rank, 4)),
    ("Q(zeta_5)", small_integer_weights,
     lambda rng, rank: cyclic_character(rng, rank, 5)),
    ("symbolic", lambda rng, g: symbolic_weights(g), unimodular_rep),
]


@pytest.mark.parametrize("name, weights, rep", AMITSUR_CASES,
                         ids=[c[0] for c in AMITSUR_CASES])
def test_amitsur_traces_match_one_product_per_length(name, weights, rep):
    # the half-length powers give the same trace series as B^k = B^(k-1)*B
    # at every length up to 12
    rng = random.Random(f"amitsur:{name}")
    g = rank3_graph()
    pres = fundamental_presentation(g, 0)
    x = weights(rng, g)
    rho = rep(rng, pres.rank)
    for length in range(1, 13):
        res = amitsur_check(g, x, rho, pres, max_length=length)
        assert res.lhs == amitsur_lhs_reference(g, x, rho, pres, length)
        assert res.ok


@pytest.mark.parametrize("length", [1, 2, 7, 8, 12])
def test_amitsur_forms_half_the_powers(length):
    # a length-L check multiplies operator-sized matrices ceil(L/2) - 1
    # times: B^2, ..., B^ceil(L/2)
    g = rank3_graph()
    pres = fundamental_presentation(g, 0)
    rho = unimodular_rep(random.Random(length), pres.rank)
    order = 2 * g.num_unoriented * rho.degree
    products = []
    real_mul = Matrix.__mul__

    def counting_mul(a, b):
        if a.nrows == order:
            products.append(b.ncols)
        return real_mul(a, b)

    with mock.patch.object(Matrix, "__mul__", counting_mul):
        res = amitsur_check(g, unit_weights(g), rho, pres, max_length=length)
    assert res.ok
    assert products == [order] * (ceil(length / 2) - 1)


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
    res = artin_axioms(coset_data(p), sub, symbolic_weights(g))
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
    res = artin_axioms(coset_data(p), sub, symbolic_weights(g))
    assert res.ok
    assert res.group_order == 4


def test_artin_trivial_subgroup():
    g, pres, p = z4_over_b2()
    sub = (perm_identity(4),)
    res = artin_axioms(coset_data(p), sub, symbolic_weights(g))
    assert res.ok
    assert res.subgroup_order == 1
