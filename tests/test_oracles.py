"""Brute-force enumeration oracles and their budgets."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from covertwist import oracles
from covertwist.certificates import unoriented_values
from covertwist.errors import BudgetExceededError
from covertwist.graphs import build_graph
from covertwist.matrix import Matrix
from covertwist.operators import symbolic_weights
from covertwist.oracles import (
    enum_forests,
    enum_perfect_matchings,
    enum_spanning_trees,
    matching_sum,
    rooted_forest_sum,
    rooted_forest_sum_by_components,
    tree_sum,
)
from covertwist.domains import QI, QQ
from covertwist.poly import MultiPoly
from bareiss_reference import det_bareiss
from builders import gaussian, random_int_matrix
from leibniz_reference import det_leibniz
from oracle_reference import (
    ref_forests,
    ref_matching_sum,
    ref_perfect_matchings,
    ref_rooted_forest_sum,
    ref_rooted_forest_sum_by_components,
    ref_spanning_trees,
    ref_tree_sum,
)


def c3():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def k4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_c3_tree_count_and_sum():
    g = c3()
    trees = enum_spanning_trees(g)
    assert len(trees) == 3
    x = symbolic_weights(g)
    reg = x.domain.reg
    s = tree_sum(g, x.domain, unoriented_values(g, x))
    v = {n: MultiPoly.variable(reg, n) for n in ("x_0", "x_1", "x_2")}
    assert s == v["x_0"] * v["x_1"] + v["x_0"] * v["x_2"] + v["x_1"] * v["x_2"]


def test_k4_tree_count():
    assert len(enum_spanning_trees(k4())) == 16


def test_multiedge_trees():
    # doubling one edge of a path doubles the tree count
    g = build_graph(3, [(0, 1), (0, 1), (1, 2)])
    assert len(enum_spanning_trees(g)) == 2


def test_loop_never_in_tree():
    g = build_graph(2, [(0, 1), (0, 0)])
    trees = enum_spanning_trees(g)
    assert trees == [frozenset({0})]


def test_forests_include_empty_set():
    g = c3()
    forests = enum_forests(g)
    sizes = sorted(len(f) for f, _, _, _ in forests)
    assert sizes[0] == 0
    assert len(forests) == 7  # empty, three 1-edge, three 2-edge


def test_c3_rooted_forest_value():
    g = c3()
    ones = tuple(Fraction(1) for _ in range(3))
    assert rooted_forest_sum(g, QQ, ones) == 16


def test_c6_frozen_forest_values():
    g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    ones = tuple(Fraction(1) for _ in range(6))
    assert tree_sum(g, QQ, ones) == 6
    assert rooted_forest_sum(g, QQ, ones) == 320


def test_forest_sum_by_components():
    g = c3()
    ones = tuple(Fraction(1) for _ in range(3))
    by_k = rooted_forest_sum_by_components(g, QQ, ones)
    # k components of a 3-vertex graph: spanning trees contribute at k=1
    assert by_k[1] == 3 * 3  # each tree rooted 3 ways
    assert sum(by_k.values()) == 16


def test_matchings_q4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ms = enum_perfect_matchings(g)
    assert len(ms) == 2
    ones = tuple(Fraction(1) for _ in range(4))
    assert matching_sum(g, QQ, ones) == 2


def test_matchings_odd_graph_empty():
    assert enum_perfect_matchings(c3()) == []


def test_matching_ignores_loops():
    g = build_graph(2, [(0, 1), (0, 0)])
    assert len(enum_perfect_matchings(g)) == 1


def test_tree_budget():
    g = build_graph(2, [(0, 1)] * 25)
    with pytest.raises(BudgetExceededError):
        enum_spanning_trees(g)


def test_tree_state_budget(monkeypatch):
    # a wide frontier stops at the state budget, not at the end of memory
    g = build_graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert tree_sum(g, QQ, [1] * 10) == 125
    monkeypatch.setattr(oracles, "TREE_STATE_BUDGET", 10)
    with pytest.raises(BudgetExceededError, match="10-state tree budget"):
        tree_sum(g, QQ, [1] * 10)


def test_forest_budget():
    g = build_graph(2, [(0, 1)] * 21)
    with pytest.raises(BudgetExceededError):
        enum_forests(g)


def test_matching_budget():
    g = build_graph(22, [(i, i + 1) for i in range(21)])
    with pytest.raises(BudgetExceededError):
        enum_perfect_matchings(g)


def test_leibniz_budget():
    m = Matrix.identity(QQ, 8)
    with pytest.raises(BudgetExceededError):
        det_leibniz(m)


def test_leibniz_matches_bareiss():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(1, 6)
        m = random_int_matrix(rng, n, bound=4)
        assert det_leibniz(m) == det_bareiss(m)


# ---------------------------------------------------------------------------
# the walk against the reference enumeration (tests/oracle_reference.py)


def random_multigraph(rng):
    """Up to 8 vertices and 12 edges, loops and parallel edges allowed."""
    n = rng.randrange(2, 9)
    pairs = []
    for _ in range(rng.randrange(n - 1, 12)):
        a = rng.randrange(n)
        b = a if rng.random() < 0.15 else rng.choice(
            [v for v in range(n) if v != a])
        pairs.append((a, b))
    pairs.append(rng.choice(pairs))   # a parallel edge or a second loop
    return build_graph(n, pairs)


def random_values(rng, g, kind):
    ne = g.num_unoriented
    if kind == "QQ":
        return QQ, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(ne)]
    if kind == "QQ(i)":
        return QI, [gaussian(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(ne)]
    x = symbolic_weights(g)
    return x.domain, unoriented_values(g, x)


@pytest.mark.parametrize("seed", range(40))
def test_enumerations_match_reference(seed):
    g = random_multigraph(random.Random(seed))
    assert enum_spanning_trees(g) == ref_spanning_trees(g)
    assert [f[:3] for f in enum_forests(g)] == ref_forests(g)
    assert enum_perfect_matchings(g) == ref_perfect_matchings(g)


@pytest.mark.parametrize("kind", ["QQ", "QQ(i)", "symbolic"])
@pytest.mark.parametrize("seed", range(8))
def test_sums_match_reference(seed, kind):
    rng = random.Random(f"sums:{seed}:{kind}")
    g = random_multigraph(rng)
    dom, vals = random_values(rng, g, kind)
    assert tree_sum(g, dom, vals) == ref_tree_sum(g, dom, vals)
    assert rooted_forest_sum(g, dom, vals) == \
        ref_rooted_forest_sum(g, dom, vals)
    assert rooted_forest_sum_by_components(g, dom, vals) == \
        ref_rooted_forest_sum_by_components(g, dom, vals)
    assert matching_sum(g, dom, vals) == ref_matching_sum(g, dom, vals)


def test_dense_multigraph_matches_reference():
    # every vertex pair joined, one pair doubled and a loop: the walk
    # merges and restores components of every size
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    g = build_graph(5, pairs + [(1, 3), (2, 2)])
    assert enum_spanning_trees(g) == ref_spanning_trees(g)
    assert [f[:3] for f in enum_forests(g)] == ref_forests(g)
    x = symbolic_weights(g)
    vals = unoriented_values(g, x)
    assert rooted_forest_sum_by_components(g, x.domain, vals) == \
        ref_rooted_forest_sum_by_components(g, x.domain, vals)


# ---------------------------------------------------------------------------
# the frontier DPs against the reference enumeration, on drawn multigraphs

DP_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def multigraphs(draw):
    """1 to 7 vertices and up to 11 edges: loops, parallel edges, odd n,
    n = 1 and disconnected graphs all come up."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))  # parallel, or a 2nd loop
    return build_graph(n, pairs)


@st.composite
def weighted_multigraphs(draw):
    """A drawn multigraph with symbolic, unit (as parsed: Fraction(1)),
    integer or non-integer rational edge values."""
    g = draw(multigraphs())
    ne = g.num_unoriented
    kind = draw(st.sampled_from(["symbolic", "unit", "integer", "rational"]))
    if kind == "symbolic":
        x = symbolic_weights(g)
        return g, x.domain, unoriented_values(g, x)
    if kind == "unit":
        return g, QQ, [Fraction(1)] * ne
    if kind == "integer":
        value = st.integers(-4, 4)
    else:
        value = st.builds(Fraction, st.integers(-4, 4), st.integers(2, 5))
    return g, QQ, draw(st.lists(value, min_size=ne, max_size=ne))


DISCONNECTED = build_graph(4, [(0, 1), (2, 3), (2, 3)])


@DP_SETTINGS
@given(weighted_multigraphs())
@example((build_graph(1, [(0, 0)]), QQ, [Fraction(1, 2)]))
@example((DISCONNECTED, QQ, [Fraction(1, 2), Fraction(2, 3), 3]))
@example((build_graph(3, [(0, 1), (1, 2), (2, 0), (1, 1)]), QQ,
          [1, 2, 3, Fraction(-1, 2)]))
def test_frontier_sums_match_reference(case):
    g, dom, vals = case
    assert tree_sum(g, dom, vals) == ref_tree_sum(g, dom, vals)
    assert matching_sum(g, dom, vals) == ref_matching_sum(g, dom, vals)


@DP_SETTINGS
@given(multigraphs())
@example(build_graph(1, []))
@example(DISCONNECTED)
def test_frontier_counts_match_the_enumerators(g):
    ones = [1] * g.num_unoriented
    assert tree_sum(g, QQ, ones) == len(enum_spanning_trees(g))
    assert matching_sum(g, QQ, ones) == len(enum_perfect_matchings(g))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weighted_multigraphs(), st.randoms(use_true_random=False))
def test_frontier_sums_do_not_depend_on_the_vertex_order(case, rng):
    # the same edges, in the same index order, between relabelled
    # vertices: the DPs meet the vertices in another order
    g, dom, vals = case
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    h = build_graph(g.num_vertices, [(perm[g.src[e]], perm[g.tgt[e]])
                                     for e, _ in g.unoriented])
    assert tree_sum(h, dom, vals) == tree_sum(g, dom, vals)
    assert matching_sum(h, dom, vals) == matching_sum(g, dom, vals)
