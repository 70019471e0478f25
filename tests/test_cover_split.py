"""The cover charpoly read off the certified identity.

For the trivial twist, cor1 and trees take charpoly(M_cover) as
charpoly(M_base)·charpoly(M_base^{ρ_c}), witnessed by ψ (conjugacy and
invertibility) and by Q = [1 | e_j − e_fixed].  The direct charpoly of
the cover operator survives only here, as the reference: the route the
certificates took before, a cover-order charpoly followed by exact
division, must give the same dividend, divisor, quotient, Z_ST and Z_RSF.
Broken witness parts must turn the documented report lines to FAIL.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import covertwist.certificates as certificates
from covertwist.certificates import (
    cor1_certificate,
    rooted_forest_polynomial,
    spanning_tree_polynomial,
    split_cover_charpoly,
    tree_certificates,
)
from covertwist.cli import main
from covertwist.covering import (
    VoltageAssignment,
    build_cover,
    coset_data,
    identity_cover,
)
from covertwist.domains import QQ
from covertwist.graphs import build_graph
from covertwist.homotopy import fundamental_presentation, spanning_tree
from covertwist.matrix import Matrix, charpoly
from covertwist.operators import (
    laplacian,
    lift_weights,
    symbolic_weights,
    twisted_adjacency,
    weights_from_unoriented,
)
from covertwist.poly import MultiPoly
from covertwist.representation import (
    permutation_complement,
    representation,
    trivial_connection,
    trivial_representation,
)

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)
DEGREES = pytest.mark.parametrize("d", [1, 2, 3, 4])
KINDS = pytest.mark.parametrize("kind", ["integer", "rational", "symbolic"])
C3 = "sample_inputs/c3.txt"


def direct_charpoly(p, x, operator):
    """charpoly of the cover operator itself, at order d·n."""
    return charpoly(operator(p.cover, lift_weights(p, x),
                             trivial_connection(QQ, p.cover.num_edges)))


def base_charpoly(p, x, operator):
    return charpoly(operator(p.base, x,
                             trivial_connection(QQ, p.base.num_edges)))


@st.composite
def covers(draw, d, kind):
    """A connected cover of degree d over a connected multigraph on at
    most three vertices (loops and parallel edges allowed), with integer,
    non-integer rational or symbolic weights."""
    # symbolic covers stay at 9 vertices or fewer: the direct reference
    # is a Berkowitz charpoly over Q[x] at the cover's order
    n = draw(st.integers(1, 3 if kind != "symbolic" else min(3, 9 // d)))
    vertex = st.integers(0, n - 1)
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(vertex, vertex),
                           min_size=1 if d > 1 else 0, max_size=3))
    g = build_graph(n, pairs)
    pres = fundamental_presentation(g, 0)
    perms = draw(st.lists(st.permutations(range(d)).map(tuple),
                          min_size=pres.rank, max_size=pres.rank))
    if not VoltageAssignment(d, tuple(perms)).is_transitive():
        perms[0] = tuple((i + 1) % d for i in range(d))
    if kind == "symbolic":
        x = symbolic_weights(g)
    else:
        den = 1 if kind == "integer" else 2
        num = st.integers(1, 5).filter(lambda k: den == 1 or k % 2)
        vals = [Fraction(draw(num), den) for _ in range(g.num_unoriented)]
        x = weights_from_unoriented(g, QQ, vals)
    return build_cover(pres, VoltageAssignment(d, tuple(perms))), x


@DEGREES
@KINDS
@pytest.mark.parametrize("operator", [twisted_adjacency, laplacian])
def test_product_equals_direct_cover_charpoly(d, kind, operator):
    check_product(covers(d, kind), operator)


@SETTINGS
@given(st.data())
def check_product(strategy, operator, data):
    p, x = data.draw(strategy)
    cd = coset_data(p, spanning_tree(p.base, p.base_vertex))
    split = split_cover_charpoly(p, cd, x, operator)
    assert split.ok
    assert split.base == base_charpoly(p, x, operator)
    assert split.cover == direct_charpoly(p, x, operator)


@DEGREES
@KINDS
def test_cor1_matches_the_direct_route(d, kind):
    check_cor1(covers(d, kind))


@SETTINGS
@given(st.data())
def check_cor1(strategy, data):
    p, x = data.draw(strategy)
    cover = direct_charpoly(p, x, twisted_adjacency)
    base = base_charpoly(p, x, twisted_adjacency)
    res = cor1_certificate(p, x)
    assert res.divisible and res.complement_matches
    assert res.certificate.dividend == cover
    assert res.certificate.divisor == base
    assert res.certificate.quotient == cover.exact_div(base)


@DEGREES
@KINDS
def test_trees_match_the_direct_route(d, kind):
    check_trees(covers(d, kind))


@SETTINGS
@given(st.data())
def check_trees(strategy, data):
    p, x = data.draw(strategy)
    nb, nc = p.base.num_vertices, p.cover.num_vertices
    P_cover = direct_charpoly(p, x, laplacian)
    P_base = base_charpoly(p, x, laplacian)
    res = tree_certificates(p, x)
    assert res.split.ok and res.tree_divisible and res.forest_divisible
    assert res.cover_charpoly == P_cover
    for cert, z in ((res.st, spanning_tree_polynomial),
                    (res.rsf, rooted_forest_polynomial)):
        dividend, divisor = z(P_cover, nc), z(P_base, nb)
        assert cert.dividend == dividend
        assert cert.divisor == divisor
        assert cert.quotient == dividend.exact_div(divisor)


def test_identity_cover_complement_is_empty():
    # d = 1 over a tree base: the complement has order 0 and charpoly 1
    for g in (build_graph(2, [(0, 1)]), build_graph(3, [(0, 1), (1, 2),
                                                        (2, 0)])):
        p = identity_cover(g)
        cd = coset_data(p, spanning_tree(g, 0))
        for operator in (twisted_adjacency, laplacian):
            split = split_cover_charpoly(p, cd, symbolic_weights(g), operator)
            assert split.ok
            assert split.complement.to_text() == "1"
            assert split.cover == split.base


def test_complement_of_degree_one_has_degree_zero():
    rho = trivial_representation(QQ, 0)
    assert permutation_complement(rho).degree == 0


# ---------------------------------------------------------------------------
# broken witnesses


def swap_two_columns(build):
    def broken(*args):
        psi = build(*args)
        data = [row[:] for row in psi.data]
        for row in data:   # two lifts of base vertex 0: ψ stays invertible
            row[0], row[1] = row[1], row[0]
        return Matrix(psi.domain, data, psi.block_size)
    return broken


def zero_psi(build):
    def broken(*args):
        psi = build(*args)
        return Matrix.zeros(psi.domain, psi.nrows, psi.ncols, psi.block_size)
    return broken


def change_one_entry(complement):
    def broken(rep, fixed=0):
        rc = complement(rep, fixed)
        m = rc.gen_mats[0].copy()
        m.data[0][0] += 2   # on the hexagon, -1 becomes 1: still invertible
        return representation(rc.domain, [m, *rc.gen_mats[1:]])
    return broken


def singular_basis(basis):
    def broken(d, fixed):
        q = basis(d, fixed)
        return Matrix(q.domain, [[0] + row[1:] for row in q.data])
    return broken


def shift_trace(cp):
    def broken(m):
        # adds λ^{N−1}: the product's trace coefficient moves, ψ and Q
        # stay intact
        p = cp(m)
        if m.nrows == 0:
            return p
        return p + MultiPoly.variable(p.reg, "lambda") ** (m.nrows - 1)
    return broken


BREAKS = {
    "psi columns swapped": ("build_psi", swap_two_columns),
    "psi zero": ("build_psi", zero_psi),
    "complement entry changed": ("permutation_complement", change_one_entry),
    "Q singular": ("complement_basis", singular_basis),
    "charpoly trace shifted": ("charpoly", shift_trace),
}

# the report lines each broken part must turn to FAIL; the quotient is
# one only with the whole witness, so its integrality and monic lines
# fail with every part
QUOTIENT_LINES = ["quotient integer coefficients", "quotient monic"]
COR1_LINES = {
    "psi columns swapped": ["charpoly divisible", *QUOTIENT_LINES],
    "psi zero": ["charpoly divisible", *QUOTIENT_LINES],
    "complement entry changed": ["quotient matches complement twist",
                                 *QUOTIENT_LINES],
    "Q singular": ["quotient matches complement twist", *QUOTIENT_LINES],
    "charpoly trace shifted": ["charpoly divisible", *QUOTIENT_LINES],
}
TREES_LINES = ["tree sum divisible", "forest sum divisible"]


def checks(out):
    return {line[len("check "):].rpartition(": ")[0]:
            line.rpartition(": ")[2]
            for line in out.splitlines() if line.startswith("check ")}


@pytest.mark.parametrize("command", ["cor1", "trees"])
def test_intact_witness_passes(capsys, command):
    assert main([command, "--input", C3]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("broken", sorted(BREAKS))
@pytest.mark.parametrize("command", ["cor1", "trees"])
def test_broken_witness_fails(capsys, monkeypatch, command, broken):
    name, breaker = BREAKS[broken]
    monkeypatch.setattr(certificates, name,
                        breaker(getattr(certificates, name)))
    code = main([command, "--input", C3])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    found = checks(captured.out)
    lines = COR1_LINES[broken] if command == "cor1" else TREES_LINES
    for line in lines:
        assert found[line] == "FAIL", (line, captured.out)
    assert "result: FAIL" in captured.out
