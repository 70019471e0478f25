"""The cover charpoly read off the certified identity.

For the trivial twist, cor1, trees, cor2 and dimer take charpoly(M_cover)
as charpoly(M_base)·charpoly(M_base^{ρ_c}), witnessed by ψ (conjugacy and
invertibility) and by Q = [1 | e_j − e_fixed].  The direct charpoly and
determinant of the cover operator survive only here, as the reference:
the routes the certificates took before (a cover-order charpoly followed
by exact division, det(K_cover) for dimer) must give the same dividend,
divisor, quotient, Z_ST, Z_RSF, cover charpoly and cover determinant, and
no certificate may take a charpoly or determinant at the cover's order.
Broken witness parts must turn the documented report lines to FAIL.
"""

import cmath
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import covertwist.certificates as certificates
import covertwist.matrix as matrix
from covertwist.certificates import (
    cor1_certificate,
    cor2_certificate,
    dimer_certificate,
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
    edge_voltage_cover,
    identity_cover,
)
from covertwist.domains import QQ
from covertwist.graphs import (
    build_graph,
    default_rotation,
    faces,
    is_connected,
)
from covertwist.homotopy import fundamental_presentation, spanning_tree
from covertwist.matrix import Matrix, charpoly, det
from covertwist.operators import (
    kasteleyn_orientation,
    kasteleyn_weights,
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
DIMER = "sample_inputs/dimer_c4.txt"


def direct_charpoly(p, x, operator):
    """charpoly of the cover operator itself, at order d·n."""
    return charpoly(operator(p.cover, lift_weights(p, x),
                             trivial_connection(QQ, p.cover.num_edges)))


def base_charpoly(p, x, operator):
    return charpoly(operator(p.base, x,
                             trivial_connection(QQ, p.base.num_edges)))


def draw_weights(draw, g, kind):
    """Integer, non-integer rational or symbolic weights on g."""
    if kind == "symbolic":
        return symbolic_weights(g)
    den = 1 if kind == "integer" else 2
    num = st.integers(1, 5).filter(lambda k: den == 1 or k % 2)
    vals = [Fraction(draw(num), den) for _ in range(g.num_unoriented)]
    return weights_from_unoriented(g, QQ, vals)


@st.composite
def covers(draw, d, kind, cyclic=False):
    """A connected cover of degree d over a connected multigraph on at
    most three vertices (loops and parallel edges allowed), with integer,
    non-integer rational or symbolic weights.  A cyclic cover takes its
    voltages among the powers of one d-cycle, so it is normal with deck
    group ℤ/d."""
    # symbolic covers stay at 9 vertices or fewer: the direct reference
    # is a Berkowitz charpoly over Q[x] at the cover's order
    n = draw(st.integers(1, 3 if kind != "symbolic" else min(3, 9 // d)))
    vertex = st.integers(0, n - 1)
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(vertex, vertex),
                           min_size=1 if d > 1 else 0, max_size=3))
    g = build_graph(n, pairs)
    pres = fundamental_presentation(g, 0)
    if cyclic:
        shifts = draw(st.lists(st.integers(0, d - 1),
                               min_size=pres.rank, max_size=pres.rank))
        perms = [tuple((i + k) % d for i in range(d)) for k in shifts]
    else:
        perms = draw(st.lists(st.permutations(range(d)).map(tuple),
                              min_size=pres.rank, max_size=pres.rank))
    if not VoltageAssignment(d, tuple(perms)).is_transitive():
        perms[0] = tuple((i + 1) % d for i in range(d))
    x = draw_weights(draw, g, kind)
    return build_cover(pres, VoltageAssignment(d, tuple(perms))), x


@st.composite
def dimer_inputs(draw, d, kind):
    """An even cycle (two parallel edges at two vertices) with at most
    one chord, planar under its default rotation, and ℤ/d edge voltages
    whose cover is connected and planar: exactly two faces wind, holding
    the fixed points of the rotation the cover's symmetry is.  The cover
    has at most 16 vertices (12 when symbolic: the direct reference is a
    determinant at the cover's order)."""
    top = 16 if kind != "symbolic" else 12
    n = draw(st.sampled_from([k for k in (2, 4, 6) if k * d <= top]))
    pairs = [(v, (v + 1) % n) for v in range(n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1))
                           .filter(lambda e: e[0] != e[1]), max_size=1))
    g = build_graph(n, pairs)
    fc = faces(g, default_rotation(g))
    assume(fc.euler_characteristic == 2)
    zd = [0] * g.num_edges
    for e, ebar in g.unoriented:
        zd[e] = draw(st.integers(0, d - 1))
        zd[ebar] = -zd[e] % d
    zd = tuple(zd)
    winding = sum(1 for walk in fc.walks if sum(zd[e] for e in walk) % d)
    assume(d == 1 or winding == 2)
    p = edge_voltage_cover(g, tuple((b,) for b in zd), (d,))
    assume(is_connected(p.cover))
    return g, zd, p, draw_weights(draw, g, kind)


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


@pytest.mark.parametrize("d, kind", [
    (d, kind) for d in (1, 2, 3, 4)
    for kind in ("integer", "rational", "symbolic")
    # cube roots of unity refuse symbolic weights
    if (d, kind) != (3, "symbolic")])
def test_cor2_matches_the_direct_route(d, kind):
    check_cor2(covers(d, kind, cyclic=True))


@SETTINGS
@given(st.data())
def check_cor2(strategy, data):
    p, x = data.draw(strategy)
    cover = direct_charpoly(p, x, twisted_adjacency)
    res = cor2_certificate(p, fundamental_presentation(p.base, 0), x)
    assert res.ok
    if res.exact:
        assert res.lhs == cover
    else:
        # the direct charpoly sums its terms in another order, so the
        # values agree up to rounding: to 1e-12 of the coefficients' size
        n = p.cover.num_vertices
        expected = [complex(cover.evaluate(
                        {"lambda": cmath.exp(2j * cmath.pi * k / (n + 1))}))
                    for k in range(n + 1)]
        size = sum(abs(c) for c in cover.terms.values())
        assert list(res.lhs) == pytest.approx(expected, rel=0,
                                              abs=1e-12 * size)


# edges 0–1, 0–2 and a loop at 0, ℤ/3 voltage on the loop: the cover
# charpoly's coefficients reach 17576, and its λ^4 coefficient is 0
COR2_FLOATING = """graph:
  vertices = 3
  edge 0 1
  edge 0 2
  edge 0 0
weights:
  kind = rational
  value 0 = 1
  value 1 = 5
  value 2 = 3
voltage:
  degree = 3
  generator 0 = (0 1 2)
"""


def perturb_characters(build):
    def perturbed(g, x, c):
        a = build(g, x, c)
        if not a.domain.exact:   # the character-twisted base operators
            a.data[0][0] += 1e-6
        return a
    return perturbed


@pytest.mark.parametrize("perturbed, code, verdict", [
    (False, 0, "pass"), (True, 1, "FAIL")])
def test_cor2_floating_at_default_tolerances(capsys, monkeypatch, tmp_path,
                                             perturbed, code, verdict):
    path = tmp_path / "cor2.txt"
    path.write_text(COR2_FLOATING, encoding="utf-8")
    if perturbed:
        monkeypatch.setattr(certificates, "twisted_adjacency",
                            perturb_characters(certificates.twisted_adjacency))
    assert main(["cor2", "--input", str(path)]) == code
    out = capsys.readouterr().out
    assert f"check factorization within tolerance: {verdict}" in out


@pytest.mark.parametrize("d", [1, 3, 5])
@KINDS
def test_dimer_matches_the_direct_route(d, kind):
    check_dimer(dimer_inputs(d, kind))


@SETTINGS
@given(st.data())
def check_dimer(strategy, data):
    g, zd, p, x = data.draw(strategy)
    rot = default_rotation(g)
    kw = kasteleyn_weights(g, kasteleyn_orientation(g, rot), x)
    direct = det(twisted_adjacency(p.cover, lift_weights(p, kw),
                                   trivial_connection(QQ, p.cover.num_edges)))
    res = dimer_certificate(g, rot, zd, p.degree, x)
    assert res.ok
    if not isinstance(direct, MultiPoly):
        direct = MultiPoly.const(res.det_cover.reg, direct)
    assert res.det_cover == direct


# the 4-cycle plus a second 1–2 edge: planar, but with voltage 1 on
# edges 3 and 4 its ℤ/3 cover under the lifted rotation is not
DIMER_NONPLANAR_COVER = """graph:
  vertices = 4
  edge 0 1
  edge 1 2
  edge 2 3
  edge 3 0
  edge 1 2
weights:
  kind = unit
zdvoltage:
  modulus = 3
  edge 0 = 0
  edge 1 = 0
  edge 2 = 0
  edge 3 = 1
  edge 4 = 1
"""


def test_dimer_refuses_a_nonplanar_cover_before_any_charpoly(
        capsys, monkeypatch, tmp_path):
    path = tmp_path / "dimer.txt"
    path.write_text(DIMER_NONPLANAR_COVER, encoding="utf-8")
    orders = record_orders(monkeypatch)
    assert main(["dimer", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cover embedding has Euler characteristic" in captured.err
    assert orders == []


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
# no charpoly or determinant at the cover's order


def record_orders(monkeypatch):
    """The orders of the matrices whose charpoly or determinant is taken,
    exactly or by floating LU, from here on; Pfaffians are not seen."""
    orders = []
    for name in ("_charpoly_coeffs", "_det_lu"):
        def recording(m, kernel=getattr(matrix, name)):
            orders.append(m.nrows)
            return kernel(m)
        monkeypatch.setattr(matrix, name, recording)
    return orders


@pytest.mark.parametrize("command, weights, order", [
    ("cor2", C3, 6),
    ("cor2", "unit", 12),   # cube roots of unity: the floating branch
    ("dimer", DIMER, 12)])
def test_no_cover_order_charpoly_or_det(capsys, monkeypatch, tmp_path,
                                        command, weights, order):
    path = weights
    if weights == "unit":
        path = tmp_path / "dimer_unit.txt"
        with open(DIMER, encoding="utf-8") as fh:
            text = fh.read()
        path.write_text(text.replace("kind = symbolic", "kind = unit"),
                        encoding="utf-8")
    orders = record_orders(monkeypatch)
    assert main([command, "--input", str(path)]) == 0
    assert orders and max(orders) < order, orders


def test_cor2_refuses_floating_characters_before_any_charpoly(
        capsys, monkeypatch):
    orders = record_orders(monkeypatch)
    assert main(["cor2", "--input", DIMER]) == 2
    assert "floating characters" in capsys.readouterr().err
    assert orders == []


# ---------------------------------------------------------------------------
# broken witnesses


def swap_two_columns(build):
    def broken(*args):
        psi = build(*args)
        data = [row[:] for row in psi.data]
        for row in data:   # two lifts of base vertex 0: ψ stays invertible
            row[0], row[1] = row[1], row[0]
        return Matrix(psi.domain, data)
    return broken


def zero_psi(build):
    def broken(*args):
        psi = build(*args)
        return Matrix.zeros(psi.domain, psi.nrows, psi.ncols)
    return broken


def change_one_entry(complement):
    def broken(rep, fixed=0):
        rc = complement(rep, fixed)
        m = Matrix(rc.domain, [row[:] for row in rc.gen_mats[0].data])
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
# cor2 and dimer read the cover charpoly and det(K_cover) off the split,
# so one line carries the whole witness
WITNESS_LINES = {
    "trees": TREES_LINES,
    "cor2": ["factorization exact"],
    "dimer": ["determinant factorizes"],
}
INPUTS = {"cor1": C3, "trees": C3, "cor2": C3, "dimer": DIMER}
COMMANDS = pytest.mark.parametrize("command", list(INPUTS))


def checks(out):
    return {line[len("check "):].rpartition(": ")[0]:
            line.rpartition(": ")[2]
            for line in out.splitlines() if line.startswith("check ")}


@COMMANDS
def test_intact_witness_passes(capsys, command):
    assert main([command, "--input", INPUTS[command]]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("broken", sorted(BREAKS))
@COMMANDS
def test_broken_witness_fails(capsys, monkeypatch, command, broken):
    name, breaker = BREAKS[broken]
    monkeypatch.setattr(certificates, name,
                        breaker(getattr(certificates, name)))
    code = main([command, "--input", INPUTS[command]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    found = checks(captured.out)
    lines = (COR1_LINES[broken] if command == "cor1"
             else WITNESS_LINES[command])
    for line in lines:
        assert found[line] == "FAIL", (line, captured.out)
    assert "result: FAIL" in captured.out
