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

import random
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
    verify_main,
)
from covertwist.cli import main
from covertwist.covering import (
    VoltageAssignment,
    build_cover,
    coset_data,
    edge_voltage_cover,
    identity_cover,
)
from covertwist.docio import parse_input
from covertwist.domains import QQ, CyclotomicDomain
from covertwist.graphs import (
    build_graph,
    default_rotation,
    faces,
    is_connected,
)
from covertwist.homotopy import fundamental_presentation
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
from covertwist.randinst import random_representation
from covertwist.representation import (
    Representation,
    permutation_complement,
    representation,
    trivial_connection,
    trivial_representation,
)
from covertwist.zeta import artin_axioms

from builders import dense, unit_weights
from induce_reference import blocks_image, column_blocks

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)
DEGREES = pytest.mark.parametrize("d", [1, 2, 3, 4])
KINDS = pytest.mark.parametrize("kind", ["integer", "rational", "symbolic"])
C3 = "sample_inputs/c3.txt"
DIMER = "sample_inputs/dimer_c4.txt"
Z6 = "sample_inputs/z6_bouquet.txt"


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
    zd = [()] * g.num_edges
    for e, ebar in g.unoriented:
        b = draw(st.integers(0, d - 1))
        zd[e], zd[ebar] = (b,), (-b % d,)
    zd = tuple(zd)
    winding = sum(1 for walk in fc.walks if sum(zd[e][0] for e in walk) % d)
    assume(d == 1 or winding == 2)
    p = edge_voltage_cover(g, zd, (d,))
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
    cd = coset_data(p)
    split = split_cover_charpoly(cd, x, operator)
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
    res = cor1_certificate(coset_data(p), x)
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
    res = tree_certificates(coset_data(p), x)
    assert res.split.ok and res.tree_divisible and res.forest_divisible
    assert res.split.cover == P_cover
    for cert, z in ((res.st, spanning_tree_polynomial),
                    (res.rsf, rooted_forest_polynomial)):
        dividend, divisor = z(P_cover, nc), z(P_base, nb)
        assert cert.dividend == dividend
        assert cert.divisor == divisor
        assert cert.quotient == dividend.exact_div(divisor)


@pytest.mark.parametrize("d, kind", [
    (d, kind) for d in (1, 2, 3, 4, 5, 6)
    for kind in ("integer", "rational", "symbolic")])
def test_cor2_matches_the_direct_route(d, kind):
    # characters of ℤ/3, ℤ/5 and ℤ/6 take Q(ζ_d), of ℤ/4 QQ(i)
    check_cor2(covers(d, kind, cyclic=True))


@SETTINGS
@given(st.data())
def check_cor2(strategy, data):
    p, x = data.draw(strategy)
    cover = direct_charpoly(p, x, twisted_adjacency)
    res = cor2_certificate(coset_data(p), x)
    assert res.ok
    assert res.lhs == res.rhs == cover


# edges 0–1, 0–2 and a loop at 0, ℤ/3 voltage on the loop: the cover
# charpoly's coefficients reach 17576, and its λ^4 coefficient is 0
COR2_CUBE_ROOTS = """graph:
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
        if isinstance(a.domain, CyclotomicDomain):   # twisted by a character
            rows = dense(a)
            rows[0][0] += 1
            a = Matrix(a.domain, rows)
        return a
    return perturbed


@pytest.mark.parametrize("perturbed, code, verdict", [
    (False, 0, "pass"), (True, 1, "FAIL")])
def test_cor2_exact_over_cube_roots(capsys, monkeypatch, tmp_path,
                                    perturbed, code, verdict):
    path = tmp_path / "cor2.txt"
    path.write_text(COR2_CUBE_ROOTS, encoding="utf-8")
    if perturbed:
        monkeypatch.setattr(certificates, "twisted_adjacency",
                            perturb_characters(certificates.twisted_adjacency))
    assert main(["cor2", "--input", str(path)]) == code
    out = capsys.readouterr().out
    assert f"check factorization exact: {verdict}" in out


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
        cd = coset_data(p)
        for operator in (twisted_adjacency, laplacian):
            split = split_cover_charpoly(cd, symbolic_weights(g), operator)
            assert split.ok
            assert split.complement.to_text() == "1"
            assert split.cover == split.base


@pytest.mark.parametrize("command, path",
                         [("trees", C3), ("trees", Z6), ("dimer", DIMER)])
def test_trees_and_dimer_never_form_the_cover_product(capsys, monkeypatch,
                                                      command, path):
    # each reads the cover coefficients it needs off the two factors, so
    # its report is the same with the product out of reach
    assert main([command, "--input", path]) == 0
    want = capsys.readouterr().out

    def no_product(split):
        raise AssertionError("the cover product was formed")

    monkeypatch.setattr(certificates.CoverSplit, "cover",
                        property(no_product))
    assert main([command, "--input", path]) == 0
    assert capsys.readouterr().out == want


def test_complement_of_degree_one_has_degree_zero():
    rho = trivial_representation(QQ, 0)
    assert permutation_complement(rho).degree == 0


# ---------------------------------------------------------------------------
# no charpoly or determinant at the cover's order


def record_orders(monkeypatch):
    """The orders of the matrices whose charpoly or determinant is taken
    from here on; Pfaffians are not seen."""
    orders = []
    kernel = matrix._charpoly_coeffs

    def recording(m):
        orders.append(m.nrows)
        return kernel(m)
    monkeypatch.setattr(matrix, "_charpoly_coeffs", recording)
    return orders


@pytest.mark.parametrize("command, weights, order", [
    ("cor2", C3, 6),
    ("cor2", DIMER, 12),    # cube roots of unity, symbolic weights
    ("cor2", "unit", 12),
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


def test_cor2_on_the_symbolic_triangle_over_cube_roots():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(3, ((1, 2, 0),)))
    x = symbolic_weights(g)
    res = cor2_certificate(coset_data(p), x)
    assert res.ok
    assert res.lhs == res.rhs == direct_charpoly(p, x, twisted_adjacency)


@pytest.mark.parametrize("weights", [symbolic_weights, unit_weights])
def test_z6_bouquet_certifies_artin_and_cor2(weights):
    # sixth roots of unity: every character over Q(ζ_6)
    with open(Z6, encoding="utf-8") as fh:
        doc = parse_input(fh.read())
    g = doc.graph
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, doc.voltage)
    x = weights(g)
    res = artin_axioms(coset_data(p), doc.subgroup, x)
    assert (res.identity_axiom and res.additivity_axiom
            and res.inflation_axiom and res.induction_axiom)
    assert (res.group_order, res.subgroup_order) == (6, 2)
    cor2 = cor2_certificate(coset_data(p), x)
    assert cor2.ok
    assert cor2.lhs == cor2.rhs == direct_charpoly(p, x, twisted_adjacency)


def test_cor2_on_dimer_c4_matches_the_direct_route():
    # the ℤ/3 cover of the 4-cycle with symbolic weights, over Q(ζ_3)[x]
    with open(DIMER, encoding="utf-8") as fh:
        doc = parse_input(fh.read())
    g = doc.graph
    p = edge_voltage_cover(g, doc.abelian_voltages, doc.moduli)
    x = symbolic_weights(g)
    res = cor2_certificate(coset_data(p), x)
    assert res.ok
    assert res.lhs == res.rhs == direct_charpoly(p, x, twisted_adjacency)


# ---------------------------------------------------------------------------
# broken witnesses


def swap_two_columns(build):
    def broken(p, *args):
        psi = list(build(p, *args))
        # the row blocks of two lifts of base vertex 0: ψ stays invertible
        a, b = p.vertex_fibers[0][:2]
        psi[a], psi[b] = psi[b], psi[a]
        return tuple(psi)
    return broken


def share_a_row_block(build):
    def broken(p, *args):
        psi = list(build(p, *args))
        # two lifts of base vertex 0 in one row block: ψ is singular
        a, b = p.vertex_fibers[0][:2]
        psi[b] = psi[a]
        return tuple(psi)
    return broken


def change_one_entry(complement):
    def broken(rep, fixed=0):
        rc = complement(rep, fixed)
        rows = dense(rc.gen_mats[0])
        rows[0][0] += 2   # on the hexagon, -1 becomes 1: still invertible
        m = Matrix(rc.domain, rows)
        return representation(rc.domain, [m, *rc.gen_mats[1:]])
    return broken


def singular_basis(basis):
    def broken(d, fixed):
        q = basis(d, fixed)
        return Matrix(q.domain, [[0] + row[1:] for row in dense(q)])
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
    "psi singular": ("build_psi", share_a_row_block),
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
    "psi singular": ["charpoly divisible", *QUOTIENT_LINES],
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


def permute_rho_sharp(induce):
    """Swaps the row blocks (target sheets) of block columns 0 and 1 of
    ρ#(γ_0) and the matching inverse columns, so that ρ# stays a
    representation."""
    def broken(cd, rho):
        ind = induce(cd, rho)
        m, dom = rho.degree, ind.domain
        gen, inv = (list(column_blocks(a, m)) for a in (ind.gen_mats[0],
                                                         ind.gen_invs[0]))
        (r0, b0), (r1, b1) = gen[0], gen[1]
        gen[0], gen[1] = (r1, b0), (r0, b1)
        inv[r0], inv[r1] = inv[r1], inv[r0]
        return Representation(
            dom, ind.degree,
            (blocks_image(gen, m, dom),) + ind.gen_mats[1:],
            (blocks_image(inv, m, dom),) + ind.gen_invs[1:])
    return broken


def z6_with_cover_representation(tmp_path):
    """z6_bouquet.txt with its base representation replaced by one of
    degree 2 over Q(ζ_6) on the 7 generators of the cover's loop group,
    the two given matrices in turn."""
    with open(Z6, encoding="utf-8") as fh:
        text = fh.read()
    head, _, rep = text.partition("representation rho:\n")
    mats = [line.split("=", 1)[1].strip() for line in rep.splitlines()
            if line.strip().startswith("generator")]
    lines = [f"  generator {k} = {mats[k % 2]}" for k in range(7)]
    path = tmp_path / "z6_cover_rep.txt"
    path.write_text(head + "representation rho:\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, lines", [
    ("cor1", ["charpoly divisible", *QUOTIENT_LINES]),
    ("verify-main", ["operators intertwine"])])
def test_permuted_rho_sharp_block_fails(capsys, monkeypatch, tmp_path,
                                        command, lines):
    path = z6_with_cover_representation(tmp_path)
    assert main([command, "--input", path]) == 0
    assert "FAIL" not in capsys.readouterr().out
    monkeypatch.setattr(certificates, "induce",
                        permute_rho_sharp(certificates.induce))
    code = main([command, "--input", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    found = checks(captured.out)
    for line in lines:
        assert found[line] == "FAIL", (line, captured.out)


# ---------------------------------------------------------------------------
# the witness takes no product at the cover's order


def test_witness_takes_no_cover_order_product(monkeypatch):
    # a scalar-shaped cover: an 8-cycle with two chords at degree 5
    rng = random.Random(17)
    g = build_graph(8, [(v, (v + 1) % 8) for v in range(8)] + [(0, 4), (2, 6)])
    pres = fundamental_presentation(g, 0)
    perms = [tuple(rng.sample(range(5), 5)) for _ in range(pres.rank)]
    perms[0] = (1, 2, 3, 4, 0)
    p = build_cover(pres, VoltageAssignment(5, tuple(perms)))
    assert p.cover.num_vertices == 40
    x = weights_from_unoriented(g, QQ, [rng.randint(1, 5)
                                        for _ in range(g.num_unoriented)])
    cd = coset_data(p)
    rho = random_representation(rng, cd.cover_pres.rank, 2)

    mul, eq = Matrix.__mul__, Matrix.eq

    def guarded(op):
        def run(a, b):
            if max(a.nrows, a.ncols, b.nrows, b.ncols) >= 40:
                raise AssertionError(f"product with an operand of order "
                                     f"{max(a.shape + b.shape)}")
            return op(a, b)
        return run

    monkeypatch.setattr(Matrix, "__mul__", guarded(mul))
    monkeypatch.setattr(Matrix, "eq", guarded(eq))
    det_orders = []

    def recording_det(m):
        det_orders.append(m.nrows)
        return det(m)

    monkeypatch.setattr(certificates, "det", recording_det)
    assert cor1_certificate(cd, x).ok
    assert tree_certificates(cd, x).ok
    # Q is certified invertible by its inverse, and ψ's blocks are I, so
    # its vertex determinants are permutation signs: no det, at m = 1 or
    # at m = 2
    assert det_orders == []
    assert verify_main(cd, rho, x).ok
    assert det_orders == []


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("operator", [twisted_adjacency, laplacian])
def test_each_split_takes_two_kernel_calls_and_no_det(monkeypatch, d,
                                                      operator):
    # the base and the complement charpoly, in that order: neither ψ nor
    # Q reaches a kernel, and certificates.py takes no determinant
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
    pres = fundamental_presentation(g, 0)
    cycle = tuple((i + 1) % d for i in range(d))
    p = build_cover(pres, VoltageAssignment(d, (cycle,) * pres.rank))
    x = weights_from_unoriented(g, QQ, [1, 2, 3, 4])
    cd = coset_data(p)
    orders = record_orders(monkeypatch)
    dets = []
    monkeypatch.setattr(certificates, "det",
                        lambda m: dets.append(m.nrows) or det(m))
    assert split_cover_charpoly(cd, x, operator).ok
    assert orders == [3, 3 * (d - 1)]
    assert dets == []
