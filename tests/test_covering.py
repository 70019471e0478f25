"""Voltage covers, deck groups, coset data and quotients."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from covertwist.covering import (
    CoveringMap,
    VoltageAssignment,
    build_cover,
    coset_data,
    check_subgroup,
    deck_transformation,
    edge_voltage_cover,
    identity_cover,
    is_normal,
    perm_compose,
    perm_identity,
    perm_inverse,
    quotient_by_subgroup,
    validate_covering,
)
from covertwist.docio import parse_input
from covertwist.errors import (
    InternalCosetError,
    NotASubgroupError,
    VoltageNotAntisymmetricError,
)
from covertwist.graphs import build_graph, is_connected, validate_graph
from covertwist.homotopy import fundamental_presentation, spanning_tree

from builders import (
    concat_words,
    fiber_action,
    fiber_generator_permutations,
    realize_word,
    reduce_word,
)
from induce_reference import (
    NotInSubgroupError,
    express_in_subgroup,
    transversal,
)


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def bouquet2():
    return build_graph(1, [(0, 0), (0, 0)])


def double_cover_of_triangle():
    g = triangle()
    pres = fundamental_presentation(g, 0)
    return g, pres, build_cover(pres, VoltageAssignment(2, ((1, 0),)))


def test_double_cover_shape():
    g, pres, p = double_cover_of_triangle()
    assert p.degree == 2
    assert p.cover.num_vertices == 6
    assert p.cover.num_edges == 12
    assert validate_covering(p).ok
    assert is_connected(p.cover)
    assert validate_graph(p.cover).ok
    for v in range(3):
        assert len(p.vertex_fibers[v]) == 2


def test_projection_is_graph_map():
    _, _, p = double_cover_of_triangle()
    for e in range(p.cover.num_edges):
        assert p.base.src[p.p_edge[e]] == p.p_vertex[p.cover.src[e]]
        assert p.base.tgt[p.p_edge[e]] == p.p_vertex[p.cover.tgt[e]]
        assert p.base.inv[p.p_edge[e]] == p.p_edge[p.cover.inv[e]]


def test_perm_helpers():
    a = (1, 2, 0)
    assert perm_identity(3) == (0, 1, 2)
    assert perm_compose(a, perm_inverse(a)) == (0, 1, 2)
    # composition applies the right one first
    b = (0, 2, 1)
    ab = perm_compose(a, b)
    for x in range(3):
        assert ab[x] == a[b[x]]


def test_fiber_action_left_composition():
    # action(w1 w2, x) = action(w1, action(w2, x))
    g, pres, p = double_cover_of_triangle()
    fiber = p.vertex_fibers[p.base_vertex]
    rng = random.Random(5)
    for _ in range(15):
        w1 = tuple((0, rng.choice((1, -1))) for _ in range(rng.randrange(4)))
        w2 = tuple((0, rng.choice((1, -1))) for _ in range(rng.randrange(4)))
        for vt in fiber:
            inner = fiber_action(p, pres, w2, vt)
            assert fiber_action(p, pres, concat_words(w1, w2), vt) \
                == fiber_action(p, pres, w1, inner)


def test_is_normal_cyclic():
    g, pres, p = double_cover_of_triangle()
    normal, galois = is_normal(coset_data(p))
    assert normal
    assert galois.order == 2
    assert galois.abelian


def test_nonnormal_cover_detected():
    # rank-2 base, degree 3: voltages generating S3 give a non-normal
    # subgroup of index 3
    g = build_graph(2, [(0, 1), (0, 1), (0, 1)])
    pres = fundamental_presentation(g, 0)
    assert pres.rank == 2
    volt = VoltageAssignment(3, ((1, 0, 2), (0, 2, 1)))
    assert volt.is_transitive()
    p = build_cover(pres, volt)
    normal, galois = is_normal(coset_data(p))
    assert not normal
    assert galois is None


def test_coset_data_marks_transversal():
    # every fiber meets each sheet once, the marked fiber's c-th vertex
    # lies on sheet c, and the coset word of that vertex (the
    # reference's) carries the marked lift to it
    g, pres, p = double_cover_of_triangle()
    cd = coset_data(p)
    for lifts in p.vertex_fibers:
        assert sorted(cd.sheet[vt] for vt in lifts) == [0, 1]
    words = transversal(cd)
    assert words[cd.sheet[p.cover_base_vertex]] == ()
    for c, vt in enumerate(cd.fiber):
        assert cd.sheet[vt] == c
        assert fiber_action(p, cd.base_pres, words[c],
                            p.cover_base_vertex) == vt


def test_coset_data_refuses_a_fiber_missing_a_sheet():
    # a path on four vertices folded onto one edge is connected, with two
    # vertices over each end, but it is no covering: one lift of the base
    # tree holds the whole marked fiber, and the sheet check fails
    base = build_graph(2, [(0, 1)])
    cover = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    p_vertex = (0, 1, 0, 1)
    edge_of = {(base.src[e], base.tgt[e]): e for e in range(base.num_edges)}
    p_edge = tuple(edge_of[(p_vertex[cover.src[e]], p_vertex[cover.tgt[e]])]
                   for e in range(cover.num_edges))
    p = CoveringMap(base, cover, p_vertex, p_edge, 0, 0)
    assert p.degree == 2 and is_connected(cover)
    assert not validate_covering(p).ok
    with pytest.raises(InternalCosetError, match="each sheet once"):
        coset_data(p)


def test_cover_presentation_rank():
    g, pres, p = double_cover_of_triangle()
    cd = coset_data(p)
    # index-d subgroup of a rank-r free group has rank d(r-1)+1
    assert cd.cover_pres.rank == p.degree * (pres.rank - 1) + 1


def test_express_in_subgroup_round_trip():
    g = bouquet2()
    pres = fundamental_presentation(g, 0)
    volt = VoltageAssignment(3, ((1, 2, 0), (0, 1, 2)))
    p = build_cover(pres, volt)
    cd = coset_data(p)
    # g0^3 fixes the marked sheet, so it lies in the subgroup
    w = ((0, 1),) * 3
    h = express_in_subgroup(cd, w)
    assert reduce_word(h) == h
    lifted = realize_word(cd.base_pres, w)
    assert lifted.base == 0


def test_express_in_subgroup_rejects_outside():
    g = bouquet2()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(3, ((1, 2, 0), (0, 1, 2))))
    cd = coset_data(p)
    with pytest.raises(NotInSubgroupError):
        express_in_subgroup(cd, ((0, 1),))


def test_identity_cover():
    g = triangle()
    p = identity_cover(g)
    assert p.degree == 1
    assert p.cover.num_vertices == g.num_vertices
    assert validate_covering(p).ok


def test_deck_transformation_commutes():
    g, pres, p = double_cover_of_triangle()
    normal, galois = is_normal(coset_data(p))
    flip = next(h for h in galois.elements if h != perm_identity(2))
    d = deck_transformation(p, galois.fiber, flip)
    for e in range(p.cover.num_edges):
        assert p.p_edge[d.edge_map[e]] == p.p_edge[e]
    for v in range(p.cover.num_vertices):
        assert p.p_vertex[d.vertex_map[v]] == p.p_vertex[v]
        assert d.vertex_map[v] != v


def test_check_subgroup():
    g = bouquet2()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(
        4, ((1, 2, 3, 0), (0, 1, 2, 3))))
    _, galois = is_normal(coset_data(p))
    sq = perm_compose(galois.gen_perms[0], galois.gen_perms[0])
    sub = check_subgroup((perm_identity(4), sq), galois.elements)
    assert len(sub) == 2
    with pytest.raises(NotASubgroupError):
        check_subgroup((perm_identity(4), galois.gen_perms[0]),
                       galois.elements)


def test_quotient_by_subgroup_tower():
    g = bouquet2()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(
        4, ((1, 2, 3, 0), (0, 1, 2, 3))))
    _, galois = is_normal(coset_data(p))
    sq = perm_compose(galois.gen_perms[0], galois.gen_perms[0])
    qd = quotient_by_subgroup(p, galois, (perm_identity(4), sq))
    assert qd.mid_over_base.degree == 2
    assert qd.cover_over_mid.degree == 2
    assert validate_covering(qd.mid_over_base).ok
    assert validate_covering(qd.cover_over_mid).ok
    # composing the tower recovers the original projection
    for vt in range(p.cover.num_vertices):
        mid_v = qd.cover_over_mid.p_vertex[vt]
        assert qd.mid_over_base.p_vertex[mid_v] == p.p_vertex[vt]


def test_edge_voltage_cover_cyclic():
    g = triangle()
    voltages = [(0,)] * g.num_edges
    voltages[0] = (1,)
    voltages[g.inv[0]] = (2,)
    p = edge_voltage_cover(g, tuple(voltages), (3,))
    assert p.degree == 3
    assert p.cover.num_vertices == 9
    assert is_connected(p.cover)
    assert validate_covering(p).ok


def test_edge_voltage_cover_rejects_asymmetric():
    g = triangle()
    voltages = [(0,)] * g.num_edges
    voltages[0] = (1,)
    # the reversed edge should carry -1 mod 3, not 1
    voltages[g.inv[0]] = (1,)
    with pytest.raises(VoltageNotAntisymmetricError):
        edge_voltage_cover(g, tuple(voltages), (3,))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_edge_voltage_cover_matches_build_cover(data):
    # ℤ/d voltages vanishing on tree edges are shift permutations on the
    # generators, and both builders lay out the same sheets
    n = data.draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    pairs = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += data.draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    g = build_graph(n, pairs)
    pres = fundamental_presentation(g, 0)
    d = data.draw(st.integers(1, 4))
    shifts = data.draw(st.lists(st.integers(0, d - 1), min_size=pres.rank,
                                max_size=pres.rank))
    voltages = [(0,)] * g.num_edges
    for k, e in enumerate(pres.gen_edge):
        voltages[e] = (shifts[k],)
        voltages[g.inv[e]] = (-shifts[k] % d,)
    perms = tuple(tuple((i + k) % d for i in range(d)) for k in shifts)
    assert (edge_voltage_cover(g, tuple(voltages), (d,))
            == build_cover(pres, VoltageAssignment(d, perms)))


# ---------------------------------------------------------------------------
# the fiber group read off the sheets, against the loop lifts


def small_graph(data, max_vertices=4, max_extra=3):
    """A connected multigraph, loops and parallel edges allowed."""
    n = data.draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    pairs = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += data.draw(st.lists(st.tuples(vertex, vertex), max_size=max_extra))
    return build_graph(n, pairs)


def assert_monodromy_matches_loop_lifts(p):
    cd = coset_data(p)
    assert cd.base_pres == fundamental_presentation(p.base, p.base_vertex)
    assert cd.monodromy == tuple(fiber_generator_permutations(p, cd.base_pres))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_monodromy_matches_loop_lifts_on_permutation_voltages(data):
    g = small_graph(data)
    pres = fundamental_presentation(g, 0)
    d = data.draw(st.integers(1, 7))
    perms = data.draw(st.lists(st.permutations(range(d)).map(tuple),
                               min_size=pres.rank, max_size=pres.rank))
    volt = VoltageAssignment(d, tuple(perms))
    assume(volt.is_transitive())
    assert_monodromy_matches_loop_lifts(build_cover(pres, volt))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_monodromy_matches_loop_lifts_on_abelian_edge_voltages(data):
    # nonzero voltages on the tree edges too, so that a sheet is no
    # longer a constant voltage-group index over the base
    g = small_graph(data)
    moduli = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1,
                                      max_size=2)))
    tree = spanning_tree(g, 0).tree_edges
    voltages = [None] * g.num_edges
    for u, (e, ebar) in enumerate(g.unoriented):
        low = 1 if u in tree else 0
        vec = tuple(data.draw(st.integers(low, m - 1)) for m in moduli)
        voltages[e] = vec
        voltages[ebar] = tuple(-a % m for a, m in zip(vec, moduli))
    p = edge_voltage_cover(g, tuple(voltages), moduli)
    assume(is_connected(p.cover))
    assert_monodromy_matches_loop_lifts(p)


@pytest.mark.parametrize("sample", ["z6_bouquet.txt", "artin_b2.txt"])
def test_monodromy_matches_loop_lifts_on_artin_quotients(sample):
    # the two covers artin-axioms builds from the document's cover: its
    # quotient by the subgroup, and the cover over that quotient
    with open(f"sample_inputs/{sample}", encoding="utf-8") as fh:
        doc = parse_input(fh.read())
    p = build_cover(fundamental_presentation(doc.graph, 0), doc.voltage)
    normal, galois = is_normal(coset_data(p))
    assert normal
    qd = quotient_by_subgroup(p, galois, doc.subgroup)
    for q in (qd.mid_over_base, qd.cover_over_mid):
        assert q.degree > 1
        assert_monodromy_matches_loop_lifts(q)
