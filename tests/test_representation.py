"""Representations, connections, induction and character tables."""

import random

import pytest

from covertwist.covering import (
    VoltageAssignment,
    build_cover,
    coset_data,
    is_normal,
    perm_compose,
    perm_identity,
    permutation_closure,
)
from covertwist.domains import QI, QQ, root_of_unity
from covertwist.graphs import build_graph
from covertwist.homotopy import fundamental_presentation, spanning_tree
from covertwist.matrix import Matrix, det
from covertwist.randinst import random_representation
from covertwist.representation import (
    Representation,
    abelian_character_table,
    abelian_characters,
    connection_from_rep,
    direct_sum,
    finite_group_induction,
    induce,
    monodromy,
    permutation_complement,
    representation,
    trivial_representation,
)

from builders import rep_of_word


def bouquet2():
    return build_graph(1, [(0, 0), (0, 0)])


def test_representation_rejects_a_wrong_stored_inverse():
    m = Matrix(QQ, [[1, 1], [0, 1]])
    inv = Matrix(QQ, [[1, -1], [0, 1]])
    assert Representation(QQ, 2, (m, m), (inv, inv)).rank == 2
    with pytest.raises(ValueError):
        Representation(QQ, 2, (m,), (m,))
    # a pair met before is not multiplied again, and a wrong one later on
    # is still caught
    with pytest.raises(ValueError):
        Representation(QQ, 2, (m, m, inv), (inv, inv, inv))


def test_representation_checks_invertibility():
    with pytest.raises(ZeroDivisionError):
        representation(QQ, [Matrix(QQ, [[0]])])


def test_random_representation_keeps_degree_at_rank_zero():
    for degree in (1, 2, 3):
        rho = random_representation(random.Random(1), 0, degree)
        assert (rho.degree, rho.rank) == (degree, 0)
        assert rep_of_word(rho, ()).eq(Matrix.identity(QQ, degree))
    # with no generators at all, representation() defaults to degree 1
    assert representation(QQ, []).degree == 1


def test_rep_of_word_homomorphism():
    rng = random.Random(21)
    rho = random_representation(rng, 2, 2)
    for _ in range(15):
        w1 = tuple((rng.randrange(2), rng.choice((1, -1)))
                   for _ in range(rng.randrange(4)))
        w2 = tuple((rng.randrange(2), rng.choice((1, -1)))
                   for _ in range(rng.randrange(4)))
        lhs = rep_of_word(rho, w1 + w2)
        rhs = rep_of_word(rho, w1) * rep_of_word(rho, w2)
        assert lhs.eq(rhs)


def test_rep_of_word_inverse():
    rho = representation(QQ, [Matrix(QQ, [[1, 1], [0, 1]])])
    m = rep_of_word(rho, ((0, 1), (0, -1)))
    assert m.eq(Matrix.identity(QQ, 2))


def test_direct_sum():
    a = representation(QQ, [Matrix(QQ, [[2]])])
    b = representation(QQ, [Matrix(QQ, [[3]])])
    s = direct_sum(a, b)
    assert s.degree == 2
    m = rep_of_word(s, ((0, 1),))
    assert m[0, 0] == 2 and m[1, 1] == 3 and m[0, 1] == 0


def test_connection_from_rep_inverse_pairing():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (1, 2)])
    pres = fundamental_presentation(g, 0)
    rng = random.Random(3)
    rho = random_representation(rng, pres.rank, 2)
    conn = connection_from_rep(pres, rho)
    for e in range(g.num_edges):
        assert (conn.mats[e] * conn.mats[g.inv[e]]).eq(
            Matrix.identity(QQ, 2))


def test_monodromy_matches_word():
    g = bouquet2()
    pres = fundamental_presentation(g, 0)
    rng = random.Random(8)
    rho = random_representation(rng, 2, 2)
    conn = connection_from_rep(pres, rho)
    for _ in range(10):
        w = tuple((rng.randrange(2), rng.choice((1, -1)))
                  for _ in range(rng.randrange(1, 5)))
        loop = pres.realize_word(w)
        assert monodromy(g, conn, loop).eq(rep_of_word(rho, w))


def test_induce_degree_bookkeeping():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(2, ((1, 0),)))
    cd = coset_data(p, spanning_tree(g, 0))
    rho = representation(QQ, [Matrix(QQ, [[1, 1], [0, 1]])])
    ind = induce(cd, rho)
    assert ind.block_degree == 2
    assert ind.sheet_count == 2
    assert ind.rep.degree == 4
    assert ind.rep.rank == pres.rank


def test_induce_rejects_wrong_rank():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(2, ((1, 0), (0, 1))))
    cd = coset_data(p, spanning_tree(g, 0))
    # cover rank is 2*(2-1)+1 = 3, a rank-2 input must be rejected
    rng = random.Random(5)
    with pytest.raises(ValueError):
        induce(cd, random_representation(rng, 2, 1))


def test_induced_trivial_is_permutation():
    # inducing the trivial character gives 0/1 matrices with unit row sums
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(3, ((1, 2, 0),)))
    cd = coset_data(p, spanning_tree(g, 0))
    ind = induce(cd, trivial_representation(QQ, cd.cover_pres.rank))
    for m in ind.rep.gen_mats:
        for i in range(m.nrows):
            vals = [m[i, j] for j in range(m.ncols)]
            assert sorted(vals) == [0, 0, 1]


def test_permutation_complement():
    g = bouquet2()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(3, ((1, 2, 0), (0, 1, 2))))
    cd = coset_data(p, spanning_tree(g, 0))
    ind = induce(cd, trivial_representation(QQ, cd.cover_pres.rank))
    comp = permutation_complement(ind.rep,
                                  fixed=cd.fiber.index(p.cover_base_vertex))
    assert comp.degree == 2
    # complement determinant times the fixed eigenvalue recovers det
    for mc, mi in zip(comp.gen_mats, ind.rep.gen_mats):
        assert det(mc) == det(mi)


def test_abelian_character_table_z4():
    gens = [(1, 2, 3, 0)]
    table = abelian_character_table(gens, 4)
    assert table.count == 4
    assert table.domain is QI
    i = root_of_unity(4)
    seen = {gv[0] for gv in table.gen_values}
    assert seen == {QI.one, QI.coerce(-1), i, -i}


def test_abelian_character_table_z2xz2():
    gens = [(1, 0, 3, 2), (2, 3, 0, 1)]
    table = abelian_character_table(gens, 4)
    assert table.count == 4
    assert table.domain is QQ
    for gv in table.gen_values:
        assert all(v * v == 1 for v in gv)


def test_abelian_characters_from_cover():
    g = bouquet2()
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(2, ((1, 0), (0, 1))))
    _, galois = is_normal(p, pres)
    chars = abelian_characters(galois)
    assert len(chars) == 2
    assert all(c.degree == 1 for c in chars)
    assert all(c.rank == pres.rank for c in chars)


def test_finite_group_induction_blocks():
    # Z4 with the order-2 subgroup and the sign character on it
    gens = [(1, 2, 3, 0)]
    ambient = permutation_closure(gens, 4)
    sq = perm_compose(gens[0], gens[0])
    sub = (perm_identity(4), sq)
    rho_vals = {perm_identity(4): Matrix(QQ, [[1]]),
                sq: Matrix(QQ, [[-1]])}
    matrix_at, transversal = finite_group_induction(ambient, sub, rho_vals,
                                                    QQ, 1)
    assert transversal[0] == perm_identity(4)
    assert len(transversal) == 2
    m = matrix_at(gens[0])
    # the generator swaps the two cosets, so diagonal blocks vanish
    assert m[0, 0] == 0 and m[1, 1] == 0
    sq_mat = matrix_at(sq)
    assert sq_mat[0, 0] == -1 and sq_mat[1, 1] == -1


def test_induction_is_homomorphism():
    gens = [(1, 2, 3, 0)]
    ambient = permutation_closure(gens, 4)
    sq = perm_compose(gens[0], gens[0])
    sub = (perm_identity(4), sq)
    rho_vals = {perm_identity(4): Matrix(QQ, [[1]]),
                sq: Matrix(QQ, [[-1]])}
    matrix_at, _ = finite_group_induction(ambient, sub, rho_vals, QQ, 1)
    for a in ambient:
        for b in ambient:
            assert matrix_at(perm_compose(a, b)).eq(
                matrix_at(a) * matrix_at(b))
