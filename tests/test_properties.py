"""Seeded randomized invariants tying the layers together."""

import random

from covertwist.certificates import cor1_certificate, tree_certificates, verify_main
from covertwist.covering import VoltageAssignment, build_cover, coset_data
from covertwist.domains import QQ
from covertwist.graphs import build_graph
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import Matrix, charpoly
from covertwist.operators import (
    lift_weights,
    symbolic_weights,
    twisted_adjacency,
)
from covertwist.randinst import random_cover_instance
from covertwist.representation import (
    connection_from_rep,
    direct_sum,
    induce,
    representation,
    trivial_representation,
)
from covertwist.zeta import amitsur_check, l_series_inverse

from builders import fiber_action, rep_of_word, unit_weights


def random_word(rng, rank, n):
    return tuple((rng.randrange(rank), rng.choice((1, -1)))
                 for _ in range(n))


def test_verify_main_random_instances():
    rng = random.Random(101)
    for _ in range(10):
        inst = random_cover_instance(rng)
        cert = verify_main(inst.coset, inst.rho, inst.weights)
        assert cert.ok


def test_cor1_random_instances():
    rng = random.Random(102)
    for _ in range(8):
        inst = random_cover_instance(rng, max_vertices=4, max_edges=6,
                                     cover_vertex_cap=16)
        res = cor1_certificate(inst.coset, inst.weights)
        assert res.ok
        assert res.certificate.check_product()


def test_tree_divisibility_random_instances():
    rng = random.Random(103)
    for _ in range(8):
        inst = random_cover_instance(rng, max_vertices=4, max_edges=5,
                                     max_degree=3, cover_vertex_cap=12)
        res = tree_certificates(inst.coset, inst.weights)
        assert res.st.integral
        assert res.rsf.integral
        assert res.st.check_product()


def test_induced_rep_is_homomorphism():
    rng = random.Random(104)
    for _ in range(6):
        inst = random_cover_instance(rng, max_vertices=4, max_edges=6,
                                     cover_vertex_cap=12)
        ind = induce(inst.coset, inst.rho)
        for _ in range(5):
            w1 = random_word(rng, ind.rank, rng.randrange(3))
            w2 = random_word(rng, ind.rank, rng.randrange(3))
            assert rep_of_word(ind, w1 + w2).eq(
                rep_of_word(ind, w1) * rep_of_word(ind, w2))


def test_fiber_action_composes_on_random_covers():
    rng = random.Random(105)
    for _ in range(6):
        inst = random_cover_instance(rng, max_vertices=4, max_edges=6,
                                     cover_vertex_cap=12)
        p, pres = inst.coset.covering, inst.coset.base_pres
        fiber = p.vertex_fibers[p.base_vertex]
        for _ in range(5):
            w1 = random_word(rng, pres.rank, rng.randrange(3))
            w2 = random_word(rng, pres.rank, rng.randrange(3))
            for vt in fiber:
                assert (fiber_action(p, pres, w1 + w2, vt)
                        == fiber_action(p, pres, w1,
                                        fiber_action(p, pres, w2, vt)))


def test_l_series_induction_identity():
    # the cover's twisted series equals the base series for the induced
    # representation, as exact polynomials in the series variable
    cases = []
    g1 = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    cases.append((g1, VoltageAssignment(2, ((1, 0),)),
                  [Matrix(QQ, [[1, 1], [0, 1]])]))
    g2 = build_graph(1, [(0, 0), (0, 0)])
    cases.append((g2, VoltageAssignment(2, ((1, 0), (0, 1))), None))
    for g, volt, mats in cases:
        pres = fundamental_presentation(g, 0)
        p = build_cover(pres, volt)
        cd = coset_data(p)
        if mats is None:
            mats = [Matrix(QQ, [[2]]) for _ in range(cd.cover_pres.rank)]
        rho = representation(QQ, mats)
        x = unit_weights(g)
        lhs = l_series_inverse(p.cover, lift_weights(p, x), rho,
                               cd.cover_pres)
        rhs = l_series_inverse(p.base, x, induce(cd, rho), cd.base_pres)
        assert lhs == rhs


def test_charpoly_multiplies_under_direct_sum():
    rng = random.Random(106)
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    pres = fundamental_presentation(g, 0)
    x = symbolic_weights(g)
    for _ in range(5):
        reps = []
        for _ in range(2):
            mats = [Matrix(QQ, [[rng.choice((1, -1, 2)), 0],
                                [rng.randrange(-1, 2), rng.choice((1, -1))]])
                    for _ in range(pres.rank)]
            reps.append(representation(QQ, mats))
        cp = [charpoly(twisted_adjacency(g, x, connection_from_rep(pres, r)))
              for r in reps]
        both = direct_sum(reps[0], reps[1])
        cp_both = charpoly(twisted_adjacency(g, x,
                                             connection_from_rep(pres, both)))
        assert cp_both == cp[0] * cp[1]


def test_amitsur_random_graph():
    rng = random.Random(107)
    for _ in range(3):
        nv = rng.randrange(2, 5)
        pairs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(5)]
        pairs += [(v, (v + 1) % nv) for v in range(nv)]  # keep it connected
        g = build_graph(nv, pairs)
        pres = fundamental_presentation(g, 0)
        res = amitsur_check(g, symbolic_weights(g),
                            trivial_representation(QQ, pres.rank), pres,
                            max_length=4)
        assert res.ok


def test_lifted_charpoly_divides_iterated():
    # composing with a further double cover keeps divisibility intact
    rng = random.Random(108)
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    pres = fundamental_presentation(g, 0)
    for perms in (((1, 0),), ((1, 2, 0),)):
        p = build_cover(pres, VoltageAssignment(len(perms[0]), perms))
        res = cor1_certificate(coset_data(p), symbolic_weights(g))
        assert res.ok
