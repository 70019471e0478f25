"""Acceptance gate: nine criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; each criterion is independent and asserts its own verdict.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations

from covertwist.certificates import (
    cor1_certificate,
    dimer_certificate,
    kos_certificate,
    tree_certificates,
    verify_main,
)
from covertwist.covering import (
    VoltageAssignment,
    build_cover,
    coset_data,
    perm_compose,
    perm_identity,
)
from covertwist.domains import QQ
from covertwist.graphs import build_graph, default_rotation, is_connected
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import charpoly, det, pfaffian
from covertwist.operators import (
    kasteleyn_orientation,
    kasteleyn_weights,
    laplacian,
    symbolic_weights,
    trivial_connection,
    twisted_adjacency,
    weights_from_unoriented,
)
from covertwist.oracles import enum_perfect_matchings
from covertwist.poly import MultiPoly
from covertwist.randinst import random_cover_instance
from covertwist.representation import trivial_representation
from covertwist.zeta import amitsur_check, artin_axioms, untwisted_l_series_inverse

from builders import (
    evaluate,
    forest_coefficient_checks,
    random_int_matrix,
    random_skew_matrix,
    unit_weights,
)
from leibniz_reference import det_leibniz


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({label})"


def hexagon_over_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(2, ((1, 0),)))
    return g, pres, p


def at_ones(poly):
    return evaluate(poly, {n: Fraction(1) for n in poly.reg.names})


def test_criterion_1_intertwiner_suite():
    rng = random.Random(20240801)
    t0 = time.time()
    ok = True
    for _ in range(100):
        inst = random_cover_instance(rng)
        cert = verify_main(inst.coset, inst.rho, inst.weights)
        ok = ok and cert.commutes and cert.invertible
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    verdict(1, "conjugation identity, 100 random covers", ok)


def test_criterion_2_charpoly_divisibility_suite():
    rng = random.Random(20240802)
    ok = True
    for _ in range(25):
        inst = random_cover_instance(rng, max_vertices=4, max_edges=6,
                                     cover_vertex_cap=16)
        res = cor1_certificate(inst.coset, inst.weights)
        ok = (ok and res.ok and res.divisible
              and res.certificate.integral and res.quotient_monic
              and res.complement_matches and res.certificate.check_product())
    verdict(2, "characteristic polynomial divisibility", ok)


def _support_classes(max_v=5, max_e=8):
    """Connected simple graphs up to isomorphism, with automorphisms."""
    out = []
    for n in range(1, max_v + 1):
        slots = list(combinations(range(n), 2))
        perms = list(permutations(range(n)))
        seen = {}
        for k in range(0, min(len(slots), max_e) + 1):
            for chosen in combinations(slots, k):
                if not is_connected(build_graph(n, list(chosen))):
                    continue
                canon = min(tuple(sorted(tuple(sorted((p[u], p[v])))
                                         for (u, v) in chosen))
                            for p in perms)
                if canon not in seen:
                    es = set(canon)
                    seen[canon] = [p for p in perms
                                   if all(tuple(sorted((p[u], p[v]))) in es
                                          for (u, v) in canon)]
        out.extend((n, list(c), a) for c, a in seen.items())
    return out


def _multiplicity_classes(edges, autos, max_e=8):
    """Multiplicity >= 1 per support edge, total <= max_e, up to autos."""
    k = len(edges)
    idx = {e: i for i, e in enumerate(edges)}
    edge_perms = [tuple(idx[tuple(sorted((p[u], p[v])))] for (u, v) in edges)
                  for p in autos]
    seen = set()

    def rec(i, left, vec):
        if i == k:
            seen.add(min(tuple(vec[j] for j in ep) for ep in edge_perms))
            return
        for m in range(1, left - (k - 1 - i) + 1):
            vec.append(m)
            rec(i + 1, left - m, vec)
            vec.pop()

    rec(0, max_e, [])
    return seen


def test_criterion_3_laplacian_coefficients_exhaustive():
    # all connected loopless multigraphs up to isomorphism,
    # <= 5 vertices and <= 8 edges, via supports plus multiplicities
    graphs = [build_graph(1, [])]
    for n, edges, autos in _support_classes():
        if not edges:
            continue
        for vec in _multiplicity_classes(edges, autos):
            pairs = [e for e, m in zip(edges, vec) for _ in range(m)]
            graphs.append(build_graph(n, pairs))
    ok = len(graphs) == 505
    for g in graphs:
        n = g.num_vertices
        x = symbolic_weights(g)
        P = charpoly(laplacian(g, x))
        top = P.coefficient_of("lambda", n)
        ok = ok and top == MultiPoly.one(top.reg)
        cn1 = P.coefficient_of("lambda", n - 1)
        expect = MultiPoly.zero(cn1.reg)
        for name in (f"x_{u}" for u in range(g.num_unoriented)):
            expect = expect - MultiPoly.variable(cn1.reg, name) * 2
        ok = ok and cn1 == expect
        ok = ok and P.coefficient_of("lambda", 0).is_zero
        ok = ok and all(flag for _, flag in forest_coefficient_checks(g, x))
    verdict(3, f"Laplacian coefficient laws on {len(graphs)} graph classes",
            ok)


def test_criterion_4_tree_and_forest_divisibility():
    g, pres, p = hexagon_over_triangle()
    res = tree_certificates(coset_data(p), symbolic_weights(g))
    ok = res.ok and res.st.check_product() and res.rsf.check_product()
    ok = ok and at_ones(res.st.dividend) == 6 and at_ones(res.st.divisor) == 3
    ok = ok and at_ones(res.st.quotient) == 2
    ok = (ok and at_ones(res.rsf.dividend) == 320
          and at_ones(res.rsf.divisor) == 16
          and at_ones(res.rsf.quotient) == 20)
    rng = random.Random(20240804)
    for _ in range(25):
        inst = random_cover_instance(rng, max_vertices=4, max_edges=5,
                                     max_degree=3, cover_vertex_cap=12)
        r = tree_certificates(inst.coset, inst.weights)
        ok = (ok and r.st.integral and r.rsf.integral
              and r.st.check_product() and r.rsf.check_product())
    verdict(4, "spanning-tree and forest quotients", ok)


def test_criterion_5_dimer_factorization():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rot = default_rotation(g)
    res = dimer_certificate(g, rot, ((1,), (2,)) + ((0,),) * 6, 3,
                            symbolic_weights(g))
    ok = (res.det_identity and res.matching_cert.integral
          and res.pf_base_squared_ok and res.pf_cover_squared_ok)
    # unit-weight sanity on the plain square
    orient = kasteleyn_orientation(g, rot)
    kw = kasteleyn_weights(g, orient, unit_weights(g))
    a = twisted_adjacency(g, kw, trivial_connection(QQ, g.num_edges))
    z = len(enum_perfect_matchings(g))
    ok = ok and det(a) == 4 and z == 2 and z * z == det(a)
    verdict(5, "dimer determinant and matching quotients", ok)


def test_criterion_6_torus_product_identity():
    g = build_graph(1, [(0, 0), (0, 0)])
    z2 = ((1, 0), (-1, 0), (0, 1), (0, -1))
    rng = random.Random(20240806)
    t0 = time.time()
    ok = True
    for m, n in ((2, 2), (2, 3), (3, 3)):
        res = kos_certificate(g, z2, unit_weights(g), m, n)
        ok = ok and res.ok
        x = weights_from_unoriented(
            g, QQ, tuple(Fraction(rng.randrange(1, 9),
                                  rng.randrange(1, 9)) for _ in range(2)))
        res = kos_certificate(g, z2, x, m, n)
        ok = ok and res.ok
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    verdict(6, "torus determinant product", ok)


def test_criterion_7_series_identities():
    g3 = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    out = untwisted_l_series_inverse(g3, unit_weights(g3))
    ok = out.to_text() == "u^6 - 2*u^3 + 1"

    rng = random.Random(20240807)

    def rational_weights(g):
        vals = tuple(Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
                     for _ in range(g.num_unoriented))
        return weights_from_unoriented(g, QQ, vals)

    graphs = [g3, build_graph(1, [(0, 0), (0, 0)])]
    pairs = [(v, (v + 1) % 4) for v in range(4)]
    pairs += [(rng.randrange(4), rng.randrange(4)) for _ in range(3)]
    graphs.append(build_graph(4, pairs))
    for g in graphs:
        pres = fundamental_presentation(g, 0)
        res = amitsur_check(g, rational_weights(g),
                            trivial_representation(QQ, pres.rank), pres,
                            max_length=8)
        ok = ok and res.matches
    verdict(7, "series determinant and log-derivative", ok)


def test_criterion_8_four_axioms():
    g = build_graph(1, [(0, 0), (0, 0)])
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, VoltageAssignment(4, ((1, 2, 3, 0), (0, 1, 2, 3))))
    sigma = (1, 2, 3, 0)
    sub = (perm_identity(4), perm_compose(sigma, sigma))
    res = artin_axioms(coset_data(p), sub, symbolic_weights(g))
    ok = (res.identity_axiom and res.additivity_axiom
          and res.inflation_axiom and res.induction_axiom
          and res.group_order == 4 and res.subgroup_order == 2)
    verdict(8, "character formalism on the two-step tower", ok)


def test_criterion_9_determinant_oracles():
    rng = random.Random(20240809)
    ok = True
    for _ in range(50):
        m = random_int_matrix(rng, 5)
        ok = ok and det(m) == det_leibniz(m)
    for _ in range(50):
        n = rng.choice((2, 4, 6, 8))
        s = random_skew_matrix(rng, n)
        pf = pfaffian(s)
        ok = ok and pf * pf == det(s)
    verdict(9, "determinant and pfaffian cross-checks", ok)
