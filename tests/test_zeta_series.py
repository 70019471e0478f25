"""The series determinant det(I - uB_rho) against independent routes:
Bareiss elimination over Q[u] (bareiss_reference.py), the twisted
Ihara-Bass formula, and the Newton identities that tie it to the trace
side of the log-derivative check."""

import random
from fractions import Fraction

import pytest

from covertwist.domains import QQ, QI
from covertwist.graphs import build_graph
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import Matrix, det
from covertwist.operators import (
    EdgeWeights,
    line_digraph,
    pullback_connection,
    symbolic_weights,
    twisted_adjacency,
    weights_from_unoriented,
)
from covertwist.poly import MultiPoly, PolyDomain, VarRegistry
from covertwist.representation import connection_from_rep, representation
from covertwist.zeta import amitsur_check, l_series_inverse

from bareiss_reference import det_bareiss
from builders import by_var, gaussian, mat_sub, unit_weights


def small_graph(rng):
    """A connected multigraph on 2 or 3 vertices with a loop and a
    parallel edge."""
    nv = rng.randrange(2, 4)
    pairs = [(v, (v + 1) % nv) for v in range(nv)]
    pairs.append((rng.randrange(nv),) * 2)
    pairs.append(pairs[rng.randrange(nv)])
    return build_graph(nv, pairs)


def integer_rep(rng, rank):
    """Unimodular 2 x 2 integer matrices, one per generator."""
    mats = []
    for _ in range(rank):
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        mats.append(Matrix(QQ, [[1 + a * b, a], [b, 1]]))
    return representation(QQ, mats)


def rational_rep(rng, rank):
    mats = []
    for _ in range(rank):
        d = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 5)))
        mats.append(Matrix(QQ, [[d, Fraction(rng.randrange(-3, 4), 2)],
                                [0, rng.choice((1, -1))]]))
    return representation(QQ, mats)


def gaussian_rep(rng, rank):
    i = gaussian(0, 1)
    mats = [Matrix(QI, [[i]]) if rng.random() < 0.5
            else Matrix(QI, [[gaussian(rng.randrange(1, 3), 1)]])
            for _ in range(rank)]
    return representation(QI, mats)


def sign_rep(rng, rank):
    return representation(QQ, [Matrix(QQ, [[rng.choice((1, -1))]])
                                for _ in range(rank)])


def integer_weights(rng, g):
    return weights_from_unoriented(
        g, QQ, [rng.randrange(1, 4) for _ in range(g.num_unoriented)])


def rational_weights(rng, g):
    return weights_from_unoriented(
        g, QQ, [Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
                for _ in range(g.num_unoriented)])


def bareiss_reference(g, x, rho, pres):
    """det(I - M) by Bareiss, M the edge operator with weights u*x over
    Q[u] (or Q[x, u])."""
    wdom = x.domain
    if isinstance(wdom, PolyDomain):
        pd = PolyDomain(wdom.reg.with_var("u"), wdom.coeff)
    else:
        pd = PolyDomain(VarRegistry(("u",)), wdom)
    u = MultiPoly.variable(pd.reg, "u")
    sx = EdgeWeights(pd, tuple(u * pd.coerce(v) for v in x.values))
    ld = line_digraph(g, sx)
    conn = connection_from_rep(pres, rho)
    m = twisted_adjacency(ld.digraph, ld.weights, pullback_connection(ld, conn))
    return det_bareiss(mat_sub(Matrix.identity(m.domain, m.nrows), m))


CASES = [
    ("integer weights", integer_weights, integer_rep),
    ("rational weights", rational_weights, rational_rep),
    ("symbolic weights", lambda rng, g: symbolic_weights(g), sign_rep),
    ("gaussian representation", integer_weights, gaussian_rep),
]


@pytest.mark.parametrize("name, weights, rep", CASES,
                         ids=[c[0] for c in CASES])
def test_series_determinant_matches_bareiss(name, weights, rep):
    rng = random.Random(f"series:{name}")
    for _ in range(3):
        g = small_graph(rng)
        pres = fundamental_presentation(g, 0)
        x = weights(rng, g)
        rho = rep(rng, pres.rank)
        out = l_series_inverse(g, x, rho, pres)
        ref = bareiss_reference(g, x, rho, pres)
        assert out == ref
        assert out.to_text() == ref.to_text()


def test_series_determinant_of_the_generator_i():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    pres = fundamental_presentation(g, 0)
    rho = representation(QI, [Matrix(QI, [[gaussian(0, 1)]])])
    out = l_series_inverse(g, unit_weights(g), rho, pres)
    # (1 - i u^3)(1 + i u^3), one factor per orientation of the triangle
    assert out.to_text() == "u^6 + 1"
    assert out == bareiss_reference(g, unit_weights(g), rho, pres)


def ihara_bass(g, rho, pres):
    """(1 - u^2)^((E - V) m) * det(I - u A_rho + u^2 (D - I) x I_m)."""
    m = rho.degree
    pd = PolyDomain(VarRegistry(("u",)), QQ)
    u = MultiPoly.variable(pd.reg, "u")
    a = twisted_adjacency(g, unit_weights(g), connection_from_rep(pres, rho))
    n = a.nrows
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = -u * a[i, j]
            if i == j:
                e = e + 1 + u * u * (len(g.out_edges[i // m]) - 1)
            row.append(e)
        rows.append(row)
    base = det(Matrix(pd, rows))
    return (1 - u * u) ** ((g.num_unoriented - g.num_vertices) * m) * base


def test_twisted_ihara_bass():
    rng = random.Random("ihara-bass")
    for _ in range(6):
        g = small_graph(rng)
        pres = fundamental_presentation(g, 0)
        rho = integer_rep(rng, pres.rank)
        out = l_series_inverse(g, unit_weights(g), rho, pres)
        assert out == ihara_bass(g, rho, pres)


def power_sums_series(det_poly, length):
    """sum_{k <= length} p_k u^k / k from det(I - uB) = sum c_k u^k by
    Newton's identities p_k = -k c_k - sum_{i<k} c_i p_(k-i)."""
    reg = det_poly.reg
    coeffs = by_var(det_poly, "u")
    c = [coeffs[k].lift(reg) if k in coeffs else MultiPoly.zero(reg)
         for k in range(length + 1)]
    p = [None]
    for k in range(1, length + 1):
        pk = c[k] * (-k)
        for i in range(1, k):
            pk = pk - c[i] * p[k - i]
        p.append(pk)
    u = MultiPoly.variable(reg, "u")
    out = MultiPoly.zero(reg)
    for k in range(1, length + 1):
        out = out + p[k] * Fraction(1, k) * u ** k
    return out


@pytest.mark.parametrize("name, weights, rep", CASES,
                         ids=[c[0] for c in CASES])
def test_newton_identities_tie_determinant_to_traces(name, weights, rep):
    rng = random.Random(f"newton:{name}")
    for length in (4, 6):
        g = small_graph(rng)
        pres = fundamental_presentation(g, 0)
        x = weights(rng, g)
        rho = rep(rng, pres.rank)
        res = amitsur_check(g, x, rho, pres, max_length=length)
        assert res.ok
        out = l_series_inverse(g, x, rho, pres)
        assert res.lhs == power_sums_series(out, length)
