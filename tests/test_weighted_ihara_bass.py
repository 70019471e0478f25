"""The series determinant det(I - uB) against the weighted Ihara-Bass
formula (Watanabe & Fukumizu 2009), a determinant over the vertices.

For symmetric edge weights x_e and a connection with phi_(e-bar) =
phi_e^(-1), the order-2Em edge operator B satisfies

    det(I - uB) = prod over undirected e of (1 - u^2 x_e^2)^m
                  * det(I - u*A(u) + u^2*D(u)),

with A(u) = sum over directed e of x_e*phi_e / (1 - u^2 x_e^2) in block
(s(e), t(e)) and D(u) = sum over directed e of x_e^2 / (1 - u^2 x_e^2)
* I_m in block (s(e), s(e)).  The right side is a rational function of
u, so it is compared by value: both sides are evaluated exactly at
2Em + 1 rational points u_0 = 1/3, 1/4, ..., where 1 - u_0^2 x_e^2 > 0
for weights of at most 2, the right side by Bareiss elimination
(bareiss_reference.py).  The theorem makes the right side a polynomial
of degree at most 2Em, as the left side is, so agreement at that many
points proves the polynomial l_series_inverse returns equal to it.
"""

import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest

from covertwist.domains import QQ
from covertwist.graphs import build_graph
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import Matrix, _charpoly_berkowitz
from covertwist.operators import weights_from_unoriented
from covertwist.representation import connection_from_rep
from covertwist.zeta import l_series_inverse

from bareiss_reference import det_bareiss
from builders import cyclic_character, evaluate, unimodular_rep


def det_exact(dom, rows):
    """det of rows by Bareiss; a QQ matrix is cleared of denominators
    first, so the elimination runs on integers."""
    if dom is not QQ:
        return det_bareiss(Matrix(dom, rows))
    d = lcm(*(Fraction(v).denominator for row in rows for v in row))
    ints = [[int(v * d) for v in row] for row in rows]
    return Fraction(det_bareiss(Matrix(QQ, ints)), d ** len(rows))


def ihara_bass_value(g, x, conn, u):
    """The right side of the weighted Ihara-Bass formula at u."""
    dom = conn.domain
    m = conn.degree
    size = g.num_vertices * m
    rows = [[dom.one if i == j else dom.zero for j in range(size)]
            for i in range(size)]
    for e in range(g.num_edges):
        xe = Fraction(x.values[e])
        q = 1 - u * u * xe * xe
        s, t = g.src[e] * m, g.tgt[e] * m
        phi = conn.mats[e]
        for i in range(m):
            rows[s + i][s + i] = dom.add(rows[s + i][s + i],
                                         dom.coerce(u * u * xe * xe / q))
            for j in range(m):
                rows[s + i][t + j] = dom.sub(
                    rows[s + i][t + j],
                    dom.mul(dom.coerce(u * xe / q), phi[i, j]))
    scale = Fraction(1)
    seen = set()
    for e in range(g.num_edges):
        if g.unoriented_of[e] not in seen:
            seen.add(g.unoriented_of[e])
            scale *= (1 - u * u * Fraction(x.values[e]) ** 2) ** m
    return dom.mul(dom.coerce(scale), det_exact(dom, rows))


def check_ihara_bass(g, x, rho):
    pres = fundamental_presentation(g, 0)
    lhs = l_series_inverse(g, x, rho, pres)
    conn = connection_from_rep(pres, rho)
    degree = 2 * g.num_unoriented * rho.degree
    assert max(lhs.reg.unpack(key)[0] for key in lhs.terms) <= degree
    for k in range(degree + 1):
        u = Fraction(1, k + 3)
        assert evaluate(lhs, {"u": u}) == ihara_bass_value(g, x, conn, u)


def chorded_cycle(rng, n, chords):
    """An n-cycle with distinct chords between non-adjacent vertices."""
    pairs = [(v, (v + 1) % n) for v in range(n)]
    while len(pairs) < n + chords:
        a, b = sorted(rng.sample(range(n), 2))
        if b - a not in (1, n - 1) and (a, b) not in pairs:
            pairs.append((a, b))
    return build_graph(n, pairs)


def weights_1_to_2(rng, g):
    return weights_from_unoriented(
        g, QQ, [rng.choice((1, Fraction(3, 2), 2))
                for _ in range(g.num_unoriented)])


@pytest.mark.parametrize("n, chords, seed", [(12, 3, 1), (11, 4, 2)],
                         ids=["12+3", "11+4"])
def test_zeta_shaped_graphs(n, chords, seed):
    # 11 and 12 vertices, 15 edges, loop rank 4 and 5, a unimodular
    # 2 x 2 representation: an order-60 edge operator, as in `zeta`
    rng = random.Random(f"ihara-bass:{seed}")
    g = chorded_cycle(rng, n, chords)
    rho = unimodular_rep(rng, g.num_unoriented - n + 1)
    check_ihara_bass(g, weights_1_to_2(rng, g), rho)


def test_loops_and_parallel_edges():
    # each loop gives two directed edges at one vertex, and the parallel
    # pair two edges with the same ends
    rng = random.Random("ihara-bass:loops")
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (1, 1), (0, 1), (2, 2)])
    rho = unimodular_rep(rng, 4)
    check_ihara_bass(g, weights_1_to_2(rng, g), rho)


@pytest.mark.parametrize("n", [4, 5], ids=["QQ(i)", "Q(zeta_5)"])
def test_cyclic_characters(n):
    # QQ(i) takes the multi-modular charpoly, Q(zeta_5) Berkowitz
    rng = random.Random(f"ihara-bass:zeta_{n}")
    g = chorded_cycle(rng, 6, 2)
    rho = cyclic_character(rng, g.num_unoriented - g.num_vertices + 1, n)
    with mock.patch("covertwist.matrix._charpoly_berkowitz",
                    wraps=_charpoly_berkowitz) as berkowitz:
        check_ihara_bass(g, weights_1_to_2(rng, g), rho)
    assert berkowitz.call_count == (n == 5)
