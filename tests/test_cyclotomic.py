"""Cyclotomic numbers Q(ζ_N) against sympy, and the fields they span.

Φ_N, products, inverses and embeddings Q(ζ_M) ⊂ Q(ζ_L) are checked
against sympy's polynomial arithmetic modulo Φ_N for every N up to 30
(skipped when sympy is absent).  Then the field operations the program
relies on: normal forms, the unification QQ ⊂ QQ(i) ⊂ Q(ζ_lcm), hashes
that agree across fields, the order budget, and charpolys of matrices
over Q(ζ_N) against the Bareiss reference.
"""

import random
from fractions import Fraction

import pytest

from covertwist.domains import (
    QI,
    QQ,
    Cyclotomic,
    CyclotomicDomain,
    GaussianRational,
    cyclotomic_field,
    cyclotomic_polynomial,
    domain_of,
    root_of_unity,
    unify_scalar_domains,
)
from covertwist.errors import BudgetExceededError
from covertwist.matrix import Matrix, charpoly, det, inverse

from bareiss_reference import bareiss_charpoly, det_bareiss

ORDERS = [n for n in range(3, 31) if n != 4]


def random_element(rng: random.Random, n: int):
    """A random value of Q(ζ_n): small rational coordinates on ζ^k."""
    return sum((Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                * root_of_unity(n, k) for k in range(n)), 0)


def coordinates(x, n: int) -> list:
    """x's coordinates in the power basis of Q(ζ_n)."""
    dom = CyclotomicDomain(n)
    x = dom.coerce(x)
    if isinstance(x, Cyclotomic):
        return list(x.c)
    return [x] + [0] * (len(cyclotomic_polynomial(n)) - 2)


def as_sympy(coords, t):
    import sympy
    return sum(sympy.Rational(c.numerator, c.denominator) * t ** k
               for k, c in enumerate(map(Fraction, coords)))


def sympy_coordinates(poly, t, phi: int) -> list:
    import sympy
    p = sympy.Poly(poly, t)
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(p.all_coeffs())] + [0] * (phi - p.degree() - 1)


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclotomic_polynomial_against_sympy(n):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    want = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(n)) == [int(c) for c in want]


@pytest.mark.parametrize("n", ORDERS)
def test_products_and_inverses_against_sympy(n):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    phi_n = sympy.cyclotomic_poly(n, t)
    phi = sympy.degree(phi_n, t)
    rng = random.Random(n)
    for _ in range(3):
        a, b = random_element(rng, n), random_element(rng, n)
        sa, sb = (as_sympy(coordinates(v, n), t) for v in (a, b))
        want = sympy.rem(sympy.expand(sa * sb), phi_n, t)
        assert coordinates(a * b, n) == sympy_coordinates(want, t, phi)
        if a:
            want = sympy.invert(sa, phi_n, t)
            assert coordinates(1 / a, n) == sympy_coordinates(want, t, phi)
            assert a * CyclotomicDomain(n).invert(a) == 1


@pytest.mark.parametrize("m", ORDERS)
def test_embeddings_against_sympy(m):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(100 + m)
    x = random_element(rng, m)
    for big in (2 * m, 3 * m, 4 * m):
        if big > 60:
            continue
        # ζ_m = ζ_big^(big/m)
        want = sympy.rem(as_sympy(coordinates(x, m), t ** (big // m)),
                         sympy.cyclotomic_poly(big, t), t)
        phi = sympy.degree(sympy.cyclotomic_poly(big, t), t)
        assert coordinates(x, big) == sympy_coordinates(want, t, phi)
        assert CyclotomicDomain(big).coerce(x) == x


def test_normal_forms():
    z5 = root_of_unity(5)
    assert z5 ** 5 == 1 and type(z5 ** 5) is int
    assert root_of_unity(6, 3) == -1 and type(root_of_unity(6, 3)) is int
    assert root_of_unity(4) == GaussianRational(0, 1)
    assert root_of_unity(12, 3) == GaussianRational(0, 1)   # in Q(ζ_12)
    # ζ_5 + ζ_5^4 = (√5 − 1)/2 is real but irrational: still cyclotomic
    g = z5 + z5 ** 4
    assert isinstance(g, Cyclotomic) and g * g + g == 1
    assert z5 - z5 == 0 and type(z5 - z5) is int
    assert z5 * 0 == 0 and (z5 * Fraction(2, 4)) * 2 == z5
    i = GaussianRational(0, 1)
    w = root_of_unity(3)
    assert isinstance(w * i, Cyclotomic) and (w * i).n == 12
    assert (w * i) ** 12 == 1
    assert w ** -1 == w ** 2 == -1 - w


def test_field_nesting():
    q3, q12 = CyclotomicDomain(3), CyclotomicDomain(12)
    assert CyclotomicDomain(3) is q3
    assert cyclotomic_field(1) is QQ and cyclotomic_field(2) is QQ
    assert cyclotomic_field(4) is QI and cyclotomic_field(6).name == \
        "QQ(zeta_6)"
    assert unify_scalar_domains(QQ, q3) is q3
    assert unify_scalar_domains(QI, q3) is q12
    assert unify_scalar_domains(q3, CyclotomicDomain(6)).name == \
        "QQ(zeta_6)"
    assert domain_of([1, Fraction(1, 2)]) is QQ
    assert domain_of([GaussianRational(0, 1), root_of_unity(3)]) is q12


def test_hash_agrees_across_fields():
    w = root_of_unity(3)
    for n in (6, 9, 12, 15):
        lifted = CyclotomicDomain(n).coerce(w)
        assert lifted == w and hash(lifted) == hash(w)
    i8 = CyclotomicDomain(8).coerce(GaussianRational(0, 1))
    assert i8 == GaussianRational(0, 1)
    assert hash(i8) == hash(GaussianRational(0, 1))


def test_order_budget():
    with pytest.raises(BudgetExceededError):
        root_of_unity(101)
    with pytest.raises(BudgetExceededError):   # Q(ζ_lcm(97, 89))
        _ = root_of_unity(97) + root_of_unity(89)


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_charpoly_det_and_inverse_over_cyclotomic_matrices(n):
    dom = CyclotomicDomain(n)
    rng = random.Random(n)
    for order in range(1, 5):
        m = Matrix(dom, [[dom.coerce(random_element(rng, n))
                          for _ in range(order)] for _ in range(order)])
        assert charpoly(m) == bareiss_charpoly(m)
        d = det(m)
        assert d == det_bareiss(m)
        if d:
            assert (m * inverse(m)).eq(Matrix.identity(dom, order))
