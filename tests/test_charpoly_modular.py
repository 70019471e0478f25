"""The multi-modular charpoly kernel against independent routes.

References: sympy's charpoly (skipped when sympy is missing) and the
fraction-free route the kernel replaced for scalar matrices, det of
lambda*I - A over the polynomial ring QQ[lambda] or QQ(i)[lambda] by
Bareiss elimination (bareiss_reference.py).
Orders run from 8, above the Leibniz oracle's budget of 7.
"""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from covertwist.domains import QI, QQ, GaussianRational
from covertwist.matrix import (
    Matrix,
    _hessenberg_charpoly,
    _split_prime,
    charpoly,
)
from covertwist.poly import MultiPoly, VarRegistry

from bareiss_reference import bareiss_charpoly

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


def sympy_charpoly(m: Matrix, var: str = "lambda") -> MultiPoly:
    sympy = pytest.importorskip("sympy")

    def to_sympy(x):
        if isinstance(x, GaussianRational):
            return (sympy.Rational(x.re.numerator, x.re.denominator)
                    + sympy.I * sympy.Rational(x.im.numerator,
                                               x.im.denominator))
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    lam = sympy.Symbol("lam")
    sm = sympy.Matrix(m.nrows, m.ncols,
                      [to_sympy(x) for row in m.data for x in row])
    coeffs = sympy.Poly(sm.charpoly(lam).as_expr(), lam).all_coeffs()
    reg = VarRegistry((var,))
    n = len(coeffs) - 1
    terms = {}
    for k, c in enumerate(coeffs):
        re, im = sympy.expand(c).as_real_imag()
        v = QI.coerce(GaussianRational(Fraction(str(re)), Fraction(str(im))))
        if v:
            terms[reg.pack((n - k,))] = v
    return MultiPoly(reg, terms)


def rationals(bound=6, dens=(1, 2, 3, 5, 12)):
    return st.builds(Fraction, st.integers(-bound, bound), st.sampled_from(dens))


def sparse(entry):
    return st.one_of(st.just(0), st.just(0), entry)


def matrices(n_min, n_max, entry, domain):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n)).map(
        lambda rows: Matrix(domain, [[domain.coerce(x) for x in row]
                                     for row in rows]))


def gaussians():
    return st.builds(lambda a, b: QI.coerce(GaussianRational(a, b)),
                     rationals(4, (1, 2, 7)), rationals(4, (1, 3)))


@SETTINGS
@given(matrices(8, 16, sparse(rationals()), QQ))
def test_rational_against_bareiss(m):
    assert charpoly(m) == bareiss_charpoly(m)


@SETTINGS
@given(matrices(8, 24, sparse(rationals()), QQ))
def test_rational_against_sympy(m):
    assert charpoly(m) == sympy_charpoly(m)


@SETTINGS
@given(matrices(8, 12, sparse(gaussians()), QI))
def test_gaussian_against_bareiss(m):
    assert charpoly(m) == bareiss_charpoly(m)


@SETTINGS
@given(matrices(8, 24, sparse(gaussians()), QI))
def test_gaussian_against_sympy(m):
    assert charpoly(m) == sympy_charpoly(m)


@pytest.mark.parametrize("domain", [QQ, QI])
def test_small_orders_and_zero_matrix(domain):
    reg = VarRegistry(("lambda",))
    lam = MultiPoly.variable(reg, "lambda")
    assert charpoly(Matrix(domain, [])) == MultiPoly.one(reg)
    assert charpoly(Matrix(domain, [[Fraction(-3, 4)]])) == lam + Fraction(3, 4)
    two = Matrix(domain, [[1, Fraction(1, 2)], [3, 0]])
    assert charpoly(two) == lam ** 2 - lam - Fraction(3, 2)
    for n in (1, 2, 9):
        assert charpoly(Matrix.zeros(domain, n, n)) == lam ** n


def test_already_hessenberg():
    n = 10
    m = Matrix(QQ, [[Fraction(i + 2 * j - 7, 1 + (i * j) % 4)
                     if i <= j + 1 else 0 for j in range(n)]
                    for i in range(n)])
    assert charpoly(m) == bareiss_charpoly(m) == sympy_charpoly(m)


@SETTINGS
@given(matrices(8, 12, sparse(st.integers(-3, 3)), QQ))
def test_pivots_vanishing_modulo_the_first_prime(m):
    # every entry a multiple of p: all of D*A is zero mod p, and mixing
    # in units leaves pivots that vanish mod p but not over QQ
    p, _ = _split_prime(0)
    big = Matrix(QQ, [[x * p + (1 if (i + j) % 5 == 0 else 0)
                       for j, x in enumerate(row)]
                      for i, row in enumerate(m.data)])
    assert charpoly(big) == bareiss_charpoly(big)
    scaled = Matrix(QQ, [[x * p for x in row] for row in m.data])
    assert charpoly(scaled) == bareiss_charpoly(scaled)


def near_2_200():
    return st.builds(lambda s, v: s * (2 ** 200 + v),
                     st.sampled_from((-1, 1)), st.integers(-2 ** 20, 2 ** 20))


@SETTINGS
@given(st.lists(sparse(near_2_200()), min_size=64, max_size=64))
def test_huge_entries_need_many_primes(vals):
    m = Matrix(QQ, [vals[8 * i:8 * i + 8] for i in range(8)])
    assert charpoly(m) == bareiss_charpoly(m)


def test_coefficients_beyond_three_primes():
    # det is about 2^1600: three 61-bit residues cannot carry it
    n = 8
    m = Matrix(QQ, [[2 ** 200 + i if i == j else (i - j) * 2 ** 199
                     for j in range(n)] for i in range(n)])
    cp = charpoly(m)
    assert abs(cp.constant_value()).bit_length() > 3 * 61
    assert cp == bareiss_charpoly(m)


def test_hessenberg_recurrence_modulo_a_small_prime():
    # the companion matrix of x^3 - 2x - 5 over F_7, already Hessenberg
    h = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert _hessenberg_charpoly(h, 7) == [(-5) % 7, (-2) % 7, 0, 1]


def test_split_primes_are_61_bit_and_split():
    for k in range(4):
        p, s = _split_prime(k)
        assert p < 2 ** 61 and p.bit_length() == 61
        assert p % 4 == 1 and s * s % p == p - 1
    assert _split_prime(0)[0] > _split_prime(1)[0]
