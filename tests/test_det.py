"""Exact determinants as (-1)^n times the charpoly's constant coefficient.

References: Bareiss elimination (bareiss_reference.py) and the Leibniz
expansion, over QQ, QQ(i) and QQ[x, y], at every order the Leibniz
oracle allows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covertwist.domains import QI, QQ, Cyclotomic
from covertwist.errors import RegistryMismatchError
from covertwist.matrix import Matrix, charpoly, det
from covertwist.poly import MultiPoly, PolyDomain, VarRegistry

from bareiss_reference import det_bareiss
from builders import gaussian, matrix_from_rows, poly_from_exponents
from leibniz_reference import LEIBNIZ_BUDGET, det_leibniz

REG = VarRegistry(("x", "y"))
PQ = PolyDomain(REG, QQ)
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

integers = st.integers(-3, 3)
rationals = st.one_of(integers, st.builds(Fraction, st.integers(-5, 5),
                                          st.sampled_from((2, 3, 7))))
gaussians = st.one_of(rationals, st.builds(gaussian, rationals, rationals))
polys = st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                           rationals), min_size=1, max_size=2).map(
    lambda terms: poly_from_exponents(REG, terms))


def matrices(domain, entry, n_max=LEIBNIZ_BUDGET):
    """Square matrices of order 0..n_max; a third of the entries zero."""
    entry = st.one_of(st.just(0), entry, entry)
    return st.integers(0, n_max).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n)).map(
        lambda rows: matrix_from_rows(domain, rows))


@SETTINGS
@given(st.one_of(matrices(QQ, rationals), matrices(QI, gaussians)))
def test_scalar_det_against_bareiss_and_leibniz(m):
    d = det(m)
    assert d == det_bareiss(m) == det_leibniz(m)
    # the domain's normal form: an int when integral, real when real
    assert not (isinstance(d, Fraction) and d.denominator == 1)
    assert not (isinstance(d, Cyclotomic) and not d.c[1])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(matrices(PQ, polys))
def test_polynomial_det_against_bareiss_and_leibniz(m):
    d = det(m)
    assert d.reg == REG
    assert d == det_bareiss(m) == det_leibniz(m)


@pytest.mark.parametrize("domain", [QQ, QI, PQ])
def test_order_zero_is_one(domain):
    d = det(Matrix(domain, []))
    assert domain.eq(d, domain.one)


X, Y = (MultiPoly.variable(REG, v) for v in REG.names)


@pytest.mark.parametrize("domain, rows", [
    (QQ, [[1, 2], [2, 4]]),
    (QQ, [[Fraction(1, 2), 3, 1], [1, 6, 2], [0, 5, 7]]),
    (QI, [[gaussian(1, 1), 2], [gaussian(0, 1), gaussian(1, 1)]]),
    (PQ, [[X, Y, 0], [X * Y, Y ** 2, 0], [1, 2, 3]]),
    (PQ, [[0, 0], [X, 1]]),
])
def test_singular_is_exact_zero(domain, rows):
    d = det(matrix_from_rows(domain, rows))
    if domain is PQ:
        assert d == PQ.zero and not d.terms
    else:
        assert d == 0 and type(d) is int


def test_entries_may_hold_lambda():
    # the polynomial kernel adjoins no variable, so lambda in the entries'
    # own registry is no obstacle to det, only to charpoly
    reg = VarRegistry(("lambda", "x"))
    lam, x = (MultiPoly.variable(reg, v) for v in reg.names)
    m = Matrix(PolyDomain(reg, QQ), [[lam, x], [x + 1, lam * x]])
    d = det(m)
    assert d.reg == reg
    assert d.to_text() == "lambda^2*x - x^2 - x"
    assert d == det_bareiss(m)
    with pytest.raises(RegistryMismatchError):
        charpoly(m)
