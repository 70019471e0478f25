"""Division-free Berkowitz charpolys of matrices with polynomial entries.

References: det(lambda*I - A) by Bareiss elimination over the ring with
lambda adjoined (the route the kernel replaced; it survives only in
bareiss_reference.py), and sympy's charpoly (skipped when sympy is
missing).
"""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

import covertwist.matrix as matrix
from covertwist.domains import QI, QQ, Cyclotomic
from covertwist.matrix import Matrix, charpoly
from covertwist.poly import MultiPoly, PolyDomain, VarRegistry

from bareiss_reference import bareiss_charpoly
from builders import (dense, gaussian, matrix_from_rows, poly_from_exponents,
                      zero_matrix)

REG = VarRegistry(("x", "y", "z"))
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


def sympy_charpoly_matches(m: Matrix, cp: MultiPoly) -> bool:
    sympy = pytest.importorskip("sympy")

    def scalar(c):
        if isinstance(c, Cyclotomic):   # of order 4: re + im*i
            re, im = c.c
            return scalar(re) + sympy.I * scalar(im)
        c = Fraction(c)
        return sympy.Rational(c.numerator, c.denominator)

    def expr(p: MultiPoly, symbols):
        return sum((scalar(c) * sympy.Mul(*(s ** e for s, e in
                                            zip(symbols, p.reg.unpack(k))))
                    for k, c in p.terms.items()), sympy.Integer(0))

    symbols = sympy.symbols(" ".join(REG.names))
    lam = sympy.Symbol("lam")
    sm = sympy.Matrix(m.nrows, m.ncols,
                      [expr(x, symbols) for row in dense(m) for x in row])
    theirs = sm.charpoly(lam).as_expr()
    ours = expr(cp, (*symbols, lam))
    return sympy.expand(ours - theirs) == 0


integers = st.integers(-4, 4)
rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((2, 3, 5)))
gaussians = st.builds(gaussian, integers, rationals)
exponents = st.tuples(*[st.integers(0, 2)] * 3)


def entries(coeff, max_terms=2, min_terms=0):
    return st.lists(st.tuples(exponents, coeff), min_size=min_terms,
                    max_size=max_terms).map(
        lambda terms: poly_from_exponents(REG, terms))


def loops(coeff):
    """Non-zero diagonal entries: one term with a non-zero coefficient."""
    return entries(coeff.filter(bool), 1, 1)


def sparse(entry):
    return st.one_of(st.just(MultiPoly.zero(REG)),
                     st.just(MultiPoly.zero(REG)), entry)


def matrices(n_min, n_max, entry, coeff=QQ, diagonal=None):
    """Square matrices over coeff[x, y, z], with the diagonal drawn from
    its own strategy when one is given."""
    dom = PolyDomain(REG, coeff)

    def build(n):
        return st.tuples(
            st.lists(st.lists(entry, min_size=n, max_size=n),
                     min_size=n, max_size=n),
            st.lists(entry if diagonal is None else diagonal,
                     min_size=n, max_size=n)).map(
            lambda rd: [[rd[1][i] if i == j else x for j, x in enumerate(row)]
                        for i, row in enumerate(rd[0])])

    return st.integers(n_min, n_max).flatmap(build).map(
        lambda rows: Matrix(dom, rows))


@SETTINGS
@given(matrices(3, 10, sparse(entries(integers))))
def test_sparse_integer_against_bareiss(m):
    assert charpoly(m) == bareiss_charpoly(m)


@SETTINGS
@given(matrices(1, 6, entries(st.one_of(integers, rationals))))
def test_dense_rational_against_bareiss(m):
    assert charpoly(m) == bareiss_charpoly(m)


@SETTINGS
@given(matrices(1, 8, sparse(entries(st.one_of(rationals, gaussians))), QI,
                loops(gaussians)))
def test_gaussian_loops_against_bareiss(m):
    assert charpoly(m) == bareiss_charpoly(m)


@SETTINGS
@given(matrices(2, 10, sparse(entries(rationals, 1)), QQ, loops(rationals)))
def test_sparse_loops_against_bareiss(m):
    assert charpoly(m) == bareiss_charpoly(m)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.one_of(
    matrices(0, 5, sparse(entries(st.one_of(integers, rationals)))),
    matrices(1, 4, sparse(entries(gaussians)), QI, loops(gaussians))))
def test_against_sympy(m):
    assert sympy_charpoly_matches(m, charpoly(m))


def test_orders_zero_one_two():
    dom = PolyDomain(REG, QQ)
    lreg = REG.with_var("lambda")
    lam = MultiPoly.variable(lreg, "lambda")
    x, y, z = (MultiPoly.variable(lreg, v) for v in REG.names)
    assert charpoly(Matrix(dom, [])) == MultiPoly.one(lreg)
    a, b, c, d = (MultiPoly.variable(REG, "x") * 2, MultiPoly.one(REG),
                  MultiPoly.variable(REG, "y"), MultiPoly.variable(REG, "z"))
    assert charpoly(Matrix(dom, [[a]])) == lam - 2 * x
    assert charpoly(Matrix(dom, [[a, b], [c, d]])) == \
        lam ** 2 - (2 * x + z) * lam + 2 * x * z - y
    assert charpoly(zero_matrix(dom, 3, 3)) == lam ** 3


def test_no_exact_division(monkeypatch):
    calls = []
    original = MultiPoly.exact_div

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    dom = PolyDomain(REG, QQ)
    x, y, z = (MultiPoly.variable(REG, v) for v in REG.names)
    n = 7
    m = Matrix(dom, [[(x + i) * (y - j) + z * (i * j % 3) for j in range(n)]
                     for i in range(n)])
    monkeypatch.setattr(MultiPoly, "exact_div", counted)
    cp = charpoly(m)
    assert not calls
    monkeypatch.undo()
    assert cp == bareiss_charpoly(m)


def test_products_only_of_nonzero_factors(monkeypatch):
    """A zero entry, inner product or coefficient is skipped before the
    product loop, which is never handed an empty factor."""
    dom = PolyDomain(REG, QQ)
    x, y, z = (MultiPoly.variable(REG, v) for v in REG.names)
    n = 7
    m = Matrix(dom, [[x + y * j if (i + 2 * j) % 3 == 0 else
                      (z if j == i + 1 else 0) for j in range(n)]
                     for i in range(n)])
    calls = []
    original = matrix._add_product

    def checked(out, a, b):
        calls.append(bool(a) and bool(b))
        original(out, a, b)

    monkeypatch.setattr(matrix, "_add_product", checked)
    cp = charpoly(m)
    monkeypatch.undo()
    assert calls and all(calls)
    assert cp == bareiss_charpoly(m)


@pytest.mark.parametrize("rows", [
    [["x^40000", 1], [1, "x^40000"]],     # a diagonal product
    [[0, "x^40000"], ["x^30000", 0]],     # the product R*C
    [["x^65535", 0], [0, 0]],             # x^65535 * lambda
    # R*C = x^80000 - x^80000: the wrapped products would cancel
    [[0, 0, "x^40000"], [0, 0, "x^40000"], ["x^40000", "-x^40000", 0]],
    # c_0 = -x^75000, reached only in the last block: the products of
    # the first two blocks fit, and none of them is formed
    [["x^25000", 0, 0], [0, "x^25000", 0], [0, 0, "x^25000"]],
])
def test_degree_overflow_raises(monkeypatch, rows):
    x = MultiPoly.variable(REG, "x")

    def entry(v):
        if not isinstance(v, str):
            return v
        sign, _, power = v.rpartition("x^")
        return -x ** int(power) if sign else x ** int(power)

    m = matrix_from_rows(PolyDomain(REG, QQ),
                         [[entry(v) for v in row] for row in rows])
    # the order times the largest entry degree exceeds the limit in
    # every case, so the one guard refuses before the first product
    calls = []
    monkeypatch.setattr(matrix, "_add_product",
                        lambda *args: calls.append(args))
    with pytest.raises(OverflowError):
        charpoly(m)
    assert calls == []
