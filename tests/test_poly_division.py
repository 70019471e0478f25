"""Heap-ordered MultiPoly.exact_div against a max-scan reference.

The reference rescans the whole remainder for its leading term on every
quotient term and does its monomial arithmetic on exponent vectors, not
on packed keys.  Both return None when a remainder is left.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from covertwist.domains import Cyclotomic
from covertwist.poly import MultiPoly, VarRegistry, _coeff_div

from builders import gaussian, poly_from_exponents

REG = VarRegistry(("x", "y", "z"))
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def gaussian_div(a, b):
    """a / b in QQ(i), from the coordinates re + im*i of both and the
    conjugate of b; no inverse of the program's own."""
    (ar, ai), (br, bi) = (map(Fraction, c.c if isinstance(c, Cyclotomic)
                              else (c, 0)) for c in (a, b))
    norm = br * br + bi * bi
    return gaussian((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)


def max_scan_div(a: MultiPoly, b: MultiPoly):
    reg = a.reg
    kb = max(b.terms)
    eb, cb = reg.unpack(kb), b.terms[kb]
    divisor = [(reg.unpack(k), c) for k, c in b.terms.items()]
    rem = dict(a.terms)
    quotient = []
    while rem:
        kr = max(rem)
        er = reg.unpack(kr)
        if any(x < y for x, y in zip(er, eb)):
            return None
        cq = gaussian_div(rem[kr], cb)
        eq = tuple(x - y for x, y in zip(er, eb))
        quotient.append((eq, cq))
        for e2, c2 in divisor:
            k = reg.pack(tuple(x + y for x, y in zip(eq, e2)))
            v = rem.get(k, 0) - cq * c2
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return poly_from_exponents(reg, quotient)


integers = st.integers(-6, 6)
rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 7)))
gaussians = st.builds(gaussian, rationals, rationals)
coefficients = st.one_of(integers, rationals, gaussians)
exponents = st.tuples(*[st.integers(0, 3)] * 3)


def polys(coeff=coefficients, min_size=0, max_size=6):
    return st.lists(st.tuples(exponents, coeff), min_size=min_size,
                    max_size=max_size).map(
        lambda entries: poly_from_exponents(REG, entries))


nonzero_polys = polys(min_size=1).filter(lambda p: not p.is_zero)


@SETTINGS
@given(polys(), nonzero_polys)
def test_exact_quotients(a, b):
    q = (a * b).exact_div(b)
    assert q == a
    assert q == max_scan_div(a * b, b)


@SETTINGS
@given(polys(), nonzero_polys, polys(min_size=1))
def test_against_max_scan(a, b, r):
    # a*b + r: exact only when b divides r; a quotient must multiply back
    p = a * b + r
    q = p.exact_div(b)
    assert q == max_scan_div(p, b)
    if q is not None:
        assert q * b == p


@SETTINGS
@given(polys(max_size=10), exponents, coefficients.filter(bool))
def test_monomial_divisors(a, exps, c):
    b = poly_from_exponents(REG, [(exps, c)])
    assert (a * b).exact_div(b) == a
    q = a.exact_div(b)
    assert q == max_scan_div(a, b)
    if q is not None:
        assert q * b == a


@SETTINGS
@given(polys(gaussians, min_size=1), polys(gaussians, min_size=1).filter(
    lambda p: not p.is_zero))
def test_gaussian_coefficients(a, b):
    assert (a * b).exact_div(b) == a
    p = a * b + a
    assert p.exact_div(b) == max_scan_div(p, b)


def test_cancelled_keys_come_back():
    # (x+y)^3 / (x+y): terms of the remainder cancel and reappear
    x, y = (MultiPoly.variable(REG, v) for v in "xy")
    assert ((x + y) ** 3).exact_div(x + y) == (x + y) ** 2
    assert ((x - y) ** 4 + 1).exact_div(x - y) is None


@SETTINGS
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-50, 50).filter(bool))
def test_integer_coefficient_division(a, b):
    q = _coeff_div(a, b)
    assert q == Fraction(a, b)
    assert isinstance(q, int) == (a % b == 0)
