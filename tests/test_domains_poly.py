"""Exact scalar domains and sparse multivariate polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covertwist.domains import (
    QI,
    QQ,
    Cyclotomic,
    CyclotomicDomain,
    coeff_is_integer,
    root_of_unity,
    unify_scalar_domains,
)
from covertwist.errors import (
    DomainMismatchError,
    RegistryMismatchError,
)
from covertwist.poly import MultiPoly, PolyDomain, VarRegistry

from builders import by_var, evaluate, gaussian, poly_from_exponents


# gaussian rationals -------------------------------------------------------

def test_gaussian_arithmetic():
    i = gaussian(0, 1)
    assert isinstance(i, Cyclotomic) and i.n == 4 and i == root_of_unity(4)
    assert i * i == -1
    a = gaussian(1, 2)
    b = gaussian(3, Fraction(-1, 2))
    assert a + b == gaussian(4, Fraction(3, 2))
    assert a * b == gaussian(4, Fraction(11, 2))
    assert a - a == 0
    assert -a == gaussian(-1, -2)


def test_gaussian_mixed_scalars():
    a = gaussian(1, 2)
    assert a + 1 == gaussian(2, 2)
    assert 2 * a == gaussian(2, 4)
    assert a * Fraction(1, 2) == gaussian(Fraction(1, 2), 1)
    # real values of QQ(i) collapse onto rationals, so eq and hash agree
    real = gaussian(1, 1) * gaussian(1, -1)
    assert real == 2 and type(real) is int and hash(real) == hash(2)
    half = gaussian(Fraction(1, 2), 1) - gaussian(0, 1)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert hash(a) == hash(CyclotomicDomain(12).coerce(a))


def test_gaussian_division():
    a = gaussian(1, 1)
    assert QI.invert(a) * a == 1
    assert 2 / a == gaussian(1, -1)
    assert gaussian(2, 0) / a == gaussian(1, -1)


def test_domain_protocol():
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    assert QI.coerce(2) == 2
    assert QQ is CyclotomicDomain(1) and QI is CyclotomicDomain(4)
    assert (QQ.name, QI.name) == ("QQ", "QQ(i)")
    assert QQ.is_zero(QQ.zero)
    assert QQ.eq(QQ.one, 1)
    with pytest.raises(DomainMismatchError):   # i is not in QQ
        QQ.coerce(gaussian(0, 1))
    q5 = CyclotomicDomain(5)
    z = q5.coerce(root_of_unity(5))
    assert q5.eq(q5.mul(z, q5.invert(z)), q5.one)
    assert not q5.eq(z, q5.one)
    assert q5.is_zero(q5.sub(z, z))
    with pytest.raises(DomainMismatchError):   # i is not in Q(zeta_5)
        q5.coerce(gaussian(0, 1))


def test_unify_scalar_domains():
    assert unify_scalar_domains(QQ, QI) is QI
    assert unify_scalar_domains(QI, QQ) is QI
    assert unify_scalar_domains(QQ, QQ) is QQ


def test_coeff_is_integer():
    assert coeff_is_integer(3)
    assert coeff_is_integer(Fraction(4, 2))
    assert not coeff_is_integer(Fraction(1, 2))
    # only real integer values count
    assert coeff_is_integer(gaussian(2, 0))
    assert not coeff_is_integer(gaussian(2, -1))
    assert not coeff_is_integer(gaussian(Fraction(1, 2), 0))


# registries ---------------------------------------------------------------

def test_registry_basics():
    reg = VarRegistry(())
    assert reg.pack(()) == 0
    reg2 = reg.with_var("x").with_var("y")
    assert reg2.names == ("x", "y")
    key = reg2.pack((2, 3))
    assert reg2.unpack(key) == (2, 3)


def test_registry_rejects_duplicates():
    reg = VarRegistry(("x",))
    with pytest.raises(RegistryMismatchError):
        reg.with_var("x")


# polynomials --------------------------------------------------------------

def xy():
    reg = VarRegistry(("x", "y"))
    return (reg, MultiPoly.variable(reg, "x"), MultiPoly.variable(reg, "y"))


def test_poly_arithmetic():
    reg, x, y = xy()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p != x * x
    assert (x + 1) - x == MultiPoly.const(reg, 1)
    assert (x * 0).is_zero


def test_poly_scalar_interop():
    reg, x, y = xy()
    p = 2 * x + Fraction(1, 2)
    assert p - Fraction(1, 2) == 2 * x
    assert (3 + x) == (x + 3)


def test_poly_pow():
    reg, x, y = xy()
    assert (x + y) ** 0 == MultiPoly.const(reg, 1)
    assert (x + y) ** 3 == (x + y) * (x + y) * (x + y)


def test_poly_degrees():
    reg, x, y = xy()
    p = x ** 2 * y + y
    assert p.total_degree() == 3
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    zero = x - x
    assert zero.total_degree() == -1
    assert zero.is_zero


def test_poly_constants():
    reg, x, y = xy()
    c = MultiPoly.const(reg, Fraction(5, 2))
    assert c.is_constant()
    assert c.constant_value() == Fraction(5, 2)
    assert not (x + 1).is_constant()
    assert (x + 1).constant_value() == 1


def test_poly_exact_div():
    reg, x, y = xy()
    p = x ** 2 - y ** 2
    assert p.exact_div(x + y) == x - y
    assert p.exact_div(x + 1) is None
    assert (2 * x).exact_div(2) == x


def test_poly_exponent_overflow_raises():
    reg, x, y = xy()
    assert (x ** 65535).degree_in("x") == 65535
    with pytest.raises(OverflowError):
        x ** 65536
    with pytest.raises(OverflowError):
        (x ** 40000) * (y ** 30000)


def test_poly_is_integral():
    reg, x, y = xy()
    assert (2 * x + 3).is_integral()
    assert not (x * Fraction(1, 2)).is_integral()


def test_poly_eliminate_and_evaluate():
    reg, x, y = xy()
    p = x ** 2 * y + 2 * x + y
    q = p.eliminate("y", Fraction(3))
    assert q.reg.names == ("x",)
    xx = MultiPoly.variable(q.reg, "x")
    assert q == 3 * xx ** 2 + 2 * xx + 3
    assert evaluate(p, {"x": Fraction(1), "y": Fraction(2)}) == 6
    with pytest.raises(KeyError):
        evaluate(p, {"x": Fraction(1)})


def test_poly_by_var():
    reg, x, y = xy()
    p = x ** 2 * y + 2 * x + y
    slices = by_var(p, "x")
    assert set(slices) == {0, 1, 2}
    yy = MultiPoly.variable(slices[0].reg, "y")
    assert slices[0] == yy
    assert slices[2] == yy
    assert p.coefficient_of("x", 1) == MultiPoly.const(yy.reg, 2)


NAMES = ("a", "b", "c", "d")


@st.composite
def polys_and_power(draw):
    """A polynomial over 1-4 variables, with exponents wide enough to
    fill several bits of each packed field, one of its variables and a
    power of it (often, but not always, one that occurs)."""
    reg = VarRegistry(NAMES[:draw(st.integers(1, 4))])
    exps = st.tuples(*[st.integers(0, 40)] * reg.nvars)
    coeffs = st.one_of(st.integers(-9, 9),
                       st.builds(Fraction, st.integers(-9, 9),
                                 st.integers(1, 5)))
    p = poly_from_exponents(reg, draw(st.lists(st.tuples(exps, coeffs),
                                               max_size=8)))
    name = draw(st.sampled_from(reg.names))
    used = sorted({reg.unpack(k)[reg.index(name)] for k in p.terms})
    power = draw(st.sampled_from(used) if used and draw(st.booleans())
                 else st.integers(0, 41))
    return p, name, power


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys_and_power())
def test_coefficient_of_against_by_var(case):
    p, name, power = case
    got = p.coefficient_of(name, power)
    want = by_var(p, name).get(power)
    assert got.reg.names == tuple(n for n in p.reg.names if n != name)
    if want is None:
        assert got.is_zero
    else:
        assert got == want
        assert got.total_degree() == want.total_degree()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys_and_power(), st.integers(-3, 3))
def test_eliminate_against_by_var(case, value):
    p, name, _ = case
    want = MultiPoly.zero(p.eliminate(name, value).reg)
    for e, c in by_var(p, name).items():
        want = want + c * value ** e
    assert p.eliminate(name, value) == want


def test_poly_to_text():
    reg, x, y = xy()
    assert ((x + y) ** 2).to_text() == "x^2 + 2*x*y + y^2"
    assert (x - x).to_text() == "0"
    assert (2 * x ** 2 - y).to_text() == "2*x^2 - y"


def test_poly_registry_mismatch():
    reg1 = VarRegistry(("x",))
    reg2 = VarRegistry(("y",))
    a = MultiPoly.variable(reg1, "x")
    b = MultiPoly.variable(reg2, "y")
    with pytest.raises(RegistryMismatchError):
        a + b


def test_poly_lift():
    reg1 = VarRegistry(("x",))
    reg2 = reg1.with_var("y")
    a = MultiPoly.variable(reg1, "x")
    lifted = a.lift(reg2)
    assert lifted.reg.names == ("x", "y")
    assert lifted == MultiPoly.variable(reg2, "x")


def test_poly_domain():
    reg = VarRegistry(("x",))
    pd = PolyDomain(reg, QQ)
    assert "x" in pd.name
    x = MultiPoly.variable(reg, "x")
    assert pd.coerce(2) == MultiPoly.const(reg, 2)
    assert pd.mul(x, x) == x ** 2
    assert PolyDomain(reg, CyclotomicDomain(5)).name == "QQ(zeta_5)[x]"


def test_poly_domain_lifts_registries():
    reg1 = VarRegistry(("x",))
    pd = PolyDomain(reg1.with_var("y"), QQ)
    a = MultiPoly.variable(reg1, "x")
    assert pd.coerce(a).reg.names == ("x", "y")


def test_gaussian_coefficients_mix():
    # (ix + 1)(-ix + 1) = x^2 + 1 over the gaussian rationals
    reg = VarRegistry(("x",))
    x = MultiPoly.variable(reg, "x")
    p = x * gaussian(0, 1) + 1
    conj = x * gaussian(0, -1) + 1
    assert p * conj == x ** 2 + 1
