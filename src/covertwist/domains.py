"""Scalar domains: exact rationals, Gaussian rationals, floating complex.

Matrix and polynomial routines are generic over a small domain object
providing ring operations plus an equality predicate.  Exact domains
compare with ==; the floating domain compares up to a configurable
tolerance.  Rational elements are kept as plain ints whenever possible
(int arithmetic is much cheaper than Fraction arithmetic and the mix is
exact either way).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainMismatchError


def _norm_rat(x):
    """Collapse a Fraction with denominator 1 to an int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _rat_div(a, b):
    """Exact a / b in QQ for b ≠ 0.  When b divides a in the integers
    the quotient comes back an int, with no Fraction built."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _norm_rat(Fraction(a) / b)


class GaussianRational:
    """Exact complex number re + im*i with rational parts.

    Mixes freely with int and Fraction in arithmetic; never with floats
    (floating work converts at the domain boundary instead).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def _lift(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x, 0)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in QQ(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = GaussianRational(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


def format_gaussian(g: GaussianRational) -> str:
    """Canonical text form: 2, -1/2, (1+2i), (1/2-i), (3i), (-i)."""
    if g.im == 0:
        return str(_norm_rat(g.re))
    if g.im > 0:
        sign = "+"
        mag = g.im
    else:
        sign = "-"
        mag = -g.im
    istr = "i" if mag == 1 else f"{_norm_rat(mag)}i"
    if g.re == 0:
        return f"({istr})" if sign == "+" else f"(-{istr})"
    return f"({_norm_rat(g.re)}{sign}{istr})"


class RationalDomain:
    """Exact rationals; elements are int or Fraction."""

    name = "QQ"
    exact = True
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return _norm_rat(x)
        if isinstance(x, str):
            return _norm_rat(Fraction(x))
        if isinstance(x, GaussianRational):
            if x.im != 0:
                raise DomainMismatchError("imaginary part in QQ")
            return _norm_rat(x.re)
        raise DomainMismatchError(f"cannot coerce {x!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return not a

    def invert(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return _norm_rat(Fraction(1) / a)

    def __repr__(self):
        return "QQ"


class GaussianRationalDomain:
    """Exact rationals with i adjoined; elements int, Fraction or GaussianRational."""

    name = "QQ(i)"
    exact = True
    zero = 0
    one = 1

    @staticmethod
    def _norm(x):
        if isinstance(x, GaussianRational) and x.im == 0:
            return _norm_rat(x.re)
        return _norm_rat(x) if isinstance(x, Fraction) else x

    def coerce(self, x):
        if isinstance(x, (int, Fraction, GaussianRational)):
            return self._norm(x)
        raise DomainMismatchError(f"cannot coerce {x!r} into QQ(i)")

    def add(self, a, b):
        return self._norm(a + b)

    def sub(self, a, b):
        return self._norm(a - b)

    def mul(self, a, b):
        return self._norm(a * b)

    def neg(self, a):
        return -a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return not a

    def invert(self, a):
        if isinstance(a, GaussianRational):
            return self._norm(a.inverse())
        if not a:
            raise ZeroDivisionError("inverse of 0 in QQ(i)")
        return _norm_rat(Fraction(1) / a)

    def __repr__(self):
        return "QQ(i)"


class ComplexDomain:
    """Floating complex numbers with tolerance-based equality.

    eq(a, b) holds iff |a - b| <= atol + rtol * max(|a|, |b|).
    """

    name = "CC"
    exact = False
    zero = 0j
    one = 1 + 0j

    def __init__(self, rtol: float = 1e-9, atol: float = 1e-12):
        self.rtol = rtol
        self.atol = atol

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return complex(x)
        if isinstance(x, (int, float, complex, Fraction)):
            return complex(x)
        raise DomainMismatchError(f"cannot coerce {x!r} into CC")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def eq(self, a, b):
        return abs(a - b) <= self.atol + self.rtol * max(abs(a), abs(b))

    def is_zero(self, a):
        return abs(a) <= self.atol

    def invert(self, a):
        return 1 / a

    def __repr__(self):
        return f"CC(rtol={self.rtol}, atol={self.atol})"


QQ = RationalDomain()
QI = GaussianRationalDomain()
CC = ComplexDomain()


def unify_scalar_domains(a, b):
    """Smallest common scalar domain of two domains."""
    if isinstance(a, ComplexDomain) or isinstance(b, ComplexDomain):
        if isinstance(a, ComplexDomain):
            return a
        return b
    if isinstance(a, GaussianRationalDomain) or isinstance(b, GaussianRationalDomain):
        return QI
    return QQ


def coeff_is_integer(c) -> bool:
    """True when c is a plain rational integer."""
    if isinstance(c, int):
        return True
    if isinstance(c, Fraction):
        return c.denominator == 1
    if isinstance(c, GaussianRational):
        return c.im == 0 and c.re.denominator == 1
    return False
