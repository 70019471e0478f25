"""Scalar domains: the cyclotomic fields Q(ζ_N), rationals included.

Matrix and polynomial routines are generic over a small domain object
providing ring operations plus an equality predicate.  Every domain is
exact and compares with ==.  One domain class, CyclotomicDomain(N),
serves every field: QQ is N = 1 and holds int and Fraction, QQ(i) is
N = 4, and Q(ζ_N) adds the Cyclotomic elements of order N.  The fields
nest: Q(ζ_M) lies in Q(ζ_L) when M | L, so unify_scalar_domains follows
QQ ⊂ QQ(i) ⊂ Q(ζ_lcm).  A value that is rational is always kept as a
plain int or Fraction, whatever field it was computed in (int
arithmetic is much cheaper than Fraction arithmetic and the mix is
exact either way).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import BudgetExceededError, DomainMismatchError


def _norm_rat(x):
    """Collapse a Fraction with denominator 1 to an int."""
    # type, not isinstance: isinstance against an ABC is slow on an int
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _rat_div(a, b):
    """Exact a / b in QQ for b ≠ 0.  When b divides a in the integers
    the quotient comes back an int, with no Fraction built."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _norm_rat(Fraction(a) / b)


def _power(x, k: int):
    """x ** k by repeated squaring; a negative k inverts x first."""
    if k < 0:
        x, k = x.inverse(), -k
    out = 1
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


# ---------------------------------------------------------------------------
# cyclotomic fields

# A product in Q(ζ_n) costs about φ(n)² coefficient operations and an
# inverse φ(n) times that (0.3 s for a dense element of Q(ζ_97)), so
# fields stop at this order.
CYCLOTOMIC_ORDER_BUDGET = 100


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Φ_n, ascending: x^n − 1 divided exactly by Φ_d
    for every proper divisor d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_polynomial(d)
            k = len(div) - 1
            quot = [0] * (len(num) - k)
            for i in range(len(quot) - 1, -1, -1):   # Φ_d is monic
                q = quot[i] = num[i + k]
                for j, c in enumerate(div):
                    num[i + j] -= q * c
            num = quot
    return tuple(num)


def _within_budget(n: int) -> int:
    """n, when Q(ζ_n) is within the order budget."""
    if n > CYCLOTOMIC_ORDER_BUDGET:
        raise BudgetExceededError(f"Q(zeta_{n}) exceeds the cyclotomic "
                                  f"order budget of {CYCLOTOMIC_ORDER_BUDGET}")
    return n


@cache
def _field(n: int) -> tuple[tuple, tuple]:
    """(powers, mean_trace) for Q(ζ_n): powers[k] holds the coordinates
    of ζ^k, 0 <= k < n, in the power basis modulo Φ_n, and
    mean_trace[k] = Tr(ζ^k)/φ(n) = μ(m)/φ(m) for m = n/gcd(k, n), where
    μ(m) = Tr(ζ_m) is minus the second-highest coefficient of Φ_m."""
    phi_n = cyclotomic_polynomial(_within_budget(n))
    row = [1] + [0] * (len(phi_n) - 2)
    powers = []
    for _ in range(n):
        powers.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]   # times ζ, with ζ^φ = −Σ_{j<φ} Φ_n[j]·ζ^j
        if top:
            row = [a - top * c for a, c in zip(row, phi_n)]
    mean_trace = [Fraction(-phi_m[-2], len(phi_m) - 1) for phi_m in
                  map(cyclotomic_polynomial,
                      (n // gcd(k, n) for k in range(len(phi_n) - 1)))]
    return tuple(powers), tuple(mean_trace)


def _spread(terms, step: int, n: int) -> list:
    """Coordinates of Σ a·ζ_n^(k·step) over the (k, a) terms."""
    powers = _field(n)[0]
    out = [0] * len(powers[0])
    for k, a in terms:
        if a:
            for j, r in enumerate(powers[k * step % n]):
                if r:
                    out[j] += a * r
    return out


def _conductor(x) -> int:
    """The order n of the field Q(ζ_n) that holds x, a Cyclotomic of
    order n or a rational (1)."""
    return x.n if isinstance(x, Cyclotomic) else 1


def _coords(x, n: int) -> list:
    """Coordinates of x in Q(ζ_n), for _conductor(x) dividing n."""
    if isinstance(x, Cyclotomic):
        return list(x.c) if x.n == n else _spread(enumerate(x.c), n // x.n, n)
    return _spread(((0, x),), 0, n)


def _make(n: int, c: list):
    """The value with coordinates c in Q(ζ_n), in its normal form: an int
    or Fraction when rational, else a Cyclotomic of order n."""
    c = [_norm_rat(a) for a in c]
    if not any(c[1:]):
        return c[0]
    return Cyclotomic(n, tuple(c))


def root_of_unity(n: int, k: int = 1):
    """ζ_n^k = e^(2πik/n) in Q(ζ_n), in its normal form."""
    if n < 1:
        raise ValueError(f"roots of unity have positive order, not {n}")
    return _make(n, list(_field(n)[0][k % n]))


class Cyclotomic:
    """Exact element of the cyclotomic field Q(ζ_n), ζ = e^(2πi/n): its
    coordinates c_0, ..., c_(φ(n)−1) in the power basis 1, ζ, ...,
    ζ^(φ(n)−1) modulo Φ_n.

    Never rational, so never of order 1 or 2: arithmetic hands rational
    values back as int or Fraction.  Order 4 is QQ(i), whose elements
    print as a+bi.  Mixes with int, Fraction and Cyclotomic of any order
    through Q(ζ_lcm) of both orders.
    Build one with root_of_unity, arithmetic or CyclotomicDomain.coerce;
    the constructor trusts its arguments."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: tuple):
        self.n = n
        self.c = c

    def _pair(self, other):
        """(n, a, b): the order of a field holding both operands, and
        their coordinates there; None for an unknown operand."""
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return None
        n = lcm(self.n, _conductor(other))
        return n, _coords(self, n), _coords(other, n)

    def __add__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        return _make(p[0], [x + y for x, y in zip(p[1], p[2])])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.n, [x * other for x in self.c])
        p = self._pair(other)
        if p is None:
            return NotImplemented
        n, a, b = p
        conv = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return _make(n, _spread(enumerate(conv), 1, n))

    __rmul__ = __mul__

    def __neg__(self):
        return Cyclotomic(self.n, tuple(-a for a in self.c))

    def inverse(self):
        """The product of the other Galois conjugates σ_k(x), ζ ↦ ζ^k for
        k prime to n, divided by the rational norm, x times that product."""
        n = self.n
        adj = 1
        for k in range(2, n):
            if gcd(k, n) == 1:
                adj *= _make(n, _spread(enumerate(self.c), k, n))
        return adj * _rat_div(1, self * adj)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * _rat_div(1, other)
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return other * self.inverse()

    __pow__ = _power

    def __eq__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else p[1] == p[2]

    def __hash__(self):
        # Tr(x)/φ(n), the mean of the conjugates, is the same in every
        # field that holds x
        return hash(sum(a * t for a, t in zip(self.c, _field(self.n)[1])))

    def __repr__(self):
        return f"Cyclotomic({self.n}, {self.c!r})"

    def __str__(self):
        """Text form in the power basis, lowest power first, with no
        spaces: 1/2*zeta_5^2-zeta_5^3, and for order 4 a+bi: 1-i, 1/2i."""
        parts = []
        for k, a in enumerate(self.c):
            if a:
                if self.n == 4:
                    atom, times = "i", ""
                else:
                    atom = f"zeta_{self.n}" + (f"^{k}" if k > 1 else "")
                    times = "*"
                mag = abs(a)
                body = (str(mag) if not k else atom if mag == 1
                        else f"{mag}{times}{atom}")
                parts.append(("-" if a < 0 else "+") + body)
        return "".join(parts).removeprefix("+")


class _Field:
    """A scalar domain Q(ζ_n), n = conductor: Python's own operators,
    exact on int, Fraction and Cyclotomic."""

    zero = 0
    one = 1

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, (int, Fraction)):
            return _norm_rat(x)
        n = self.conductor
        if isinstance(x, Cyclotomic) and n % x.n == 0:
            return x if x.n == n else _make(n, _coords(x, n))
        raise DomainMismatchError(f"cannot coerce {x!r} into {self.name}")

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
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        if isinstance(a, (int, Fraction)):
            return _rat_div(1, a)
        return self.coerce(a.inverse())

    def __repr__(self):
        return self.name


class CyclotomicDomain(_Field):
    """Q(ζ_n), elements int, Fraction or Cyclotomic of order n: QQ for
    n = 1 and QQ(i) for n = 4.  Built once per n, so domains compare by
    identity as well as by name."""

    _built: dict = {}

    def __new__(cls, n: int):
        dom = cls._built.get(n)
        if dom is None:
            dom = cls._built[n] = super().__new__(cls)
            dom.conductor = n
            dom.name = {1: "QQ", 4: "QQ(i)"}.get(n, f"QQ(zeta_{n})")
        return dom


QQ = CyclotomicDomain(1)
QI = CyclotomicDomain(4)


def cyclotomic_field(n: int):
    """Q(ζ_n) as its domain; Q(ζ_2) is QQ.  A field past the order
    budget raises BudgetExceededError here, before any arithmetic."""
    return CyclotomicDomain(_within_budget(n) if n > 2 else 1)


def unify_scalar_domains(a, b):
    """Smallest common scalar domain of two domains: Q(ζ_lcm) of their
    conductors."""
    return cyclotomic_field(lcm(a.conductor, b.conductor))


def domain_of(values):
    """Smallest scalar domain holding every value."""
    return cyclotomic_field(lcm(1, *map(_conductor, values)))


def coeff_is_integer(c) -> bool:
    """True when c is a plain rational integer."""
    return isinstance(c, int) or isinstance(c, Fraction) and c.denominator == 1
