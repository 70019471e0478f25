"""Sparse multivariate polynomials with exact coefficients.

A monomial is packed into a single integer: 16 bits per variable with
the total degree in the topmost field.  Monomial multiplication is then
integer addition and graded-lex comparison is integer comparison, which
keeps fraction-free elimination over these rings fast enough for the
symbolic covers handled here.

Coefficients are int, Fraction or GaussianRational; zero coefficients
are never stored, so the zero polynomial has an empty term dict and
equality is plain dict comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .domains import GaussianRational, coeff_is_integer, format_gaussian, _norm_rat
from .errors import (DivisionByZeroPolyError, DomainMismatchError,
                     RegistryMismatchError)

VAR_BITS = 16
VAR_MASK = (1 << VAR_BITS) - 1
MAX_EXP = VAR_MASK


class VarRegistry:
    """Ordered set of variable names fixing the monomial encoding.

    Two polynomials combine only when their registries carry identical
    name tuples.  Variable 0 is most significant after total degree.
    """

    __slots__ = ("names", "_pos", "_shifts", "_deg_shift")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.names = names
        self._pos = {n: i for i, n in enumerate(names)}
        n = len(names)
        self._shifts = tuple((n - 1 - i) * VAR_BITS for i in range(n))
        self._deg_shift = n * VAR_BITS

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise RegistryMismatchError(f"unknown variable {name!r}") from None

    def pack(self, exps: Sequence[int]) -> int:
        if len(exps) != len(self.names):
            raise RegistryMismatchError("exponent vector length mismatch")
        key = 0
        total = 0
        for e, sh in zip(exps, self._shifts):
            if e < 0 or e > MAX_EXP:
                raise OverflowError(f"exponent {e} out of range")
            key |= e << sh
            total += e
        return key | (total << self._deg_shift)

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> sh) & VAR_MASK for sh in self._shifts)

    def var_key(self, i: int) -> int:
        return (1 << self._shifts[i]) | (1 << self._deg_shift)

    def key_divides(self, ka: int, kb: int) -> bool:
        """True when monomial ka divides monomial kb (fieldwise <=)."""
        for sh in self._shifts:
            if (ka >> sh) & VAR_MASK > (kb >> sh) & VAR_MASK:
                return False
        return True

    def total_degree(self, key: int) -> int:
        return key >> self._deg_shift

    def with_var(self, name: str) -> "VarRegistry":
        if name in self._pos:
            raise RegistryMismatchError(f"variable {name!r} already present")
        return VarRegistry(self.names + (name,))

    def __eq__(self, other):
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarRegistry{self.names}"


def _same_registry(a: "MultiPoly", b: "MultiPoly") -> None:
    if a.reg.names != b.reg.names:
        raise RegistryMismatchError(
            f"registries differ: {a.reg.names} vs {b.reg.names}")


def _coeff_div(a, b):
    """Exact coefficient division in QQ or QQ(i)."""
    if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
        ga = a if isinstance(a, GaussianRational) else GaussianRational(a)
        out = ga / b
        if out.im == 0:
            return _norm_rat(out.re)
        return out
    return _norm_rat(Fraction(a) / b)


class MultiPoly:
    """Immutable sparse polynomial over a VarRegistry.

    The term dict maps packed monomial keys to nonzero coefficients.
    Construct through the classmethods; the raw constructor trusts its
    arguments.
    """

    __slots__ = ("reg", "terms")

    def __init__(self, reg: VarRegistry, terms: dict):
        self.reg = reg
        self.terms = terms

    @classmethod
    def zero(cls, reg: VarRegistry) -> "MultiPoly":
        return cls(reg, {})

    @classmethod
    def const(cls, reg: VarRegistry, c) -> "MultiPoly":
        if not c:
            return cls(reg, {})
        return cls(reg, {0: c})

    @classmethod
    def one(cls, reg: VarRegistry) -> "MultiPoly":
        return cls(reg, {0: 1})

    @classmethod
    def variable(cls, reg: VarRegistry, name: str) -> "MultiPoly":
        return cls(reg, {reg.var_key(reg.index(name)): 1})

    @classmethod
    def from_exponents(cls, reg: VarRegistry,
                       entries: Iterable[tuple[Sequence[int], object]]) -> "MultiPoly":
        terms: dict = {}
        for exps, c in entries:
            if not c:
                continue
            k = reg.pack(exps)
            acc = terms.get(k)
            if acc is None:
                terms[k] = c
            else:
                acc = acc + c
                if acc:
                    terms[k] = acc
                else:
                    del terms[k]
        return cls(reg, terms)

    # ---- predicates ----

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self):
        return self.terms.get(0, 0)

    def is_integral(self) -> bool:
        """True when every coefficient is a rational integer."""
        return all(coeff_is_integer(c) for c in self.terms.values())

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return self.reg.total_degree(max(self.terms))

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        sh = self.reg._shifts[self.reg.index(name)]
        return max((k >> sh) & VAR_MASK for k in self.terms)

    def lead(self) -> tuple[int, object]:
        """Graded-lex leading (key, coefficient)."""
        k = max(self.terms)
        return k, self.terms[k]

    # ---- ring operations ----

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.reg.names == other.reg.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.reg.names, frozenset(self.terms.items())))

    def __neg__(self):
        return MultiPoly(self.reg, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction, GaussianRational)):
                other = MultiPoly.const(self.reg, other)
            else:
                return NotImplemented
        _same_registry(self, other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            acc = out.get(k)
            if acc is None:
                out[k] = c
            else:
                acc = acc + c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return MultiPoly(self.reg, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction, GaussianRational)):
                other = MultiPoly.const(self.reg, other)
            else:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction, GaussianRational)):
                if not other:
                    return MultiPoly(self.reg, {})
                return MultiPoly(self.reg,
                                 {k: c * other for k, c in self.terms.items()})
            return NotImplemented
        _same_registry(self, other)
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly(self.reg, {})
        # keys add fieldwise with no carry check, which is sound while
        # the total degree (the top field of the leading key) fits a field
        shift = self.reg._deg_shift
        if (max(a) >> shift) + (max(b) >> shift) > MAX_EXP:
            raise OverflowError(
                f"product degree exceeds the exponent limit {MAX_EXP}")
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                c = c1 * c2
                acc = get(k)
                if acc is None:
                    out[k] = c
                else:
                    acc = acc + c
                    if acc:
                        out[k] = acc
                    else:
                        del out[k]
        return MultiPoly(self.reg, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.one(self.reg)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:   # a square past the last bit could overflow needlessly
                base = base * base
        return out

    # ---- division ----

    def exact_div(self, other: "MultiPoly"):
        """Quotient self / other when the division is exact, else None."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.reg, other)
        _same_registry(self, other)
        if other.is_zero:
            raise DivisionByZeroPolyError("division by zero polynomial")
        if self.is_zero:
            return MultiPoly.zero(self.reg)
        kb, cb = other.lead()
        if len(other.terms) == 1:
            # monomial divisor fast path
            out = {}
            divides = self.reg.key_divides
            for k, c in self.terms.items():
                if not divides(kb, k):
                    return None
                out[k - kb] = _coeff_div(c, cb)
            return MultiPoly(self.reg, out)
        rem = dict(self.terms)
        q: dict = {}
        bitems = list(other.terms.items())
        divides = self.reg.key_divides
        while rem:
            kr = max(rem)
            if not divides(kb, kr):
                return None
            cq = _coeff_div(rem[kr], cb)
            kq = kr - kb
            q[kq] = cq
            for k2, c2 in bitems:
                k = kq + k2
                c = cq * c2
                acc = rem.get(k)
                if acc is None:
                    rem[k] = -c
                else:
                    acc = acc - c
                    if acc:
                        rem[k] = acc
                    else:
                        del rem[k]
        return MultiPoly(self.reg, q)

    # ---- substitution ----

    def evaluate(self, values: dict):
        """Evaluate with a scalar for every variable; returns a scalar."""
        vals = [values[name] for name in self.reg.names]
        shifts = self.reg._shifts
        total = 0
        for k, c in self.terms.items():
            term = c
            for v, sh in zip(vals, shifts):
                e = (k >> sh) & VAR_MASK
                if e:
                    term = term * v ** e
            total = total + term
        return total

    def eliminate(self, name: str, value) -> "MultiPoly":
        """Substitute a scalar for one variable; result drops that variable."""
        i = self.reg.index(name)
        new_reg = VarRegistry(self.reg.names[:i] + self.reg.names[i + 1:])
        sh = self.reg._shifts[i]
        out: dict = {}
        for k, c in self.terms.items():
            exps = self.reg.unpack(k)
            e = exps[i]
            c2 = c * value ** e if e else c
            if not c2:
                continue
            k2 = new_reg.pack(exps[:i] + exps[i + 1:])
            acc = out.get(k2)
            if acc is None:
                out[k2] = c2
            else:
                acc = acc + c2
                if acc:
                    out[k2] = acc
                else:
                    del out[k2]
        return MultiPoly(new_reg, out)

    def by_var(self, name: str) -> dict[int, "MultiPoly"]:
        """Coefficient polynomials with respect to one variable.

        Returns {exponent: polynomial over the registry without name}.
        """
        i = self.reg.index(name)
        new_reg = VarRegistry(self.reg.names[:i] + self.reg.names[i + 1:])
        buckets: dict[int, dict] = {}
        for k, c in self.terms.items():
            exps = self.reg.unpack(k)
            e = exps[i]
            k2 = new_reg.pack(exps[:i] + exps[i + 1:])
            buckets.setdefault(e, {})[k2] = c
        return {e: MultiPoly(new_reg, t) for e, t in sorted(buckets.items())}

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        return self.by_var(name).get(
            power, MultiPoly.zero(VarRegistry(tuple(
                n for n in self.reg.names if n != name))))

    def lift(self, new_reg: VarRegistry) -> "MultiPoly":
        """Re-encode over a registry containing all current variables."""
        if new_reg.names == self.reg.names:
            return self
        positions = [new_reg.index(n) for n in self.reg.names]
        out = {}
        n2 = new_reg.nvars
        for k, c in self.terms.items():
            exps = self.reg.unpack(k)
            e2 = [0] * n2
            for p, e in zip(positions, exps):
                e2[p] = e
            out[new_reg.pack(e2)] = c
        return MultiPoly(new_reg, out)

    # ---- text form ----

    def to_text(self) -> str:
        """Canonical text: graded-lex descending, e.g. 3*x_0^2*x_1 - 2*lambda."""
        if not self.terms:
            return "0"
        names = self.reg.names
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            exps = self.reg.unpack(key)
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if isinstance(c, GaussianRational) and c.im != 0:
                cs = format_gaussian(c)
                body = f"{cs}*{mono}" if mono else cs
                parts.append(("+", body))
                continue
            neg = c < 0
            mag = -c if neg else c
            ms = str(_norm_rat(mag))
            if mono and ms == "1":
                body = mono
            elif mono:
                body = f"{ms}*{mono}"
            else:
                body = ms
            parts.append(("-" if neg else "+", body))
        sign0, body0 = parts[0]
        out = [body0 if sign0 == "+" else f"-{body0}"]
        for sign, body in parts[1:]:
            out.append(f" {sign} {body}")
        return "".join(out)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


class PolyDomain:
    """Polynomial ring over an exact scalar domain, as a matrix domain."""

    exact = True

    def __init__(self, reg: VarRegistry, coeff=None):
        from .domains import QQ
        self.reg = reg
        self.coeff = coeff if coeff is not None else QQ
        if not self.coeff.exact:
            raise DomainMismatchError(
                "polynomial coefficients require an exact domain")
        self.zero = MultiPoly.zero(reg)
        self.one = MultiPoly.one(reg)
        self.name = f"{self.coeff.name}[{', '.join(reg.names)}]"

    def coerce(self, x):
        if isinstance(x, MultiPoly):
            if x.reg.names == self.reg.names:
                return x
            return x.lift(self.reg)
        return MultiPoly.const(self.reg, self.coeff.coerce(x))

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
        return a.is_zero

    def invert(self, a):
        if not a.is_constant() or a.is_zero:
            raise ZeroDivisionError("only nonzero constants invert in a polynomial ring")
        return MultiPoly.const(self.reg, _coeff_div(1, a.constant_value()))

    def exact_div(self, a, b):
        from .errors import ExactDivisionError
        q = a.exact_div(b)
        if q is None:
            raise ExactDivisionError("division expected to be exact left a remainder")
        return q

    def size(self, a):
        return len(a.terms)

    def __repr__(self):
        return self.name
