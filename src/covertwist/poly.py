"""Sparse multivariate polynomials with exact coefficients.

A monomial is packed into a single integer: 16 bits per variable with
the total degree in the topmost field.  Monomial multiplication is then
integer addition and graded-lex comparison is integer comparison, which
keeps fraction-free elimination over these rings fast enough for the
symbolic covers handled here.

Coefficients are int, Fraction or Cyclotomic (QQ(i) is the order 4);
zero coefficients are never stored, so the zero polynomial has an empty
term dict and equality is plain dict comparison.  The text form wraps
every Cyclotomic coefficient in parentheses: (1-i)*x + (zeta_5).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .domains import QQ, Cyclotomic, _Field, _rat_div, coeff_is_integer
from .errors import DivisionByZeroPolyError, RegistryMismatchError

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

    def without_var(self, name: str):
        """(registry without name, cut) where cut(key, e) re-encodes a
        key whose exponent of name is e over that registry: the fields
        above name's, total degree included, shift down one field and e
        comes off the total degree."""
        i = self.index(name)
        reduced = VarRegistry(self.names[:i] + self.names[i + 1:])
        sh = self._shifts[i]
        high = sh + VAR_BITS
        low = (1 << sh) - 1
        deg_shift = reduced._deg_shift

        def cut(key: int, e: int) -> int:
            return ((key >> high) << sh | (key & low)) - (e << deg_shift)

        return reduced, cut

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


# Fraction last: isinstance against its ABC is slow
_SCALARS = (int, Cyclotomic, Fraction)


def _same_registry(a: "MultiPoly", b: "MultiPoly") -> None:
    if a.reg.names != b.reg.names:
        raise RegistryMismatchError(
            f"registries differ: {a.reg.names} vs {b.reg.names}")


def _coeff_div(a, b):
    """Exact coefficient division in QQ, QQ(i) or Q(zeta_N)."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return _rat_div(a, b)
    return a / b


def _add_product(out: dict, a: dict, b: dict) -> None:
    """Add the product of the term dicts a and b into out, in place.

    This is the one product loop of the module.  Keys add fieldwise
    with no carry check: the caller proves that no product key has a
    total degree past MAX_EXP, and then no field carries, since every
    exponent is at most the total degree.  MultiPoly.__mul__ checks the
    sum of the two total degrees; the Berkowitz charpoly checks one
    bound for its whole run.  Every caller skips an empty factor."""
    if len(a) > len(b):
        a, b = b, a
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
    def from_coefficients(cls, reg: VarRegistry, var: str,
                          coeffs: Sequence["MultiPoly"]) -> "MultiPoly":
        """The sum of coeffs[e] * var^e, over reg with var adjoined as
        its last variable; every coefficient is a polynomial over reg."""
        new_reg = reg.with_var(var)
        deg_shift = reg._deg_shift
        low = (1 << deg_shift) - 1
        out = {}
        for e, c in enumerate(coeffs):
            if c.reg.names != reg.names:
                raise RegistryMismatchError(
                    f"registries differ: {c.reg.names} vs {reg.names}")
            for k, v in c.terms.items():
                total = (k >> deg_shift) + e
                if total > MAX_EXP:
                    raise OverflowError(
                        f"degree {total} exceeds the exponent limit {MAX_EXP}")
                out[(k & low) << VAR_BITS | e
                    | total << new_reg._deg_shift] = v
        return cls(new_reg, out)

    # ---- predicates ----

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as 0 is for a scalar."""
        return bool(self.terms)

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
            if isinstance(other, _SCALARS):
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
            if isinstance(other, _SCALARS):
                other = MultiPoly.const(self.reg, other)
            else:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, _SCALARS):
                if not other:
                    return MultiPoly(self.reg, {})
                return MultiPoly(self.reg,
                                 {k: c * other for k, c in self.terms.items()})
            return NotImplemented
        _same_registry(self, other)
        a, b = self.terms, other.terms
        out: dict = {}
        if a and b:
            shift = self.reg._deg_shift
            if (max(a) >> shift) + (max(b) >> shift) > MAX_EXP:
                raise OverflowError(
                    f"product degree exceeds the exponent limit {MAX_EXP}")
            _add_product(out, a, b)
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
        # The remainder's keys wait in a max-heap of negated keys.  A
        # key whose term cancels stays in the heap and is skipped when
        # popped; subtracting cq*other only makes keys below the one
        # just divided, so the top of the heap is the leading key.
        rem = dict(self.terms)
        heap = [-k for k in rem]
        heapify(heap)
        q: dict = {}
        tail = [(k, c) for k, c in other.terms.items() if k != kb]
        divides = self.reg.key_divides
        while heap:
            kr = -heappop(heap)
            cr = rem.pop(kr, None)
            if cr is None:
                continue
            if not divides(kb, kr):
                return None
            cq = _coeff_div(cr, cb)
            kq = kr - kb
            q[kq] = cq
            for k2, c2 in tail:
                k = kq + k2
                c = cq * c2
                acc = rem.get(k)
                if acc is None:
                    rem[k] = -c
                    heappush(heap, -k)
                else:
                    acc = acc - c
                    if acc:
                        rem[k] = acc
                    else:
                        del rem[k]
        return MultiPoly(self.reg, q)

    # ---- substitution ----

    def eliminate(self, name: str, value) -> "MultiPoly":
        """Substitute a scalar for one variable; result drops that variable."""
        new_reg, cut = self.reg.without_var(name)
        sh = self.reg._shifts[self.reg.index(name)]
        out: dict = {}
        for k, c in self.terms.items():
            e = (k >> sh) & VAR_MASK
            c2 = c * value ** e if e else c
            if not c2:
                continue
            k2 = cut(k, e)
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

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """The coefficient of name^power, over the registry without name.

        One pass over the terms, building no other coefficient: only the
        keys whose exponent of name is power are re-encoded."""
        new_reg, cut = self.reg.without_var(name)
        sh = self.reg._shifts[self.reg.index(name)]
        return MultiPoly(new_reg, {cut(k, power): c
                                   for k, c in self.terms.items()
                                   if (k >> sh) & VAR_MASK == power})

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
        """Canonical text: graded-lex descending, e.g. 3*x_0^2*x_1 - 2*lambda.

        A key's variable fields split into a high half (variable 0, the
        highest field below the total degree, first) and a low half, and
        each half's text, every factor led by "*", comes from a table of
        this call: a half is read field by field only the first time it
        occurs.  A term's monomial is its two halves' texts joined."""
        terms = self.terms
        if not terms:
            return "0"
        names = self.reg.names[::-1]   # by field, lowest first
        low_mask = (1 << len(names) // 2 * VAR_BITS) - 1
        high_mask = ((1 << self.reg._deg_shift) - 1) ^ low_mask

        def factors(rest: int) -> str:
            out = []
            while rest:
                sh = (rest.bit_length() - 1) // VAR_BITS * VAR_BITS
                e = rest >> sh
                rest ^= e << sh
                name = names[sh // VAR_BITS]
                out.append(f"*{name}" if e == 1 else f"*{name}^{e}")
            return "".join(out)

        highs = {0: ""}
        lows = {0: ""}
        parts = []
        append = parts.append
        for key in sorted(terms, reverse=True):
            c = terms[key]
            half = key & high_mask
            mono = highs.get(half)
            if mono is None:
                mono = highs[half] = factors(half)
            half = key & low_mask
            text = lows.get(half)
            if text is None:
                text = lows[half] = factors(half)
            mono += text
            if isinstance(c, Cyclotomic):   # nonreal or irrational
                append(f" + ({c}){mono}")
            elif c < 0:   # a Fraction n/1 prints as n
                append(f" - {-c!s}{mono}" if c != -1 or not mono
                       else f" - {mono[1:]}")
            else:
                append(f" + {c!s}{mono}" if c != 1 or not mono
                       else f" + {mono[1:]}")
        first = parts[0]
        parts[0] = f"-{first[3:]}" if first[1] == "-" else first[3:]
        return "".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


class PolyDomain(_Field):
    """Polynomial ring over a scalar domain, as a matrix domain: the
    scalar domains' operators, with its own zero, one and units."""

    def __init__(self, reg: VarRegistry, coeff=None):
        self.reg = reg
        self.coeff = coeff if coeff is not None else QQ
        self.zero = MultiPoly.zero(reg)
        self.one = MultiPoly.one(reg)
        self.name = f"{self.coeff.name}[{', '.join(reg.names)}]"

    def coerce(self, x):
        if isinstance(x, MultiPoly):
            if x.reg.names == self.reg.names:
                return x
            return x.lift(self.reg)
        return MultiPoly.const(self.reg, self.coeff.coerce(x))

    def invert(self, a):
        if not a.is_constant() or a.is_zero:
            raise ZeroDivisionError("only nonzero constants invert in a polynomial ring")
        return MultiPoly.const(self.reg, _coeff_div(1, a.constant_value()))
