"""Dense matrices over a scalar domain, with exact determinant machinery.

One exact kernel serves each kind of domain, for determinants and
characteristic polynomials alike:

* Characteristic polynomials of QQ and QQ(i) matrices, the cyclotomic
  fields of order 1 and 4, are computed multi-modularly: denominators
  are cleared, the integer (or Gaussian integer, read off the two
  coordinates of each QQ(i) entry) matrix is reduced to Hessenberg
  form modulo a prime, and the Hessenberg recurrence gives the
  charpoly modulo that prime.  A Hadamard bound B on every coefficient
  fixes the primes in advance: their product exceeds 2B + 1, so the
  result is proved exact, not guessed, since no coefficient of absolute
  value at most B can be confused with another.  The primes are Proth primes, proved prime by
  Proth's theorem, sized to the bound: a bound up to 240 bits takes one
  prime and one Hessenberg run, and only a larger one splits over
  several primes whose residues the Chinese remainder theorem combines.
  The Hessenberg kernel skips zero entries in its reduction and runs
  its recurrence on packed integers, one coefficient per bit field.
* Characteristic polynomials of matrices with polynomial entries take
  the Samuelson-Berkowitz recurrence over the entries' own ring (QQ[x],
  QQ(i)[x] or Q(zeta_N)[x]): inner products and convolutions only, no
  division, and the charpoly variable is adjoined only to the finished
  coefficients.  Berkowitz works over any commutative ring, so a
  matrix over any other cyclotomic field Q(zeta_N) takes it too, as
  constant polynomials in no variable.
* Exact determinants are read off those kernels: det(m) = (-1)^n * c_0
  for the constant coefficient c_0 of det(x*I - m), so they carry the
  same proved bound, and the polynomial kernel adjoins no variable.
* Series determinants det(I - u*B) of the zeta layer are not computed
  here as determinants over QQ[u]: zeta reverses charpoly(B, "u"), since
  det(I - u*B) = u^n * charpoly(B)(1/u), so they take the charpoly route
  of B's own domain.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from math import isqrt, lcm

from .domains import Cyclotomic, CyclotomicDomain, _make, _norm_rat
from .errors import (
    DomainMismatchError,
    NotSkewSymmetricError,
    NotSquareError,
    OddDimensionError,
    TooLargeForExactExpansionError,
)
from .poly import MultiPoly, PolyDomain, VarRegistry, sum_of_products

PFAFFIAN_EXACT_CAP = 16


class Matrix:
    """Row-major dense matrix over a domain."""

    __slots__ = ("domain", "nrows", "ncols", "data")

    def __init__(self, domain, data: list[list]):
        self.domain = domain
        self.data = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0

    @classmethod
    def identity(cls, domain, n: int) -> "Matrix":
        z, o = domain.zero, domain.one
        return cls(domain, [[o if i == j else z for j in range(n)]
                            for i in range(n)])

    @classmethod
    def zeros(cls, domain, nrows: int, ncols: int) -> "Matrix":
        z = domain.zero
        return cls(domain, [[z] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def _check_same_domain(self, other: "Matrix"):
        if self.domain is not other.domain and \
                getattr(self.domain, "name", None) != getattr(other.domain, "name", None):
            raise DomainMismatchError(
                f"matrix domains differ: {self.domain!r} vs {other.domain!r}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_domain(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix addition")
        add = self.domain.add
        return Matrix(self.domain,
                      [[add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_domain(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix subtraction")
        sub = self.domain.sub
        return Matrix(self.domain,
                      [[sub(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        neg = self.domain.neg
        return Matrix(self.domain,
                      [[neg(a) for a in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_domain(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        dom = self.domain
        is_zero = dom.is_zero
        add = dom.add
        mul = dom.mul
        zero = dom.zero
        ncols = other.ncols
        # row k of other as its nonzero (column, entry) pairs: the work is
        # one product per pair of nonzeros that meet, and each entry of
        # the result still sums its terms in ascending k
        b_rows = [[(j, y) for j, y in enumerate(row) if not is_zero(y)]
                  for row in other.data]
        out = []
        for row in self.data:
            orow = [zero] * ncols
            for k, x in enumerate(row):
                if is_zero(x):
                    continue
                for j, y in b_rows[k]:
                    orow[j] = add(orow[j], mul(x, y))
            out.append(orow)
        return Matrix(dom, out)

    def scale(self, c) -> "Matrix":
        mul = self.domain.mul
        c = self.domain.coerce(c)
        return Matrix(self.domain,
                      [[mul(c, a) for a in row] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(self.domain, [list(col) for col in zip(*self.data)])

    def eq(self, other: "Matrix") -> bool:
        if self.shape != other.shape:
            return False
        deq = self.domain.eq
        return all(deq(a, b) for ra, rb in zip(self.data, other.data)
                   for a, b in zip(ra, rb))

    def trace(self):
        if not self.is_square():
            raise NotSquareError("trace of a non-square matrix")
        acc = self.domain.zero
        add = self.domain.add
        for i in range(self.nrows):
            acc = add(acc, self.data[i][i])
        return acc

    def is_skew_symmetric(self) -> bool:
        if not self.is_square():
            return False
        eq = self.domain.eq
        neg = self.domain.neg
        for i in range(self.nrows):
            if not eq(self.data[i][i], self.domain.zero):
                return False
            for j in range(i + 1, self.ncols):
                if not eq(self.data[i][j], neg(self.data[j][i])):
                    return False
        return True

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.domain!r})"


def direct_sum_matrices(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_domain(b)
    z = a.domain.zero
    out = [row[:] + [z] * b.ncols for row in a.data]
    out += [[z] * a.ncols + row[:] for row in b.data]
    return Matrix(a.domain, out)


# ---------------------------------------------------------------------------
# multi-modular characteristic polynomials over QQ and QQ(i)

# Each Hessenberg run works modulo one prime of at most _RUN_BITS bits:
# the cost of a run is flat in the prime's size up to a few hundred bits
# and rises beyond, so a bound up to _RUN_BITS takes a single run and no
# Chinese remaindering.  Prime sizes are multiples of CPython's 30-bit
# int digit.
_RUN_BITS = 240
_DIGIT_BITS = 30


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _proth_witness(p: int) -> int | None:
    """For a Proth number p = k*2^m + 1 (k odd, k < 2^m): the least odd
    a >= 3 with Jacobi symbol (a/p) = -1 if p is prime, else None.

    Proth's theorem: p is prime iff a^((p-1)/2) = -1 (mod p) for some a,
    and for a prime p every a with (a/p) = -1 is such an a (Euler's
    criterion), so one power decides.  Such an a exists unless p is a
    perfect square, where (a/p) is never -1."""
    r = isqrt(p)
    if r * r == p:
        return None
    a = 3
    while _jacobi(a, p) != -1:
        a += 2
    return a if pow(a, (p - 1) >> 1, p) == p - 1 else None


_PROTH_PRIMES: dict[int, list[tuple[int, int]]] = {}


def _proth_prime(bits: int, index: int) -> tuple[int, int]:
    """(p, s): the index-th prime p = k*2^m + 1 >= 2^bits, ascending, with
    m = bits // 2 + 1 and k odd, k < 2^m, and s with s^2 = -1 (mod p).
    Found on first use and cached, never at import.

    p = 1 (mod 4), so p splits in ZZ[i] and the same primes serve QQ
    (s is ignored) and QQ(i) (i maps to s and to -s)."""
    found = _PROTH_PRIMES.setdefault(bits, [])
    m = bits // 2 + 1
    while len(found) <= index:
        k = (found[-1][0] >> m) + 2 if found else (1 << bits - m) + 1
        while (a := _proth_witness((k << m) + 1)) is None:
            k += 2
        if k >> m:   # past the Proth range, where the test proves nothing
            raise ArithmeticError(f"no {index}-th Proth prime of {bits} bits")
        p = (k << m) + 1
        found.append((p, pow(a, (p - 1) >> 2, p)))
    return found[index]


def _hessenberg_charpoly(h: list[list[int]], p: int) -> list[int]:
    """Coefficients, ascending, of det(x*I - h) modulo the prime p.

    h holds residues in [0, p) and is overwritten.  It is first brought
    to upper Hessenberg form by similarity transforms (a column with no
    nonzero entry below the subdiagonal is already reduced and is
    skipped), then the recurrence of Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9, expands the determinant.

    Both stages skip zeros.  Step j of the reduction takes the pivot
    row's nonzero (column, value) pairs once, after the row swap, and
    updates each eliminated row on those columns only; the matching
    column update adds only the nonzero entries of the eliminated
    columns.

    The recurrence p_m = (x - h[m-1][m-1]) * p_(m-1)
    - sum_i h[i-1][m-1] * t_i * p_(i-1), with t_i the product of the
    subdiagonal entries h[i][i-1] ... h[m-1][m-2], runs on packed
    integers: p_m is the single int sum_k c_k * 2^(k*w), with every
    c_k in [0, p) and w = 2*bitlen(p) + bitlen(n + 1).  Then x * p_(m-1)
    is a shift by w, and each product by a residue -h[m-1][m-1] or
    -h[i-1][m-1] * t_i mod p, in [0, p), is one multiply-add of ints.
    No carry crosses a field: field k of the sum is c_(k-1) of
    p_(m-1), at most p - 1, plus at most m products of two residues,
    one for the diagonal and one for each i < m, each at most (p - 1)^2.
    So every field stays at most
        (p - 1) + m*(p - 1)^2 <= (m + 1)*(p - 1)^2 < (n + 1)*p^2
        < 2^bitlen(n + 1) * 2^(2*bitlen(p)) = 2^w
    (using p - 1 <= (p - 1)^2 and m <= n).  Each field of the sum is
    then a nonnegative integer congruent to its coefficient of p_m, and
    reducing each field mod p, once per m, gives p_m packed again.  The
    products have degree below m, so the top field m is the leading 1
    of p_(m-1): the fields are peeled off from the bottom until nothing
    is left, and every p_m, monic, has exactly m + 1 fields."""
    n = len(h)
    for j in range(n - 2):
        for piv in range(j + 1, n):
            if h[piv][j]:
                break
        else:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        prow = h[j + 1]
        inv = pow(prow[j], -1, p)
        terms = [(c, y) for c, y in enumerate(prow[j:], j) if y]
        elim = []
        for r in range(j + 2, n):
            row = h[r]
            x = row[j]
            if x:
                u = x * inv % p
                for c, y in terms:
                    row[c] = (row[c] - u * y) % p
                elim.append((r, u))
        if elim:
            for row in h:
                acc = row[j + 1]
                for r, u in elim:
                    x = row[r]
                    if x:
                        acc += u * x
                row[j + 1] = acc % p
    w = 2 * p.bit_length() + (n + 1).bit_length()
    mask = (1 << w) - 1
    polys = [1]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        acc = (prev << w) + (-h[m - 1][m - 1] % p) * prev
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * h[i][i - 1] % p
            if not t:
                break
            f = h[i - 1][m - 1] * t % p
            if f:
                acc += (p - f) * polys[i - 1]
        packed = 0
        k = 0
        while acc:   # the top field is 1, so this ends after field m
            packed |= (acc & mask) % p << k
            acc >>= w
            k += w
        polys.append(packed)
    coeffs = []
    acc = polys[n]
    while acc:
        coeffs.append(acc & mask)
        acc >>= w
    return coeffs


def _cleared(m: Matrix) -> tuple[int, list[list[int]], list[list[int]] | None]:
    """(D, re, im): D the lcm of the entry denominators and D*m split into
    integer real and imaginary parts; im is None when every entry is
    real.  A QQ matrix is read as it is: no pair per entry, and with
    integer entries (D = 1) no rescaling."""
    if m.domain.conductor == 4:
        parts = [[x.c if isinstance(x, Cyclotomic) else (x, 0) for x in row]
                 for row in m.data]
        d = lcm(1, *(q.denominator for row in parts for pair in row
                     for q in pair))
        im = [[int(b * d) for _, b in row] for row in parts]
        return (d, [[int(a * d) for a, _ in row] for row in parts],
                im if any(any(row) for row in im) else None)
    d = lcm(1, *{x.denominator for row in m.data for x in row})
    if d == 1:
        return 1, [list(map(int, row)) for row in m.data], None
    return d, [[int(x * d) for x in row] for row in m.data], None


def _charpoly_multimodular(m: Matrix) -> list:
    """Coefficients c_0, ..., c_n of det(x*I - m), ascending, for a
    matrix over QQ or QQ(i), exactly.

    With D the lcm of the entry denominators, the coefficient c_k of
    x^(n-k) in the charpoly of the (Gaussian) integer matrix D*m is a
    signed sum of k x k principal minors, so Hadamard's inequality gives
    |c_k| <= e_k(|r_1|, ..., |r_n|) <= prod(1 + ceil|r_i|) = B over the
    row norms |r_i|.  With L the bit length of 2B + 1, the kernel runs
    ceil(L / 240) Hessenberg reductions, each modulo its own prime of
    at least L / runs bits rounded up to a multiple of 30, so that the
    product M of the primes exceeds 2B + 1; the count is fixed before
    the first run.  The symmetric residue modulo M is then c_k itself
    (for QQ(i), its real and imaginary parts, each at most |c_k|), and
    the charpoly of m has coefficients c_k / D^k.  One prime needs no
    recombination; several are combined by Garner's form of the Chinese
    remainder theorem."""
    n = m.nrows
    d, re, im = _cleared(m)
    bound = 1
    for k, r_re in enumerate(re):
        sq = sum(map(operator.mul, r_re, r_re))
        if im is not None:
            sq += sum(map(operator.mul, im[k], im[k]))
        root = isqrt(sq)
        bound *= 1 + root + (root * root < sq)

    def image(root, p):
        """D*m modulo p with i mapped to root."""
        if im is None:
            return [[a % p for a in row] for row in re]
        return [[(a + root * b) % p for a, b in zip(ra, rb)]
                for ra, rb in zip(re, im)]

    def residues(p, s):
        """The charpoly of D*m modulo p: its real and imaginary parts,
        the latter None for a real matrix."""
        plus = _hessenberg_charpoly(image(s, p), p)
        if im is None:
            return plus, None
        minus = _hessenberg_charpoly(image(-s, p), p)
        half = pow(2, -1, p)
        half_s = pow(2 * s, -1, p)
        return ([(x + y) * half % p for x, y in zip(plus, minus)],
                [(x - y) * half_s % p for x, y in zip(plus, minus)])

    size = (2 * bound + 1).bit_length()
    runs = -(-size // _RUN_BITS)
    bits = -(-size // (runs * _DIGIT_BITS)) * _DIGIT_BITS
    p, s = _proth_prime(bits, 0)
    acc_re, acc_im = residues(p, s)
    modulus = p
    for index in range(1, runs):
        p, s = _proth_prime(bits, index)
        res_re, res_im = residues(p, s)
        inv = pow(modulus, -1, p)

        def garner(acc, res):   # the value mod modulus*p matching both
            return [x + modulus * ((r - x) * inv % p)
                    for x, r in zip(acc, res)]

        acc_re = garner(acc_re, res_re)
        if acc_im is not None:
            acc_im = garner(acc_im, res_im)
        modulus *= p
    half_m = modulus // 2
    coeffs = [0] * (n + 1)
    scale = 1
    for power in range(n, -1, -1):
        x = acc_re[power]
        y = acc_im[power] if acc_im is not None else 0
        x = x - modulus if x > half_m else x
        y = y - modulus if y > half_m else y
        c = x if scale == 1 else _norm_rat(Fraction(x, scale))
        coeffs[power] = _make(4, [c, Fraction(y, scale)]) if y else c
        scale *= d
    return coeffs


def _charpoly_berkowitz(m: Matrix) -> list:
    """Coefficients c_0, ..., c_n of det(x*I - m), ascending, for
    polynomial entries, with no division at all.

    Samuelson-Berkowitz recurrence (Berkowitz 1984; Rote 2001, "Division-
    free algorithms for the determinant and the Pfaffian"): write the
    leading r x r block as [[A, C], [R, a]], A of order r - 1.  Its
    charpoly coefficients, highest power first, are the first r + 1
    terms of the convolution of the Toeplitz column
    [1, -a, -R*C, -R*A*C, ..., -R*A^(r-2)*C] with those of A.  Every
    value stays in the entries' own ring, x is never adjoined, and every
    inner product and convolution term is summed by sum_of_products in
    one term dict."""
    dom = m.domain
    reg = dom.reg
    n = m.nrows
    a = [[dom.coerce(x) for x in row] for row in m.data]
    nonzero = [[(j, x) for j, x in enumerate(row) if x.terms] for row in a]
    coeffs = [dom.one]
    for r in range(n):   # the block of order r + 1: C is column r, R row r
        block = [[(j, x) for j, x in nonzero[i] if j < r] for i in range(r)]
        row = [(j, x) for j, x in nonzero[r] if j < r]
        v = [a[i][r] for i in range(r)]
        t = [dom.one, -a[r][r]]
        for k in range(r):
            if k:
                v = [sum_of_products(reg, [(x, v[j]) for j, x in brow])
                     for brow in block]
            t.append(-sum_of_products(reg, [(x, v[j]) for j, x in row]))
        coeffs = [sum_of_products(reg, [(t[k - j], coeffs[j])
                                        for j in range(max(0, k - r - 1),
                                                       min(k, r) + 1)])
                  for k in range(r + 2)]
    return coeffs[::-1]


def _charpoly_coeffs(m: Matrix) -> list:
    """Coefficients c_0, ..., c_n of det(x*I - m), ascending, in m's own
    domain, from the exact kernel of that domain."""
    dom = m.domain
    if isinstance(dom, PolyDomain):
        return _charpoly_berkowitz(m)
    if isinstance(dom, CyclotomicDomain):
        if dom.conductor in (1, 4):
            return _charpoly_multimodular(m)
        consts = PolyDomain(VarRegistry(()), dom)
        return [c.constant_value()
                for c in _charpoly_berkowitz(Matrix(consts, m.data))]
    raise DomainMismatchError(f"no charpoly kernel for {dom!r}")


def charpoly(m: Matrix, var: str = "lambda") -> MultiPoly:
    """det(var*I - m) as an exact polynomial, monic of degree n.

    QQ and QQ(i) matrices take the multi-modular Hessenberg route above,
    whose prime count comes from a proved coefficient bound.  Matrices
    with polynomial or cyclotomic entries take the division-free
    Berkowitz recurrence over their own ring; var is adjoined to its
    n + 1 coefficients at the end.  Either way the result must come out
    monic.
    """
    if not m.is_square():
        raise NotSquareError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    dom = m.domain
    coeffs = _charpoly_coeffs(m)
    if not dom.eq(coeffs[n], dom.one):
        raise ArithmeticError("characteristic polynomial came out non-monic")
    if isinstance(dom, PolyDomain):
        return MultiPoly.from_coefficients(dom.reg, var, coeffs)
    reg = VarRegistry((var,))
    return MultiPoly(reg, {reg.pack((k,)): coeffs[k]
                           for k in range(n, -1, -1) if coeffs[k]})


def det(m: Matrix):
    """Determinant, (-1)^n times the constant coefficient of the charpoly.

    Each domain takes its charpoly kernel: Hessenberg modulo primes
    whose product exceeds twice the proved Hadamard bound, for QQ and
    QQ(i), and the division-free Berkowitz recurrence for polynomial and
    cyclotomic entries.  No variable is adjoined, so entries may already
    hold lambda."""
    if not m.is_square():
        raise NotSquareError("determinant of a non-square matrix")
    c0 = _charpoly_coeffs(m)[0]
    return m.domain.neg(c0) if m.nrows % 2 else c0


def inverse(m: Matrix) -> Matrix:
    """Inverse over a field domain (QQ, QQ(i), Q(zeta_N)) by Gauss-Jordan."""
    if not m.is_square():
        raise NotSquareError("inverse of a non-square matrix")
    dom = m.domain
    n = m.nrows
    a = [row[:] + [dom.one if i == j else dom.zero for j in range(n)]
         for i, row in enumerate(m.data)]
    for k in range(n):
        pivot_row = -1
        for i in range(k, n):
            if not dom.is_zero(a[i][k]):
                pivot_row = i
                break
        if pivot_row < 0:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
        inv_p = dom.invert(a[k][k])
        a[k] = [dom.mul(inv_p, x) for x in a[k]]
        for i in range(n):
            if i == k:
                continue
            f = a[i][k]
            if dom.is_zero(f):
                continue
            a[i] = [dom.sub(x, dom.mul(f, y)) for x, y in zip(a[i], a[k])]
    return Matrix(dom, [row[n:] for row in a])


def _pfaffian_exact(m: Matrix):
    dom = m.domain
    data = m.data
    mul = dom.mul
    is_zero = dom.is_zero

    @cache
    def pf(active: tuple[int, ...]):
        if not active:
            return dom.one
        i0 = active[0]
        rest = active[1:]
        acc = dom.zero
        sgn = 1
        for t, j in enumerate(rest):
            x = data[i0][j]
            if not is_zero(x):
                sub = rest[:t] + rest[t + 1:]
                term = mul(x, pf(sub))
                acc = dom.add(acc, term if sgn > 0 else dom.neg(term))
            sgn = -sgn
        return acc

    return pf(tuple(range(m.nrows)))


def pfaffian(m: Matrix):
    """Pfaffian of a skew-symmetric matrix; sign convention Pf([[0,a],[-a,0]]) = a.

    Recursive first-row expansion with memoization, capped at 16x16.
    """
    if not m.is_square():
        raise NotSquareError("pfaffian of a non-square matrix")
    if m.nrows % 2 != 0:
        raise OddDimensionError("pfaffian needs even dimension")
    if not m.is_skew_symmetric():
        raise NotSkewSymmetricError("pfaffian needs a skew-symmetric matrix")
    check_pfaffian_order(m.nrows)
    return _pfaffian_exact(m)


def check_pfaffian_order(n: int) -> None:
    """TooLargeForExactExpansionError when an order-n Pfaffian is past
    the cap of the exact expansion."""
    if n > PFAFFIAN_EXACT_CAP:
        raise TooLargeForExactExpansionError(
            f"exact pfaffian capped at "
            f"{PFAFFIAN_EXACT_CAP}x{PFAFFIAN_EXACT_CAP}")
