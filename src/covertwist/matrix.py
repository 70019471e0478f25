"""Dense matrices over a scalar domain, with exact determinant machinery.

Which algorithm runs depends on the domain of the entries:

* Determinants over an exact domain (QQ, QQ(i), polynomial rings) use
  fraction-free (Bareiss) elimination, whose divisions are exact in any
  integral domain; the floating complex domain uses partially pivoted LU.
* Characteristic polynomials of QQ and QQ(i) matrices are computed
  multi-modularly: denominators are cleared, the integer (or Gaussian
  integer) matrix is reduced to Hessenberg form modulo 61-bit primes, the
  Hessenberg recurrence gives the charpoly modulo each prime, and the
  residues are combined by the Chinese remainder theorem.  A Hadamard
  bound on every coefficient fixes the number of primes in advance, so
  the result is proved exact, not guessed: no coefficient of absolute
  value at most B can be confused with another once the product of the
  primes exceeds 2B + 1.
* Characteristic polynomials of matrices with polynomial entries are
  determinants over the ring with the variable adjoined, by Bareiss.
  Floating matrices have no exact charpoly (see charpoly_coeffs_numeric).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt, lcm

from .domains import (ComplexDomain, GaussianRational, GaussianRationalDomain,
                      RationalDomain, _norm_rat)
from .errors import (
    DomainMismatchError,
    NotSkewSymmetricError,
    NotSquareError,
    OddDimensionError,
    TooLargeForExactExpansionError,
)
from .poly import MultiPoly, PolyDomain, VarRegistry

PFAFFIAN_EXACT_CAP = 16


class Matrix:
    """Row-major dense matrix over a domain."""

    __slots__ = ("domain", "nrows", "ncols", "data", "block_size")

    def __init__(self, domain, data: list[list], block_size: int = 1):
        self.domain = domain
        self.data = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        self.block_size = block_size

    @classmethod
    def from_rows(cls, domain, rows, block_size: int = 1) -> "Matrix":
        data = [[domain.coerce(x) for x in row] for row in rows]
        widths = {len(r) for r in data}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        return cls(domain, data, block_size)

    @classmethod
    def identity(cls, domain, n: int, block_size: int = 1) -> "Matrix":
        z, o = domain.zero, domain.one
        return cls(domain, [[o if i == j else z for j in range(n)]
                            for i in range(n)], block_size)

    @classmethod
    def zeros(cls, domain, nrows: int, ncols: int, block_size: int = 1) -> "Matrix":
        z = domain.zero
        return cls(domain, [[z] * ncols for _ in range(nrows)], block_size)

    def copy(self) -> "Matrix":
        return Matrix(self.domain, [row[:] for row in self.data], self.block_size)

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
                       for ra, rb in zip(self.data, other.data)],
                      self.block_size)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_domain(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix subtraction")
        sub = self.domain.sub
        return Matrix(self.domain,
                      [[sub(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)],
                      self.block_size)

    def __neg__(self) -> "Matrix":
        neg = self.domain.neg
        return Matrix(self.domain, [[neg(a) for a in row] for row in self.data],
                      self.block_size)

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
        bT = list(zip(*other.data))
        out = []
        for row in self.data:
            nz = [(k, x) for k, x in enumerate(row) if not is_zero(x)]
            orow = []
            for col in bT:
                acc = dom.zero
                for k, x in nz:
                    y = col[k]
                    if not is_zero(y):
                        acc = add(acc, mul(x, y))
                orow.append(acc)
            out.append(orow)
        return Matrix(dom, out, self.block_size)

    def scale(self, c) -> "Matrix":
        mul = self.domain.mul
        c = self.domain.coerce(c)
        return Matrix(self.domain, [[mul(c, a) for a in row] for row in self.data],
                      self.block_size)

    def transpose(self) -> "Matrix":
        return Matrix(self.domain, [list(col) for col in zip(*self.data)],
                      self.block_size)

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

    def submatrix(self, rows, cols) -> "Matrix":
        return Matrix(self.domain,
                      [[self.data[i][j] for j in cols] for i in rows],
                      self.block_size)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.domain!r})"


def direct_sum_matrices(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_domain(b)
    z = a.domain.zero
    out = [row[:] + [z] * b.ncols for row in a.data]
    out += [[z] * a.ncols + row[:] for row in b.data]
    return Matrix(a.domain, out)


def _det_bareiss(m: Matrix):
    """Fraction-free elimination; every division is exact in the domain."""
    dom = m.domain
    n = m.nrows
    if n == 0:
        return dom.one
    a = [row[:] for row in m.data]
    is_zero = dom.is_zero
    mul = dom.mul
    sub = dom.sub
    ediv = dom.exact_div
    size = dom.size
    sign = 1
    prev = dom.one
    for k in range(n - 1):
        # smallest nonzero pivot by the domain's size hint, ties by row
        pivot_row = -1
        best = None
        for i in range(k, n):
            x = a[i][k]
            if not is_zero(x):
                s = size(x)
                if best is None or s < best:
                    best = s
                    pivot_row = i
                    if s <= 1:
                        break
        if pivot_row < 0:
            return dom.zero
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        akk = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            if is_zero(aik):
                for j in range(k + 1, n):
                    row_i[j] = ediv(mul(akk, row_i[j]), prev)
            else:
                for j in range(k + 1, n):
                    row_i[j] = ediv(sub(mul(akk, row_i[j]), mul(aik, row_k[j])),
                                    prev)
            row_i[k] = dom.zero
        prev = akk
    out = a[n - 1][n - 1]
    return dom.neg(out) if sign < 0 else out


def _det_lu(m: Matrix):
    dom = m.domain
    n = m.nrows
    a = [[complex(x) for x in row] for row in m.data]
    det = 1 + 0j
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: abs(a[i][k]))
        if abs(a[pivot_row][k]) == 0.0:
            return 0j
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        akk = a[k][k]
        det *= akk
        for i in range(k + 1, n):
            f = a[i][k] / akk
            if f == 0:
                continue
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return det


def det(m: Matrix):
    """Determinant: Bareiss for exact domains, pivoted LU for floating."""
    if not m.is_square():
        raise NotSquareError("determinant of a non-square matrix")
    if m.domain.exact:
        return _det_bareiss(m)
    return _det_lu(m)


# ---------------------------------------------------------------------------
# multi-modular characteristic polynomials over QQ and QQ(i)

# Witnesses that make Miller-Rabin deterministic below 3.3e24 > 2^61.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _split_prime(k: int) -> tuple[int, int]:
    """(p, s): the k-th prime p = 1 (mod 4) below 2^61, descending, and
    s with s^2 = -1 (mod p).  Found on first use rather than at import.

    Such primes split in ZZ[i], so the same list serves QQ (s is
    ignored) and QQ(i) (i maps to s and to -s)."""
    p = _split_prime(k - 1)[0] - 4 if k else (1 << 61) - 3
    while not _is_prime(p):
        p -= 4
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:   # a quadratic non-residue
        a += 1
    return p, pow(a, (p - 1) // 4, p)


def _hessenberg_charpoly(h: list[list[int]], p: int) -> list[int]:
    """Coefficients, ascending, of det(x*I - h) modulo the prime p.

    h holds residues in [0, p) and is overwritten.  It is first brought
    to upper Hessenberg form by similarity transforms (a column with no
    nonzero entry below the subdiagonal is already reduced and is
    skipped), then the recurrence of Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9, expands the determinant."""
    n = len(h)
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        prow = h[j + 1][j:]
        elim = []
        for r in range(j + 2, n):
            row = h[r]
            if row[j]:
                u = row[j] * inv % p
                row[j:] = [(x - u * y) % p for x, y in zip(row[j:], prow)]
                elim.append((r, u))
        if elim:
            for row in h:
                row[j + 1] = (row[j + 1]
                              + sum(u * row[r] for r, u in elim)) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        d = h[m - 1][m - 1]
        new = [0] + prev
        for k, c in enumerate(prev):
            new[k] -= d * c
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * h[i][i - 1] % p
            if not t:
                break
            f = h[i - 1][m - 1] * t % p
            if f:
                for k, c in enumerate(polys[i - 1]):
                    new[k] -= f * c
        polys.append([c % p for c in new])
    return polys[n]


def _split_parts(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return x, 0


def _charpoly_multimodular(m: Matrix, var: str) -> MultiPoly:
    """det(var*I - m) for a matrix over QQ or QQ(i), exactly.

    With D the lcm of the entry denominators, the coefficient c_k of
    var^(n-k) in the charpoly of the (Gaussian) integer matrix D*m is a
    signed sum of k x k principal minors, so Hadamard's inequality gives
    |c_k| <= e_k(|r_1|, ..., |r_n|) <= prod(1 + ceil|r_i|) = B over the
    row norms |r_i|.  Primes are taken until their product M exceeds
    2B + 1; the symmetric residue modulo M is then c_k itself (for
    QQ(i), its real and imaginary parts, each at most |c_k|), and the
    charpoly of m has coefficients c_k / D^k."""
    n = m.nrows
    parts = [[_split_parts(x) for x in row] for row in m.data]
    d = lcm(1, *(q.denominator for row in parts for pair in row for q in pair))
    re = [[int(a * d) for a, _ in row] for row in parts]
    im = [[int(b * d) for _, b in row] for row in parts]
    gaussian = any(any(row) for row in im)
    bound = 1
    for r_re, r_im in zip(re, im):
        sq = sum(a * a for a in r_re) + sum(b * b for b in r_im)
        root = isqrt(sq)
        bound *= 1 + root + (root * root < sq)

    def image(root, p):
        """D*m modulo p with i mapped to root."""
        return [[(a + root * b) % p for a, b in zip(ra, rb)]
                for ra, rb in zip(re, im)]

    acc_re = [0] * (n + 1)
    acc_im = [0] * (n + 1)
    modulus = 1
    k = 0
    while modulus <= 2 * bound + 1:
        p, s = _split_prime(k)
        k += 1
        plus = _hessenberg_charpoly(image(s, p), p)
        inv = pow(modulus, -1, p)

        def garner(acc, res):   # the value mod modulus*p matching both
            return [x + modulus * ((r - x) * inv % p)
                    for x, r in zip(acc, res)]

        if gaussian:
            minus = _hessenberg_charpoly(image(-s, p), p)
            half = pow(2, -1, p)
            half_s = pow(2 * s, -1, p)
            acc_re = garner(acc_re, [(x + y) * half % p
                                     for x, y in zip(plus, minus)])
            acc_im = garner(acc_im, [(x - y) * half_s % p
                                     for x, y in zip(plus, minus)])
        else:
            acc_re = garner(acc_re, plus)
        modulus *= p
    half_m = modulus // 2
    reg = VarRegistry((var,))
    terms = {}
    scale = 1
    for power in range(n, -1, -1):
        x, y = acc_re[power], acc_im[power]
        x = x - modulus if x > half_m else x
        y = y - modulus if y > half_m else y
        if x or y:
            c = _norm_rat(Fraction(x, scale))
            if y:
                c = GaussianRational(c, Fraction(y, scale))
            terms[reg.pack((power,))] = c
        scale *= d
    return MultiPoly(reg, terms)


def charpoly(m: Matrix, var: str = "lambda") -> MultiPoly:
    """det(var*I - m) as an exact polynomial, monic of degree n.

    QQ and QQ(i) matrices take the multi-modular Hessenberg route above,
    whose prime count comes from a proved coefficient bound.  Matrices
    with polynomial entries take Bareiss elimination over the ring with
    var adjoined.  Floating matrices are rejected: use
    charpoly_coeffs_numeric.  Either way the result must come out monic.
    """
    if not m.is_square():
        raise NotSquareError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    dom = m.domain
    if isinstance(dom, (RationalDomain, GaussianRationalDomain)):
        p = _charpoly_multimodular(m, var)
    elif isinstance(dom, PolyDomain):
        pd = PolyDomain(dom.reg.with_var(var), dom.coeff)
        lam = MultiPoly.variable(pd.reg, var)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                e = pd.coerce(m.data[i][j])
                row.append(lam - e if i == j else -e)
            rows.append(row)
        p = _det_bareiss(Matrix(pd, rows))
    else:
        raise DomainMismatchError(
            "exact characteristic polynomials need an exact domain; "
            "use charpoly_coeffs_numeric for floating matrices")
    top = p.by_var(var).get(n)
    if top is None or not (top.is_constant() and top.constant_value() == 1):
        raise ArithmeticError("characteristic polynomial came out non-monic")
    return p


def charpoly_coeffs_numeric(m: Matrix) -> list[complex]:
    """Coefficients [c_0, ..., c_n] of det(x*I - m) over floating complex.

    Faddeev-LeVerrier recursion: exact divisions by integers only, so it
    is stable enough at the sizes used here.
    """
    if not m.is_square():
        raise NotSquareError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    a = [[complex(x) for x in row] for row in m.data]
    coeffs = [0j] * (n + 1)
    coeffs[n] = 1 + 0j
    mk = [[1 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # mk = a @ mk
        prod = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
        c = -sum(prod[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            prod[i][i] += c
        mk = prod
    return coeffs


def inverse(m: Matrix) -> Matrix:
    """Inverse over a field domain (QQ, QQ(i), CC) by Gauss-Jordan."""
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
    return Matrix(dom, [row[n:] for row in a], m.block_size)


def _pfaffian_exact(m: Matrix):
    dom = m.domain
    n = m.nrows
    if n == 0:
        return dom.one
    data = m.data
    from functools import lru_cache

    mul = dom.mul
    is_zero = dom.is_zero

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
                term = mul(x, _pf_cached(sub))
                acc = dom.add(acc, term if sgn > 0 else dom.neg(term))
            sgn = -sgn
        return acc

    @lru_cache(maxsize=None)
    def _pf_cached(active: tuple[int, ...]):
        return pf(active)

    return pf(tuple(range(n)))


def _pfaffian_float(m: Matrix) -> complex:
    """Parlett-Reid tridiagonalization with pivoting, for floating skew matrices."""
    n = m.nrows
    if n == 0:
        return 1 + 0j
    a = [[complex(x) for x in row] for row in m.data]
    sign = 1
    for k in range(n - 2):
        pivot_row = max(range(k + 1, n), key=lambda i: abs(a[i][k]))
        if abs(a[pivot_row][k]) == 0.0:
            return 0j
        if pivot_row != k + 1:
            a[k + 1], a[pivot_row] = a[pivot_row], a[k + 1]
            for row in a:
                row[k + 1], row[pivot_row] = row[pivot_row], row[k + 1]
            sign = -sign
        piv = a[k + 1][k]
        for i in range(k + 2, n):
            f = a[i][k] / piv
            if f == 0:
                continue
            for j in range(n):
                a[i][j] -= f * a[k + 1][j]
            for row in a:
                row[i] -= f * row[k + 1]
    out = 1 + 0j
    for k in range(0, n, 2):
        out *= a[k][k + 1]
    return sign * out


def pfaffian(m: Matrix):
    """Pfaffian of a skew-symmetric matrix; sign convention Pf([[0,a],[-a,0]]) = a.

    Exact domains use recursive first-row expansion with memoization,
    capped at 16x16; the floating domain uses tridiagonalization.
    """
    if not m.is_square():
        raise NotSquareError("pfaffian of a non-square matrix")
    if m.nrows % 2 != 0:
        raise OddDimensionError("pfaffian needs even dimension")
    if not m.is_skew_symmetric():
        raise NotSkewSymmetricError("pfaffian needs a skew-symmetric matrix")
    if isinstance(m.domain, ComplexDomain):
        return _pfaffian_float(m)
    if m.nrows > PFAFFIAN_EXACT_CAP:
        raise TooLargeForExactExpansionError(
            f"exact pfaffian capped at {PFAFFIAN_EXACT_CAP}x{PFAFFIAN_EXACT_CAP}; "
            "use the floating domain beyond that")
    return _pfaffian_exact(m)
