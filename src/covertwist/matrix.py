"""Sparse matrices over a scalar domain, with exact determinant machinery.

A Matrix stores only the nonzero entries of its rows.  The paper's
operators are sums of x_e*phi_e over edges and the induced images are
block permutations, so every builder and consumer works in the number
of nonzeros, not in N^2; dense rows are only an input format.

One exact kernel serves each kind of domain, for determinants and
characteristic polynomials alike:

* Characteristic polynomials of QQ and QQ(i) matrices, the cyclotomic
  fields of order 1 and 4, are computed multi-modularly: denominators
  are cleared, and modulo a prime the integer (or Gaussian integer,
  read off the two coordinates of each QQ(i) entry) matrix A gets a
  Krylov basis Q with A*Q = Q*H, H block upper Hessenberg with unit
  subdiagonal, whose recurrence gives the charpoly of A modulo that
  prime.  A Hadamard bound B on every coefficient fixes the
  primes in advance: their product exceeds 2B + 1, so the result is
  proved exact, not guessed, since no coefficient of absolute value at
  most B can be confused with another.  The primes are Proth primes,
  proved prime by Proth's theorem, sized to the bound: a bound up to
  240 bits takes one prime and one Krylov run, and only a larger one
  splits over several primes whose residues the Chinese remainder
  theorem combines.  The stored rows are read once, cleared of
  denominators; the bound, a reverse Cuthill-McKee order on the nonzero
  pattern (shared by every prime, it keeps the Krylov vectors sparse)
  and the kernel's columns come from those, and each prime reduces the
  columns.  The recurrence runs on
  packed integers, one coefficient per bit field.
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

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import isqrt, lcm

from .domains import Cyclotomic, CyclotomicDomain, _make, _norm_rat
from .errors import (
    DomainMismatchError,
    NotSkewSymmetricError,
    NotSquareError,
    OddDimensionError,
    charge,
)
from .poly import MAX_EXP, MultiPoly, PolyDomain, VarRegistry, _add_product


class Matrix:
    """rows[i] holds the (column, entry) pairs of row i, columns
    ascending, and no zero: the falsy value of every domain, which
    _stored alone drops, so equal matrices have equal rows."""

    __slots__ = ("domain", "nrows", "ncols", "rows")

    def __init__(self, domain, data: list[list]):
        """The matrix with the dense rows data, an input format read once."""
        self.domain = domain
        self.rows = _stored(map(enumerate, data))
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0

    @classmethod
    def from_rows(cls, domain, rows: list[list], ncols: int) -> "Matrix":
        """The matrix with the given rows, already as stored."""
        m = cls.__new__(cls)
        m.domain, m.rows, m.nrows, m.ncols = domain, rows, len(rows), ncols
        return m

    @classmethod
    def from_sums(cls, domain, rows, ncols: int) -> "Matrix":
        """The matrix with rows of (column, entry) pairs in any order, such
        as a dict's items of sums: sorted, the sums that cancelled dropped."""
        return cls.from_rows(domain, _stored(rows), ncols)

    @classmethod
    def identity(cls, domain, n: int) -> "Matrix":
        one = domain.one
        return cls.from_rows(domain, [[(i, one)] for i in range(n)], n)

    def __getitem__(self, ij):
        i, j = ij
        row = self.rows[i]
        k = bisect_left(row, (j,))   # (j,) sorts before (j, entry)
        return row[k][1] if k < len(row) and row[k][0] == j \
            else self.domain.zero

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

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_domain(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        dom = self.domain
        add = dom.add
        mul = dom.mul
        # the work is one product per pair of nonzeros that meet, and each
        # entry of the result sums its terms in ascending k
        b_rows = other.rows
        out = []
        for row in self.rows:
            acc = {}
            for k, x in row:
                for j, y in b_rows[k]:
                    acc[j] = add(acc[j], mul(x, y)) if j in acc else mul(x, y)
            out.append(acc.items())
        return Matrix.from_sums(dom, out, other.ncols)

    def eq(self, other: "Matrix") -> bool:
        # the domain's eq is == in every domain (_Field.eq), and no zero
        # is stored, so the rows compare whole
        return self.shape == other.shape and self.rows == other.rows

    def trace(self):
        if not self.is_square():
            raise NotSquareError("trace of a non-square matrix")
        acc = self.domain.zero
        add = self.domain.add
        for i in range(self.nrows):
            acc = add(acc, self[i, i])
        return acc

    def is_skew_symmetric(self) -> bool:
        """Every stored entry (i, j) off the diagonal, with entry (j, i)
        its negative: each stored entry is then matched by its mirror."""
        if not self.is_square():
            return False
        eq, neg = self.domain.eq, self.domain.neg
        return all(i != j and eq(self[j, i], neg(x))
                   for i, row in enumerate(self.rows) for j, x in row)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.domain!r})"


def _stored(rows) -> list[list[tuple[int, object]]]:
    """Each row's (column, entry) pairs, columns distinct, as the stored
    row: ascending, the zero entries dropped."""
    return [[(j, x) for j, x in sorted(row) if x] for row in rows]


def direct_sum_matrices(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_domain(b)
    shift = a.ncols
    return Matrix.from_rows(
        a.domain, a.rows + [[(j + shift, x) for j, x in row] for row in b.rows],
        a.ncols + b.ncols)


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


def _hessenberg_charpoly(cols: list[list[tuple[int, int]]],
                         p: int) -> list[int]:
    """Coefficients, ascending, of det(x*I - a) modulo the prime p, for
    the matrix a given by its nonzero residues, in [0, p), column by
    column: cols[j] holds (i, a[i][j]).  cols is not modified.

    A Krylov basis (Keller-Gehrig 1985; Dumas, Pernet & Wan 2005) gives
    a Hessenberg form H of a with no similarity sweep.  The basis
    q_0, q_1, ... is kept in echelon form: each vector's pivot is its
    first nonzero entry, and it is zero at the pivots of all earlier
    vectors.  Each v = a*q_(k-1), the product taking a's nonzeros from
    cols, is reduced against the basis in insertion order, with
    coefficient -v[pivot]/q_b[pivot] for q_b: that zeroes v at q_b's
    pivot, where every later vector is zero too.  The rest is stored as
    q_k unnormalised, so a*q_(k-1) = q_k + sum_b h_b,k-1 * q_b and H has
    a unit subdiagonal.  When v reduces to 0 the block ends, and the
    next starts at e_s, s the least index that is no pivot: e_s is zero
    at every pivot, and a nonzero vector of the span is not (at the
    pivot of its earliest basis vector), so e_s is not in the span.
    After n vectors a*Q = Q*H with Q invertible and H block upper
    triangular, its diagonal blocks upper Hessenberg with unit
    subdiagonal, so charpoly(a) = charpoly(H) mod p exactly.  Entries
    of v are reduced only where a pivot test or the stored q_k reads
    them.

    With a unit subdiagonal the recurrence of Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9, reads
        p_(k+1) = x*p_k - sum_b h_b,k * p_b
    over the rows b of column k in its block (subdiagonal products are
    1 within a block, 0 across one), so p_(k+1) is built as soon as
    column k is known.  p_k is packed into the int sum_j c_j * 2^(j*w),
    every c_j in [0, p), w = 2*bitlen(p) + bitlen(n + 1).  Then x*p_k is
    a shift by w, and each product by -h_b,k mod p, in [0, p), is one
    multiply-add of ints.  No carry crosses a field: field j of the sum
    is c_(j-1) of p_k, at most p - 1, plus at most k + 1 <= n products
    of two residues, so it stays at most
        (p - 1) + n*(p - 1)^2 <= (n + 1)*(p - 1)^2 < (n + 1)*p^2
        < 2^bitlen(n + 1) * 2^(2*bitlen(p)) = 2^w.
    Reducing each field mod p, once per k, gives p_(k+1) packed again.
    The products have degree at most k, so the top field k + 1 is the
    leading 1 of p_k: the fields are peeled off from the bottom until
    nothing is left."""
    n = len(cols)
    w = 2 * p.bit_length() + (n + 1).bit_length()
    mask = (1 << w) - 1
    polys = [1]
    basis = []   # per vector: its pivot, -1/(its pivot entry), its nonzeros
    pivoted = [False] * n
    free = 0   # every index below free is a pivot
    q = None   # the last basis vector, while its block goes on
    for k in range(n):
        if q is None:
            while pivoted[free]:
                free += 1
            pivoted[free] = True
            start = k
            q = [(free, 1)]
            basis.append((free, p - 1, q))
        v = [0] * n
        for j, y in q:
            for i, x in cols[j]:
                v[i] += x * y
        acc = polys[k] << w
        for b, (piv, neg_inv, terms) in enumerate(basis):
            x = v[piv]
            if x:
                u = x * neg_inv % p
                if u:
                    for i, y in terms:
                        v[i] += u * y
                    if b >= start:
                        acc += u * polys[b]
        q = [(i, y) for i, x in enumerate(v) if x and (y := x % p)] or None
        if q:
            piv, y = q[0]
            pivoted[piv] = True
            basis.append((piv, p - pow(y, -1, p), q))
        packed = 0
        j = 0
        while acc:   # the top field is 1, so this ends after field k + 1
            packed |= (acc & mask) % p << j
            acc >>= w
            j += w
        polys.append(packed)
    coeffs = []
    acc = polys[n]
    while acc:
        coeffs.append(acc & mask)
        acc >>= w
    return coeffs


def _cleared(m: Matrix) -> tuple[int, list[list[tuple]], bool]:
    """(D, rows, gaussian): D the lcm of the entry denominators, and
    rows[i] the stored entries of row i of D*m as (j, a, b), a column
    and the integer real and imaginary parts of the entry there;
    gaussian when some b is nonzero, which only a QQ(i) matrix has."""
    rows = [[(j, *x.c) if isinstance(x, Cyclotomic) else (j, x, 0)
             for j, x in row] for row in m.rows]
    d = lcm(1, *{q.denominator for row in rows for _, a, b in row
                 for q in (a, b)})
    return d, [[(j, int(a * d), int(b * d)) for j, a, b in row]
               for row in rows], any(b for row in rows for _, _, b in row)


def _fill_reducing_order(rows: list[list[tuple]]) -> list[int]:
    """The reverse Cuthill-McKee order (Cuthill & McKee 1969) of the
    symmetric nonzero pattern of a square matrix given by its rows'
    nonzero entries, each a tuple led by its column: i and j are
    adjacent when entry (i, j) or (j, i) is nonzero.

    Each connected piece is searched breadth-first from its vertex of
    least degree, taking the unvisited neighbours of each vertex by
    ascending degree, ties by index, and the whole order is reversed.
    Nonzeros then cluster near the diagonal, so a Krylov vector grown
    from a unit vector spreads over a band of neighbouring indices, and
    the echelon reduction of each new vector against the basis meets
    fewer nonzeros than in an arbitrary order."""
    n = len(rows)
    adj = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for entry in row:
            j = entry[0]
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
    degree = [len(a) for a in adj]

    def by_degree(v):
        return degree[v], v

    seen = [False] * n
    order = []
    k = 0   # order[k:] are reached but not yet searched
    for start in sorted(range(n), key=by_degree):
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        while k < len(order):
            fresh = sorted((w for w in adj[order[k]] if not seen[w]),
                           key=by_degree)
            for w in fresh:
                seen[w] = True
            order += fresh
            k += 1
    return order[::-1]


def _charpoly_multimodular(m: Matrix) -> list:
    """Coefficients c_0, ..., c_n of det(x*I - m), ascending, for a
    matrix over QQ or QQ(i), exactly.

    With D the lcm of the entry denominators, the coefficient c_k of
    x^(n-k) in the charpoly of the (Gaussian) integer matrix D*m is a
    signed sum of k x k principal minors, so Hadamard's inequality gives
    |c_k| <= e_k(|r_1|, ..., |r_n|) <= prod(1 + ceil|r_i|) = B over the
    row norms |r_i|.  With L the bit length of 2B + 1, the kernel runs
    ceil(L / 240) times, each modulo its own prime of at least L / runs
    bits rounded up to a multiple of 30, so that the product M of the
    primes exceeds 2B + 1; the count is fixed before the first run.
    Each run gives the charpoly of D*m modulo its prime exactly, from
    the Hessenberg matrix of a Krylov basis, similar to D*m mod p.  The
    symmetric residue modulo M is then c_k itself (for QQ(i), its real
    and imaginary parts, each at most |c_k|), and the charpoly of m has
    coefficients c_k / D^k.  One prime needs no
    recombination; several are combined by Garner's form of the Chinese
    remainder theorem.

    m is read once, into the nonzero entries of each row of D*m; the
    row norms, the order and the kernel's columns all come from those.
    D*m is put into the reverse Cuthill-McKee order of its nonzero
    pattern (for QQ(i), the union of both parts' patterns), once for
    every prime, which keeps the Krylov vectors sparse: a symmetric
    permutation is a similarity, so the charpoly and the row norms are
    unchanged.  Each prime reduces the permuted columns directly, once
    runs * n * (nonzeros + n) is charged to the work meter."""
    n = m.nrows
    d, rows, gaussian = _cleared(m)
    bound = 1
    for row in rows:
        sq = sum(a * a + b * b for _, a, b in row)
        root = isqrt(sq)
        bound *= 1 + root + (root * root < sq)
    size = (2 * bound + 1).bit_length()
    runs = -(-size // _RUN_BITS)
    charge(runs * n * (sum(map(len, rows)) + n), "charpoly_multimodular")
    order = _fill_reducing_order(rows)
    pos = [0] * n
    for k, i in enumerate(order):
        pos[i] = k
    cols = [[] for _ in range(n)]   # D*m permuted, by column
    for k, i in enumerate(order):
        for j, a, b in rows[i]:
            cols[pos[j]].append((k, a, b))

    def image(root, p):
        """The columns of D*m modulo p, with i mapped to root."""
        return [[(i, y) for i, a, b in col if (y := (a + root * b) % p)]
                for col in cols]

    def residues(p, s):
        """The charpoly of D*m modulo p: its real and imaginary parts,
        the latter None for a real matrix."""
        plus = _hessenberg_charpoly(image(s, p), p)
        if not gaussian:
            return plus, None
        minus = _hessenberg_charpoly(image(-s, p), p)
        half = pow(2, -1, p)
        half_s = pow(2 * s, -1, p)
        return ([(x + y) * half % p for x, y in zip(plus, minus)],
                [(x - y) * half_s % p for x, y in zip(plus, minus)])

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
    value stays in the entries' own ring and x is never adjoined.  The
    recurrence runs on the entries' term dicts: each inner product and
    each convolution term is added into one dict by _add_product, which
    is called only when both factors are nonzero; a and R are negated
    once per block, and a MultiPoly is built only for the n + 1 results.
    Each matrix-vector step and each convolution first charges the work
    meter its term products, or a bound on them, read off dict lengths.

    The degree bound is checked once, before the first product.  Let D
    be the largest total degree of an entry.  For the block of order r:
    the coefficient of A's charpoly j powers below the top is a sum of
    products of j entries; A^k*C is one of k + 1 entries; so -R*A^k*C is
    one of k + 2 <= r entries, and each term t_i*c_j of the convolution
    one of i + j <= r entries.  Every product formed is such a product
    of at most r <= n entries, so its keys have total degree at most
    n*D, and every exponent is at most that.  n*D <= MAX_EXP therefore
    keeps every field of every key in range: no key addition carries."""
    dom = m.domain
    reg = dom.reg
    n = m.nrows
    rows = [[(j, dom.coerce(x).terms) for j, x in row] for row in m.rows]
    shift = reg._deg_shift
    top = max((max(x) >> shift for row in rows for _, x in row), default=0)
    if n * top > MAX_EXP:
        raise OverflowError(
            f"charpoly degree bound {n}*{top} exceeds the exponent limit "
            f"{MAX_EXP}")
    at = [dict(row) for row in rows]
    empty: dict = {}
    one = {0: 1}
    coeffs = [one]
    for r in range(n):   # the block of order r + 1: C is column r, R row r
        block = [[(j, x) for j, x in rows[i] if j < r] for i in range(r)]
        neg_row = [(j, {k: -c for k, c in x.items()})
                   for j, x in rows[r] if j < r]
        block_terms = sum(len(x) for brow in block for _, x in brow)
        row_terms = sum(len(x) for _, x in neg_row)
        v = [at[i].get(r, empty) for i in range(r)]
        t = [one, {k: -c for k, c in at[r].get(r, empty).items()}]
        for k in range(r):   # -R*v, then v = A*v unless it is the last
            if not any(v):   # A^k*C = 0, and so is every later term
                t += [empty] * (r - k)
                break
            charge((row_terms + block_terms) * max(map(len, v)),
                   "charpoly_berkowitz")
            t.append(_dot(neg_row, v))
            if k < r - 1:
                v = [_dot(brow, v) for brow in block]
        # the convolution t * coeffs, over the nonzero t_i only, i + j <= r + 1
        nz = [(i, a) for i, a in enumerate(t) if a]
        below = list(accumulate(map(len, coeffs), initial=0))
        charge(sum(len(a) * below[min(r + 2 - i, r + 1)] for i, a in nz),
               "charpoly_berkowitz")
        new = []
        for k in range(r + 2):
            out: dict = {}
            for i, a in nz:
                if i > k:
                    break
                if k - i <= r and coeffs[k - i]:
                    _add_product(out, a, coeffs[k - i])
            new.append(out)
        coeffs = new
    return [MultiPoly(reg, c) for c in reversed(coeffs)]


def _dot(row: list, v: list) -> dict:
    """The term dict of the sum of x*v[j] over the (j, x) of row; row
    holds nonzeros, so only an empty v[j] is skipped."""
    out: dict = {}
    for j, x in row:
        b = v[j]
        if b:
            _add_product(out, x, b)
    return out


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
                for c in _charpoly_berkowitz(
                    Matrix.from_rows(consts, m.rows, m.ncols))]
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
    """Inverse over a field domain (QQ, QQ(i), Q(zeta_N)) by Gauss-Jordan
    on [m | I], each row a dict of its nonzero entries: an entry that
    cancels is removed, so column k is in a row when nonzero there."""
    if not m.is_square():
        raise NotSquareError("inverse of a non-square matrix")
    dom = m.domain
    n = m.nrows
    a = [dict(row) | {n + i: dom.one} for i, row in enumerate(m.rows)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if k in a[i]), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        inv_p = dom.invert(a[k][k])
        pivot = a[k] = {j: dom.mul(inv_p, x) for j, x in a[k].items()}
        for i, row in enumerate(a):
            f = row.get(k)
            if f is None or i == k:
                continue
            for j, y in pivot.items():
                x = dom.sub(row.get(j, dom.zero), dom.mul(f, y))
                if x:
                    row[j] = x
                else:
                    del row[j]
    return Matrix.from_sums(dom, [[(j - n, x) for j, x in row.items() if j >= n]
                                  for row in a], n)


def _pfaffian_exact(m: Matrix):
    """First-row expansion with memoization; each subset expanded is
    charged a unit per entry it multiplies and 8 per word of the subset
    its cache entry keeps."""
    dom = m.domain
    at = [dict(row) for row in m.rows]
    mul = dom.mul

    @cache
    def pf(active: tuple[int, ...]):
        if not active:
            return dom.one
        charge(9 * len(active), "pfaffian")
        i0 = active[0]
        rest = active[1:]
        acc = dom.zero
        sgn = 1
        for t, j in enumerate(rest):
            x = at[i0].get(j)
            if x is not None:
                sub = rest[:t] + rest[t + 1:]
                term = mul(x, pf(sub))
                acc = dom.add(acc, term if sgn > 0 else dom.neg(term))
            sgn = -sgn
        return acc

    return pf(tuple(range(m.nrows)))


def pfaffian(m: Matrix):
    """Pfaffian of a skew-symmetric matrix; sign convention Pf([[0,a],[-a,0]]) = a.

    Recursive first-row expansion with memoization, charged to the work
    meter per subset: exponential in the order, so no command calls it.
    """
    if not m.is_square():
        raise NotSquareError("pfaffian of a non-square matrix")
    if m.nrows % 2 != 0:
        raise OddDimensionError("pfaffian needs even dimension")
    if not m.is_skew_symmetric():
        raise NotSkewSymmetricError("pfaffian needs a skew-symmetric matrix")
    return _pfaffian_exact(m)
