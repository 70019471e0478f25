"""The Krylov charpoly kernel against the dense similarity reference.

`_hessenberg_charpoly` builds its Hessenberg matrix from a Krylov basis;
hessenberg_reference.py reduces the matrix by similarity transforms.
The two are independent algorithms for the same residues, so they must
agree on every matrix and prime.  Each drawn matrix is built from a
drawn prime, order, density and seed, and a failing draw is reported as
it is found, with no shrinking: each shrink candidate would cost up to
two order-64 charpolys, and those four values already reproduce the
failure.  A wrong kernel fails within seconds.

The primes are Proth primes k*2^m + 1 of 31, 121 and 241 bits, with the
m the program uses for those lengths: the least of each, which the
program itself takes, just above 2^30, 2^120 and 2^240, and the
greatest, just under 2^31, 2^121 and 2^241.  Only the latter bring p^2
close to 2^(2*bitlen(p)), where the packed recurrence's field width is
tight.

The kernel must leave its input as it is.  A Krylov block ends when a
vector falls into the span of the basis, and the next one starts at a
unit vector: zero, identity, diagonal, permutation, direct-sum and
nilpotent matrices force many blocks, and rows that are multiples of a
few base rows force early ends.
"""

import random

import pytest

from hypothesis import Phase, given, settings, strategies as st

from covertwist.matrix import _hessenberg_charpoly, _proth_prime, _proth_witness

from hessenberg_reference import hessenberg_charpoly_dense, nonzero_columns

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.generate))
LENGTHS = (31, 121, 241)


def greatest_proth_prime(length: int) -> int:
    """The greatest prime k*2^m + 1 below 2^length, with m = length // 2
    + 1 and k odd, k < 2^m, proved prime by Proth's theorem."""
    m = length // 2 + 1
    k = (1 << length - m) - 1
    while _proth_witness((k << m) + 1) is None:
        k -= 2
    return (k << m) + 1


PRIMES = [p for length in LENGTHS
          for p in (_proth_prime(length - 1, 0)[0],
                    greatest_proth_prime(length))]
PRIME_IDS = [f"{length}-{end}" for length in LENGTHS
             for end in ("least", "greatest")]


def test_primes_have_their_lengths():
    assert [p.bit_length() for p in PRIMES] == [31, 31, 121, 121, 241, 241]
    assert all(PRIMES[i] < PRIMES[i + 1] for i in range(0, 6, 2))
    assert all((1 << p.bit_length()) - p < (1 << p.bit_length()) >> 10
               for p in PRIMES[1::2])


def random_matrix(rng, n, p, density):
    """n x n residues mod p, each entry nonzero with the given
    probability; a nonzero entry is 1, p - 1 or uniform."""
    def entry():
        if rng.random() >= density:
            return 0
        return rng.choice((1, p - 1, rng.randrange(1, p)))
    return [[entry() for _ in range(n)] for _ in range(n)]


def agree(h, p):
    """The kernel's residues on h, given to it as its nonzero columns,
    which must equal the reference's; the kernel must leave its columns
    as they are."""
    cols = nonzero_columns(h)
    before = [col[:] for col in cols]
    want = hessenberg_charpoly_dense([row[:] for row in h], p)
    got = _hessenberg_charpoly(cols, p)
    assert cols == before
    assert got == want
    assert len(got) == len(h) + 1 and got[-1] == 1
    assert all(0 <= c < p for c in got)
    return got


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


primes = st.sampled_from(PRIMES)
orders = st.integers(0, 64)
densities = st.sampled_from((0.03, 0.1, 0.3, 1.0))
seeds = st.integers(0, 2 ** 32 - 1)


@SETTINGS
@given(p=primes, n=orders, density=densities, seed=seeds)
def test_against_dense_reference(p, n, density, seed):
    agree(random_matrix(random.Random(seed), n, p, density), p)


@SETTINGS
@given(p=primes, n=st.integers(3, 64), density=densities, seed=seeds)
def test_forced_row_swaps(p, n, density, seed):
    # no subdiagonal entry, and column 0 nonzero only in its last row:
    # the reference's step 0 swaps rows and columns 1 and n - 1, and the
    # kernel's first Krylov vector has its pivot at n - 1
    h = random_matrix(random.Random(seed), n, p, density)
    for j in range(n - 1):
        h[j + 1][j] = 0
    for i in range(1, n - 1):
        h[i][0] = 0
    h[n - 1][0] = p - 1
    agree(h, p)


@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_reversal_swaps_at_every_step(p):
    # the anti-diagonal matrix: every column's one nonzero entry lies
    # below the subdiagonal until the reference's swaps bring it up, and
    # every Krylov block has two vectors, e_s and e_(n-1-s)
    n = 33
    h = [[(i + 2) if i + j == n - 1 else 0 for j in range(n)]
         for i in range(n)]
    agree(h, p)


@SETTINGS
@given(p=primes, n=st.integers(2, 64), data=st.data(),
       density=densities, seed=seeds)
def test_zero_subdiagonal_entry(p, n, data, density, seed):
    # block upper triangular [[A, B], [0, C]]: Krylov vectors from
    # e_0 stay in the first k coordinates, the recurrence reads no
    # entry across a block boundary, and the charpoly is
    # charpoly(A) * charpoly(C)
    k = data.draw(st.integers(1, n - 1))
    h = random_matrix(random.Random(seed), n, p, density)
    for i in range(k, n):
        for j in range(k):
            h[i][j] = 0
    got = agree(h, p)
    a = _hessenberg_charpoly(nonzero_columns([r[:k] for r in h[:k]]), p)
    c = _hessenberg_charpoly(nonzero_columns([r[k:] for r in h[k:]]), p)
    assert got == poly_mul(a, c, p)


@pytest.mark.parametrize("n", [1, 2, 7, 15, 31, 62, 64])
@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_every_entry_p_minus_1(p, n):
    dense = [[p - 1] * n for _ in range(n)]
    hessenberg = [[p - 1 if i <= j + 1 else 0 for j in range(n)]
                  for i in range(n)]
    # -J has rank one: charpoly x^n + n*x^(n-1)
    assert agree(dense, p) == [0] * (n - 1) + [n, 1]
    agree(hessenberg, p)


def widest_fields(n, p):
    """An upper Hessenberg h whose recurrence comes within one product
    of the field bound (p - 1) + n*(p - 1)^2 at its last step.

    The subdiagonal is 1, so every product t_i is 1.  For m < n the
    column above the diagonal is arbitrary, and the diagonal entry is
    chosen so that the constant coefficient of p_m is p - 1.  In the
    last column every entry is 1, so every multiplier is p - 1, and the
    constant field of the last sum is (p - 1)*((n - 1)*(p - 1) + 1)."""
    rng = random.Random(n)
    h = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    c0 = [1]   # constant coefficients of p_0, p_1, ...
    for m in range(1, n):
        for i in range(m - 1):
            h[i][m - 1] = rng.randrange(p)
        s = sum(h[i - 1][m - 1] * c0[i - 1] for i in range(1, m))
        h[m - 1][m - 1] = (1 - s) * pow(c0[m - 1], -1, p) % p
        c0.append(p - 1)
    for i in range(n):
        h[i][n - 1] = 1
    return h


@pytest.mark.parametrize("n", [6, 14, 30, 62, 64])
@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_widest_fields(p, n):
    h = widest_fields(n, p)
    assert all(h[i][j] == 0 for i in range(n) for j in range(i - 1))
    for m in (1, 2, n // 2, n - 1):
        # p_m is the charpoly of the leading m x m block
        assert agree([row[:m] for row in h[:m]], p)[0] == p - 1
    agree(h, p)


@SETTINGS
@given(p=primes, coeffs=st.lists(st.integers(0, 2 ** 241), max_size=64))
def test_companion_matrix(p, coeffs):
    # the companion matrix of x^n + c_(n-1) x^(n-1) + ... + c_0 is
    # already Hessenberg, and its charpoly is that polynomial
    n = len(coeffs)
    c = [x % p for x in coeffs]
    h = [[0] * n for _ in range(n)]
    for i in range(1, n):
        h[i][i - 1] = 1
    for i in range(n):
        h[i][n - 1] = -c[i] % p
    assert agree(h, p) == c + [1]


def proportional_rows(rng, n, p, pool):
    """n x n residues mod p whose rows are residue multiples of `pool`
    base rows, so that the rank is at most `pool`.  Base entries are 0,
    1, p - 1 or uniform, and multipliers 1, p - 1 or uniform."""
    def entry():
        return rng.choice((0, 0, 1, p - 1, rng.randrange(1, p)))
    base = [[entry() for _ in range(n)] for _ in range(pool)]
    return [[c * y % p for y in rng.choice(base)]
            for c in (rng.choice((1, p - 1, rng.randrange(1, p)))
                      for _ in range(n))]


@SETTINGS
@given(p=primes, n=st.integers(3, 64), pool=st.integers(1, 4), seed=seeds)
def test_proportional_rows(p, n, pool, seed):
    agree(proportional_rows(random.Random(seed), n, p, pool), p)


def direct_sum(blocks):
    """The block diagonal matrix of the square blocks."""
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def companion(c, p):
    """The companion matrix of x^k + c_(k-1) x^(k-1) + ... + c_0."""
    k = len(c)
    return [[1 if i == j + 1 else -c[i] % p if j == k - 1 else 0
             for j in range(k)] for i in range(k)]


def permutation_matrix(perm):
    return [[1 if perm[j] == i else 0 for j in range(len(perm))]
            for i in range(len(perm))]


def poly_product(factors, p):
    out = [1]
    for f in factors:
        out = poly_mul(out, f, p)
    return out


def many_blocks(p):
    """(name, matrix, charpoly) for inputs whose Krylov bases need many
    blocks, each charpoly known in closed form."""
    rng = random.Random(p)
    diag = [rng.choice((1, 2, p - 1)) for _ in range(20)]
    cycles = [1, 1, 2, 3, 1, 4, 2, 5, 1]
    labels = list(range(sum(cycles)))
    rng.shuffle(labels)
    perm = [0] * len(labels)
    at = 0
    for c in cycles:
        for i in range(c):
            perm[labels[at + i]] = labels[at + (i + 1) % c]
        at += c
    comps = [[rng.randrange(p) for _ in range(k)] for k in (1, 3, 2, 5, 1)]
    jordans = [[[int(j == i + 1) for j in range(k)] for i in range(k)]
               for k in (4, 1, 3)]
    return [
        ("zero", [[0] * 17 for _ in range(17)], [0] * 17 + [1]),
        ("identity", [[int(i == j) for j in range(17)] for i in range(17)],
         poly_product([[p - 1, 1]] * 17, p)),
        ("diagonal", [[diag[i] if i == j else 0 for j in range(20)]
                      for i in range(20)],
         poly_product([[p - d, 1] for d in diag], p)),
        ("permutation", permutation_matrix(perm),
         poly_product([[p - 1] + [0] * (c - 1) + [1] for c in cycles], p)),
        ("companions", direct_sum([companion(c, p) for c in comps]),
         poly_product([c + [1] for c in comps], p)),
        ("jordan", direct_sum(jordans), [0] * 8 + [1]),
    ]


@pytest.mark.parametrize("case", range(6),
                         ids=[name for name, _, _ in many_blocks(7)])
@pytest.mark.parametrize("p", PRIMES, ids=PRIME_IDS)
def test_many_krylov_blocks(p, case):
    _, h, want = many_blocks(p)[case]
    assert agree(h, p) == want


@SETTINGS
@given(p=primes, n=orders, density=st.sampled_from((0.03, 0.1)),
       seed=seeds)
def test_symmetric_permutations(p, n, density, seed):
    # P*h*P^-1 is similar to h, so both give the reference's residues
    rng = random.Random(seed)
    h = random_matrix(rng, n, p, density)
    order = list(range(n))
    rng.shuffle(order)
    want = agree(h, p)
    assert agree([[h[i][j] for j in order] for i in order], p) == want
