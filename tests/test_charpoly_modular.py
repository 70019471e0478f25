"""The multi-modular charpoly kernel against independent routes.

References: sympy's charpoly (skipped when sympy is missing) and the
fraction-free route the kernel replaced for scalar matrices, det of
lambda*I - A over the polynomial ring QQ[lambda] or QQ(i)[lambda] by
Bareiss elimination (bareiss_reference.py).
Orders run from 8, above the Leibniz oracle's budget of 7.  The Proth
primes the kernel runs modulo are checked against sympy, deterministic
Miller-Rabin (miller_rabin_reference.py) and trial division.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest

from hypothesis import Phase, given, settings, strategies as st

from covertwist.domains import (QI, QQ, Cyclotomic, CyclotomicDomain,
                                root_of_unity)
from covertwist.graphs import build_graph
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import (
    _DIGIT_BITS,
    _RUN_BITS,
    Matrix,
    _charpoly_multimodular,
    _fill_reducing_order,
    _hessenberg_charpoly,
    _proth_prime,
    _proth_witness,
    charpoly,
    det,
)
from covertwist.operators import (
    line_digraph,
    pullback_connection,
    twisted_adjacency,
    weights_from_unoriented,
)
from covertwist.poly import MultiPoly, PolyDomain, VarRegistry
from covertwist.representation import connection_from_rep, representation

from bareiss_reference import bareiss_charpoly, det_bareiss
from builders import dense, evaluate, gaussian, mat_sub, scale, zero_matrix
from hessenberg_reference import nonzero_columns
from miller_rabin_reference import MR_LIMIT, is_prime

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.generate))


def sympy_charpoly(m: Matrix, var: str = "lambda") -> MultiPoly:
    sympy = pytest.importorskip("sympy")

    def to_sympy(x):
        if isinstance(x, Cyclotomic):   # of order 4: re + im*i
            re, im = x.c
            return to_sympy(re) + sympy.I * to_sympy(im)
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    lam = sympy.Symbol("lam")
    sm = sympy.Matrix(m.nrows, m.ncols,
                      [to_sympy(x) for row in dense(m) for x in row])
    coeffs = sympy.Poly(sm.charpoly(lam).as_expr(), lam).all_coeffs()
    reg = VarRegistry((var,))
    n = len(coeffs) - 1
    terms = {}
    for k, c in enumerate(coeffs):
        re, im = sympy.expand(c).as_real_imag()
        v = gaussian(Fraction(str(re)), Fraction(str(im)))
        if v:
            terms[reg.pack((n - k,))] = v
    return MultiPoly(reg, terms)


def rationals(bound=6, dens=(1, 2, 3, 5, 12)):
    return st.builds(Fraction, st.integers(-bound, bound), st.sampled_from(dens))


def sparse(entry):
    return st.one_of(st.just(0), st.just(0), entry)


def matrices(n_min, n_max, entry, domain):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n)).map(
        lambda rows: Matrix(domain, [[domain.coerce(x) for x in row]
                                     for row in rows]))


@contextmanager
def hessenberg_runs():
    """Records the prime of every Hessenberg run the kernel makes."""
    primes = []

    def record(cols, p):
        primes.append(p)
        return _hessenberg_charpoly(cols, p)

    with mock.patch("covertwist.matrix._hessenberg_charpoly", record):
        yield primes


def gaussians():
    return st.builds(gaussian, rationals(4, (1, 2, 7)), rationals(4, (1, 3)))


@SETTINGS
@given(matrices(8, 16, sparse(rationals()), QQ))
def test_rational_against_bareiss(m):
    assert charpoly(m) == bareiss_charpoly(m)


@SETTINGS
@given(matrices(8, 24, sparse(rationals()), QQ))
def test_rational_against_sympy(m):
    assert charpoly(m) == sympy_charpoly(m)


@SETTINGS
@given(matrices(8, 12, sparse(gaussians()), QI))
def test_gaussian_against_bareiss(m):
    assert charpoly(m) == bareiss_charpoly(m)


@SETTINGS
@given(matrices(8, 24, sparse(gaussians()), QI))
def test_gaussian_against_sympy(m):
    assert charpoly(m) == sympy_charpoly(m)


@pytest.mark.parametrize("domain", [QQ, QI])
def test_small_orders_and_zero_matrix(domain):
    reg = VarRegistry(("lambda",))
    lam = MultiPoly.variable(reg, "lambda")
    assert charpoly(Matrix(domain, [])) == MultiPoly.one(reg)
    assert charpoly(Matrix(domain, [[Fraction(-3, 4)]])) == lam + Fraction(3, 4)
    two = Matrix(domain, [[1, Fraction(1, 2)], [3, 0]])
    assert charpoly(two) == lam ** 2 - lam - Fraction(3, 2)
    for n in (1, 2, 9):
        assert charpoly(zero_matrix(domain, n, n)) == lam ** n


def test_already_hessenberg():
    n = 10
    m = Matrix(QQ, [[Fraction(i + 2 * j - 7, 1 + (i * j) % 4)
                     if i <= j + 1 else 0 for j in range(n)]
                    for i in range(n)])
    assert charpoly(m) == bareiss_charpoly(m) == sympy_charpoly(m)


@SETTINGS
@given(matrices(8, 12, sparse(st.integers(-3, 3)), QQ))
def test_pivots_vanishing_modulo_the_first_prime(m):
    # every entry a multiple of the kernel's first prime p: all of D*A is
    # zero mod p, and mixing in units leaves pivots that vanish mod p but
    # not over QQ.  A diagonal of 4p to 10p puts the bound above seven
    # runs of _RUN_BITS, where every prime has _RUN_BITS bits, so p is
    # the first of them whatever the other entries.
    p, _ = _proth_prime(_RUN_BITS, 0)
    mult = [[x + 7 if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(dense(m))]
    big = Matrix(QQ, [[x * p + (1 if (i + j) % 5 == 0 else 0)
                       for j, x in enumerate(row)]
                      for i, row in enumerate(mult)])
    scaled = Matrix(QQ, [[x * p for x in row] for row in mult])
    for a in (big, scaled):
        with hessenberg_runs() as primes:
            cp = charpoly(a)
        assert primes[0] == p
        assert cp == bareiss_charpoly(a)


def near_2_200():
    return st.builds(lambda s, v: s * (2 ** 200 + v),
                     st.sampled_from((-1, 1)), st.integers(-2 ** 20, 2 ** 20))


@SETTINGS
@given(st.lists(sparse(near_2_200()), min_size=64, max_size=64))
def test_huge_entries_need_many_primes(vals):
    m = Matrix(QQ, [vals[8 * i:8 * i + 8] for i in range(8)])
    assert charpoly(m) == bareiss_charpoly(m)


def test_coefficients_beyond_three_primes():
    # det is about 2^1600, far longer than 3 * 61 bits and than the 240
    # bits one prime carries, so several primes must be recombined
    n = 8
    m = Matrix(QQ, [[2 ** 200 + i if i == j else (i - j) * 2 ** 199
                     for j in range(n)] for i in range(n)])
    cp = charpoly(m)
    assert abs(cp.constant_value()).bit_length() > 3 * 61
    assert cp == bareiss_charpoly(m)


def test_hessenberg_recurrence_modulo_a_small_prime():
    # the companion matrix of x^3 - 2x - 5 over F_7, already Hessenberg
    h = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert _hessenberg_charpoly(nonzero_columns(h), 7) == [(-5) % 7, (-2) % 7, 0, 1]


def hadamard_bits(m: Matrix) -> int:
    """Bit length of 2B + 1 for the Hadamard bound B of an integer
    matrix, prod(1 + ceil|r_i|) over its rows."""
    bound = 1
    for row in dense(m):
        sq = sum(int(x) ** 2 for x in row)
        root = isqrt(sq)
        bound *= 1 + root + (root * root < sq)
    return (2 * bound + 1).bit_length()


def zeta_edge_operator():
    """The order-60 twisted edge operator of a zeta-shaped input: a
    12-cycle with 3 chords, weights 1 or 2, one unimodular 2 x 2 integer
    matrix per generator."""
    rng = random.Random("zeta-shaped")
    pairs = [(v, (v + 1) % 12) for v in range(12)]
    pairs += [(0, 5), (3, 9), (7, 11)]
    g = build_graph(12, pairs)
    pres = fundamental_presentation(g, 0)
    mats = []
    for _ in range(pres.rank):
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        mats.append(Matrix(QQ, [[1 + a * b, a], [b, 1]]))
    x = weights_from_unoriented(g, QQ, [rng.randrange(1, 3) for _ in pairs])
    ld = line_digraph(g, x)
    conn = connection_from_rep(pres, representation(QQ, mats))
    return twisted_adjacency(ld.digraph, ld.weights,
                             pullback_connection(ld, conn))


def test_one_run_for_a_bound_under_the_cap():
    b = zeta_edge_operator()
    assert b.nrows == 60
    assert 61 < hadamard_bits(b) <= _RUN_BITS
    with hessenberg_runs() as primes:
        cp = charpoly(b)
    assert len(primes) == 1
    lam = Matrix.identity(QQ, 60)
    for t in (-2, 1, 3):
        assert evaluate(cp, {"lambda": t}) == det_bareiss(mat_sub(scale(lam, t), b))


def test_two_runs_for_a_gaussian_matrix():
    m = Matrix(QI, [[gaussian(0, 1), 1], [2, 0]])
    with hessenberg_runs() as primes:
        cp = charpoly(m)
    assert len(primes) == 2 and primes[0] == primes[1]
    assert cp == bareiss_charpoly(m)


def permuted(m: Matrix, order) -> Matrix:
    """P*m*P^T: row and column order[k] of m become row and column k."""
    return Matrix(m.domain, [[m[i, j] for j in order] for i in order])


@SETTINGS
@given(m=st.one_of(matrices(1, 16, sparse(rationals()), QQ),
                   matrices(1, 12, sparse(gaussians()), QI)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symmetric_permutations_keep_the_coefficients(m, seed):
    # the kernel reorders the cleared matrix itself, so any symmetric
    # permutation of its input must reach the same coefficients
    want = _charpoly_multimodular(m)
    rng = random.Random(seed)
    for _ in range(3):
        order = list(range(m.nrows))
        rng.shuffle(order)
        assert _charpoly_multimodular(permuted(m, order)) == want


def bandwidth(rows) -> int:
    return max((abs(i - j) for i, row in enumerate(rows)
                for j, x in enumerate(row) if x), default=0)


def row_nonzeros(*parts):
    """The order's input for the dense parts of one matrix: each row's
    entries nonzero in some part, as (column, value in each part)."""
    return [[(j, *vals) for j, vals in enumerate(zip(*rows)) if any(vals)]
            for rows in zip(*parts)]


def test_fill_reducing_order_on_the_edge_operator():
    b = zeta_edge_operator()
    rows = [[int(x) for x in row] for row in dense(b)]
    order = _fill_reducing_order(row_nonzeros(rows))
    assert sorted(order) == list(range(60))
    assert 2 * bandwidth(dense(permuted(b, order))) <= bandwidth(rows)


def test_fill_reducing_order_joins_both_parts_and_every_piece():
    # a real path 0-1-2 and an imaginary edge 3-4, with 5 isolated: the
    # order covers every index, and each piece stays contiguous
    re = [[0] * 6 for _ in range(6)]
    im = [[0] * 6 for _ in range(6)]
    re[0][1] = re[2][1] = 1
    im[4][3] = 1
    order = _fill_reducing_order(row_nonzeros(re, im))
    assert sorted(order) == list(range(6))
    pos = {v: k for k, v in enumerate(order)}
    for piece in ({0, 1, 2}, {3, 4}, {5}):
        spots = sorted(pos[v] for v in piece)
        assert spots == list(range(spots[0], spots[0] + len(piece)))
    assert abs(pos[0] - pos[2]) == 2   # the path's ends flank its middle


def test_kernel_routes():
    # QQ and QQ(i) take the multi-modular kernel for charpoly and det;
    # Q(zeta_5) and QQ[x] take Berkowitz
    def berkowitz(m):
        raise AssertionError(f"Berkowitz reached over {m.domain!r}")

    x = MultiPoly.variable(VarRegistry(("x",)), "x")
    z = root_of_unity(5)
    with mock.patch("covertwist.matrix._charpoly_berkowitz", berkowitz):
        for m in (Matrix(QQ, [[1, Fraction(1, 2)], [3, 0]]),
                  Matrix(QI, [[gaussian(0, 1), 1], [2, gaussian(1, -1)]])):
            assert charpoly(m) == bareiss_charpoly(m)
            assert det(m) == det_bareiss(m)
        for m in (Matrix(CyclotomicDomain(5), [[z, 1], [2, z * z]]),
                  Matrix(PolyDomain(x.reg, QQ), [[x, x + 1], [x * x, x - 2]])):
            for kernel in (charpoly, det):
                with pytest.raises(AssertionError, match="Berkowitz reached"):
                    kernel(m)


def test_runs_for_a_bound_over_the_cap():
    n = 8
    m = Matrix(QQ, [[2 ** 200 + i if i == j else (i - j) * 2 ** 199
                     for j in range(n)] for i in range(n)])
    size = hadamard_bits(m)
    with hessenberg_runs() as primes:
        cp = charpoly(m)
    assert len(primes) == -(-size // _RUN_BITS) > 1
    assert len(set(primes)) == len(primes)
    assert cp == bareiss_charpoly(m)


def near_power(e, domain):
    real = st.builds(lambda s, v: s * (2 ** e + v),
                     st.sampled_from((-1, 1)), st.integers(-2 ** 16, 2 ** 16))
    if domain is QQ:
        return real
    return st.builds(gaussian, real, real)


@pytest.mark.parametrize("domain, e, runs",
                         [(QQ, 28, 1), (QQ, 29, 2), (QI, 27, 2), (QI, 29, 4)],
                         ids=["QQ-under", "QQ-over", "QI-under", "QI-over"])
@SETTINGS
@given(data=st.data())
def test_bounds_either_side_of_the_cap(domain, e, runs, data):
    # dense 8 x 8 with parts near 2^e: 2B + 1 has 238 bits over QQ for
    # e = 28 (one prime) and 246 for e = 29 (two primes and Garner); a
    # Gaussian entry has twice the square norm, 234 bits for e = 27 and
    # 250 for e = 29, and two runs per prime
    vals = data.draw(st.lists(near_power(e, domain),
                              min_size=64, max_size=64))
    m = Matrix(domain, [vals[8 * i:8 * i + 8] for i in range(8)])
    with hessenberg_runs() as primes:
        cp = charpoly(m)
    assert len(primes) == runs
    assert cp == bareiss_charpoly(m)


def sylvester(n):
    """The n x n Sylvester-Hadamard matrix, n a power of 2."""
    h = [[1]]
    while len(h) < n:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


@pytest.mark.parametrize("e, runs", [(28, 1), (29, 2)])
def test_bound_met_by_a_hadamard_matrix(e, runs):
    # 2^e * H_8 has orthogonal rows, so |det| = 2^(8e + 12) meets the
    # Hadamard bound: primes any smaller than the bound asks for lose it
    m = Matrix(QQ, [[x * 2 ** e for x in row] for row in sylvester(8)])
    with hessenberg_runs() as primes:
        cp = charpoly(m)
    assert len(primes) == runs
    assert abs(cp.constant_value()) == 2 ** (8 * e + 12)
    assert cp == bareiss_charpoly(m)


LADDER = range(_DIGIT_BITS, _RUN_BITS + 1, _DIGIT_BITS)


def ladder_primes():
    return [(bits, _proth_prime(bits, index))
            for bits in LADDER for index in range(4)]


def test_proth_primes_fit_their_size_and_split():
    for bits in LADDER:
        assert len({_proth_prime(bits, index) for index in range(4)}) == 4
    for bits, (p, s) in ladder_primes():
        assert p >= 2 ** bits and p % 4 == 1 and s * s % p == p - 1
        m = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = k * 2^m, k odd
        assert (p - 1) >> m < 2 ** m


def test_proth_primes_against_sympy():
    sympy = pytest.importorskip("sympy")
    assert all(sympy.isprime(p) for _, (p, _) in ladder_primes())


def test_proth_primes_against_miller_rabin():
    small = [p for _, (p, _) in ladder_primes() if p < MR_LIMIT]
    assert len(small) >= 8
    assert all(map(is_prime, small))


def proth_numbers(limit):
    """Every k*2^m + 1 < limit with k odd, k < 2^m, m >= 1."""
    out = []
    m = 1
    while (1 << m) + 1 < limit:
        out += [(k << m) + 1 for k in range(1, 1 << m, 2)
                if (k << m) + 1 < limit]
        m += 1
    return out


def test_proth_decision_against_trial_division():
    numbers = proth_numbers(2 ** 20)
    assert {3, 5, 9, 25, 49, 289} <= set(numbers)   # squares included
    for n in numbers:
        prime = all(n % q for q in range(2, isqrt(n) + 1))
        assert (_proth_witness(n) is not None) == prime, n
