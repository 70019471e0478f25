"""Exact matrices: determinants, characteristic polynomials, pfaffians."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covertwist.domains import QI, QQ
from covertwist.errors import (
    NotSkewSymmetricError,
    NotSquareError,
    OddDimensionError,
)
from covertwist.matrix import (
    Matrix,
    charpoly,
    det,
    direct_sum_matrices,
    inverse,
    pfaffian,
)
import covertwist.matrix as matrix_module
from covertwist.poly import MultiPoly, PolyDomain, VarRegistry

from bareiss_reference import det_bareiss
from builders import (
    gaussian,
    mat_add,
    mat_neg,
    mat_sub,
    matrix_from_rows,
    random_int_matrix,
    random_skew_matrix,
    scale,
    submatrix,
    transpose,
)
from leibniz_reference import det_leibniz


def test_identity_and_mul():
    ident = Matrix.identity(QQ, 3)
    m = Matrix(QQ, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    assert (ident * m).eq(m)
    assert (m * ident).eq(m)
    assert m.trace() == 3


def test_add_sub_scale():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    assert mat_sub(mat_add(a, b), b).eq(a)
    assert mat_add(a, mat_neg(a)).eq(mat_sub(b, b))
    assert scale(a, Fraction(1, 2))[1, 1] == 2
    assert transpose(a)[0, 1] == 3


def test_det_small():
    assert det(Matrix(QQ, [[2]])) == 2
    assert det(Matrix(QQ, [[1, 2], [3, 4]])) == -2
    assert det(Matrix.identity(QQ, 5)) == 1
    singular = Matrix(QQ, [[1, 2], [2, 4]])
    assert det(singular) == 0


def test_det_rejects_rectangular():
    with pytest.raises(NotSquareError):
        det(Matrix(QQ, [[1, 2, 3], [4, 5, 6]]))


def test_det_bareiss_matches_leibniz():
    rng = random.Random(99)
    for _ in range(25):
        m = random_int_matrix(rng, rng.randint(1, 5))
        assert det_bareiss(m) == det_leibniz(m)


def test_det_fractional_entries():
    m = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                    [Fraction(1, 5), Fraction(1, 7)]])
    assert det(m) == Fraction(1, 14) - Fraction(1, 15)


def test_charpoly_companion():
    # companion matrix of t^3 - 2t - 5
    m = Matrix(QQ, [[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    cp = charpoly(m, var="t")
    reg = cp.reg
    t = MultiPoly.variable(reg, "t")
    assert cp == t ** 3 - 2 * t - 5


def test_charpoly_monic_and_trace():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n)
        cp = charpoly(m)
        assert cp.degree_in("lambda") == n
        assert cp.coefficient_of("lambda", n).constant_value() == 1
        tr = cp.coefficient_of("lambda", n - 1).constant_value()
        assert tr == -m.trace()


@pytest.mark.parametrize("kernel, domain", [
    ("_charpoly_multimodular", QQ),
    ("_charpoly_berkowitz", PolyDomain(VarRegistry(("x",)), QQ)),
])
def test_charpoly_non_monic_kernel_result_raises(monkeypatch, kernel, domain):
    # a kernel answer of 2*lambda^n + ... must not pass the monic check
    def doubled(m):
        one = m.domain.one
        return [one] * m.nrows + [m.domain.add(one, one)]
    monkeypatch.setattr(matrix_module, kernel, doubled)
    m = matrix_from_rows(domain, [[1, 2], [3, 4]])
    with pytest.raises(ArithmeticError, match="came out non-monic"):
        charpoly(m)


def test_inverse_round_trip():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n)
        if det(m) == 0:
            continue
        assert (m * inverse(m)).eq(Matrix.identity(QQ, n))


def test_pfaffian_squares_to_det():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.choice((2, 4, 6))
        m = random_skew_matrix(rng, n)
        pf = pfaffian(m)
        assert pf * pf == det(m)


def test_pfaffian_canonical_block():
    m = Matrix(QQ, [[0, 3], [-3, 0]])
    assert pfaffian(m) == 3


def test_pfaffian_rejects_odd_and_nonskew():
    with pytest.raises(OddDimensionError):
        pfaffian(Matrix(QQ, [[0]]))
    with pytest.raises(NotSkewSymmetricError):
        pfaffian(Matrix(QQ, [[0, 1], [1, 0]]))


def test_submatrix():
    m = Matrix(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = submatrix(m, [0, 2], [1, 2])
    assert s.nrows == 2 and s.ncols == 2
    assert s[0, 0] == 2 and s[1, 1] == 9


def test_direct_sum():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[5]])
    s = direct_sum_matrices(a, b)
    assert s.nrows == 3
    assert s[2, 2] == 5
    assert s[0, 2] == 0
    assert det(s) == det(a) * det(b)


def test_symbolic_determinant():
    reg = VarRegistry(("a", "b"))
    from covertwist.poly import PolyDomain
    pd = PolyDomain(reg, QQ)
    a = MultiPoly.variable(reg, "a")
    b = MultiPoly.variable(reg, "b")
    m = Matrix(pd, [[a, b], [b, a]])
    assert det(m) == a ** 2 - b ** 2


# ---------------------------------------------------------------------------
# the stored rows against nested lists

XY = VarRegistry(("x", "y"))
X, Y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
# each domain with values whose sums and products cancel, and its zero
DOMAINS = [
    (QQ, [1, -1, 2, Fraction(-1, 2)]),
    (QI, [1, -1, gaussian(0, 1), gaussian(0, -1), gaussian(1, 1)]),
    (PolyDomain(XY, QQ), [X, -X, X * Y, MultiPoly.one(XY), -MultiPoly.one(XY)]),
]


def nested(dom, values, nrows, ncols):
    """Dense rows, about half of their entries the domain's zero: a
    zero polynomial over the polynomial ring."""
    entry = st.one_of(st.just(dom.zero), st.sampled_from(values))
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def is_zero(x) -> bool:
    return x.is_zero if isinstance(x, MultiPoly) else x == 0


def nested_product(dom, a, b):
    return [[sum((dom.mul(a[i][k], b[k][j]) for k in range(len(b))),
                 dom.zero) for j in range(len(b[0]))] for i in range(len(a))]


def stored_as_nonzeros(m: Matrix) -> bool:
    """Each row's columns ascend within the matrix, and no stored entry
    is zero."""
    return len(m.rows) == m.nrows and all(
        [j for j, _ in row] == sorted({j for j, _ in row})
        and all(0 <= j < m.ncols and not is_zero(x) for j, x in row)
        for row in m.rows)


def holds(m: Matrix, rows) -> bool:
    return m.shape == (len(rows), len(rows[0])) and all(
        m[i, j] == x for i, row in enumerate(rows) for j, x in enumerate(row))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_stored_rows_match_nested_lists(data):
    dom, values = data.draw(st.sampled_from(DOMAINS), label="domain")
    n, k, p = (data.draw(st.integers(1, 4), label=s) for s in "nkp")
    a_rows = data.draw(nested(dom, values, n, k), label="a")
    b_rows = data.draw(nested(dom, values, k, p), label="b")
    a, b = Matrix(dom, a_rows), Matrix(dom, b_rows)
    for m, rows in ((a, a_rows), (b, b_rows)):
        assert stored_as_nonzeros(m) and holds(m, rows)
    # a product whose terms cancel stores no entry there, so eq is a
    # comparison of the stored rows
    ab_rows = nested_product(dom, a_rows, b_rows)
    ab = a * b
    assert stored_as_nonzeros(ab) and holds(ab, ab_rows)
    assert ab.eq(Matrix(dom, ab_rows)) and ab.rows == Matrix(dom, ab_rows).rows
    other = data.draw(nested(dom, values, n, k), label="other")
    assert a.eq(Matrix(dom, other)) == (a_rows == other)
    assert not a.eq(b) or a_rows == b_rows
    if n == k:
        assert a.trace() == sum((a_rows[i][i] for i in range(n)), dom.zero)
    s = direct_sum_matrices(a, b)
    assert stored_as_nonzeros(s)
    assert holds(s, [row + [dom.zero] * p for row in a_rows]
                 + [[dom.zero] * k + row for row in b_rows])


@pytest.mark.parametrize("dom, x", [
    (QQ, 3), (QI, gaussian(1, -2)), (PolyDomain(XY, QQ), X * Y - 1)])
def test_cancelled_product_entry_is_not_stored(dom, x):
    a = Matrix(dom, [[x, x], [dom.zero, x]])
    b = Matrix(dom, [[dom.one, dom.zero], [dom.neg(dom.one), dom.one]])
    ab = a * b
    assert ab.rows == [[(1, x)], [(0, dom.neg(x)), (1, x)]]
    assert ab.eq(Matrix(dom, [[dom.zero, x], [dom.neg(x), x]]))
