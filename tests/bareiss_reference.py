"""Fraction-free (Bareiss) determinants, kept as a reference for tests.

The program takes every exact determinant and characteristic polynomial
from one kernel per kind of domain: multi-modular Hessenberg over QQ and
QQ(i), the division-free Berkowitz recurrence over polynomial rings and
cyclotomic fields.
Bareiss elimination shares no code with either, so tests compare the
kernels against it.  Its divisions are exact in any integral domain;
the exact division and the pivot-size hint it needs live here, since
the domains no longer carry them.
"""

from fractions import Fraction
from functools import partial

from covertwist.domains import Cyclotomic, _rat_div
from covertwist.matrix import Matrix
from covertwist.poly import MultiPoly, PolyDomain, VarRegistry

from builders import dense


def _exact_div(dom, a, b):
    """a / b in dom, where b divides a."""
    if isinstance(dom, PolyDomain):
        q = a.exact_div(b)
        if q is None:
            raise ArithmeticError("division expected to be exact left a remainder")
        return q
    if isinstance(a, Cyclotomic) or isinstance(b, Cyclotomic):
        return dom.coerce(a / b)
    if not b:
        raise ZeroDivisionError(f"division by 0 in {dom!r}")
    return _rat_div(a, b)


def _size(dom, a):
    """Pivot-selection hint; smaller is preferred."""
    if isinstance(dom, PolyDomain):
        return len(a.terms)
    if isinstance(a, Cyclotomic):
        return sum(_size(dom, c) for c in a.c)
    n = a.numerator if isinstance(a, Fraction) else a
    return abs(n).bit_length()


def det_bareiss(m: Matrix):
    """Fraction-free elimination; every division is exact in the domain."""
    dom = m.domain
    n = m.nrows
    if n == 0:
        return dom.one
    a = dense(m)
    is_zero = dom.is_zero
    mul = dom.mul
    sub = dom.sub
    ediv = partial(_exact_div, dom)
    size = partial(_size, dom)
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


def bareiss_charpoly(m: Matrix, var: str = "lambda") -> MultiPoly:
    """det(var*I - m) by Bareiss over m's ring with var adjoined: QQ[var]
    or QQ(i)[var] for scalar entries, R[var] for entries in a polynomial
    ring R."""
    dom = m.domain
    if isinstance(dom, PolyDomain):
        pd = PolyDomain(dom.reg.with_var(var), dom.coeff)
    else:
        pd = PolyDomain(VarRegistry((var,)), dom)
    lam = MultiPoly.variable(pd.reg, var)
    n = m.nrows
    return det_bareiss(Matrix(pd, [[lam - pd.coerce(m[i, j]) if i == j
                                    else -pd.coerce(m[i, j])
                                    for j in range(n)] for i in range(n)]))
