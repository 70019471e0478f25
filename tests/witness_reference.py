"""The ψ and Q checks of the cover-split witness as dense or dict-based
computations, kept as a reference for tests.

The program compares ψ·a_cover with a_base·ψ one base row at a time,
reads each ρ# image's sheet permutation off its nonzero entries to
restrict it to the complement of the all-ones vector, and certifies Q
invertible by exhibiting its inverse.  This module computes the same
answers the long way:

* intertwines keys every nonzero of ψ·a_cover and of a_base·ψ by its
  (row, column) position in two dicts and compares them on the union
  of the keys;
* permutation_complement finds each column's one nonzero by scanning
  the column entry by entry, and adds and subtracts the unit entries of
  the restricted image;
* q_splits takes det Q through the charpoly kernel and forms
  ρ#(γ)·Q and Q·(1 ⊕ ρ_c(γ)) as dense products, zeros and all.
"""

from itertools import compress

from covertwist.domains import QQ
from covertwist.matrix import Matrix, det, direct_sum_matrices
from covertwist.representation import Representation

from builders import dense


def intertwines(psi, m: int, a_cover: Matrix, a_base: Matrix) -> bool:
    """ψ·a_cover = a_base·ψ for ψ the 0/1 map of cover index ṽ·m + i to
    base index psi[ṽ]·m + i, on the union of the nonzero positions of
    both products."""
    dom = a_cover.domain
    add, is_zero, zero = dom.add, dom.is_zero, dom.zero
    to_base = [rb * m + i for rb in psi for i in range(m)]
    from_base: dict[int, list[int]] = {}
    for c, k in enumerate(to_base):
        from_base.setdefault(k, []).append(c)

    def nonzeros(a: Matrix):
        for r, arow in enumerate(dense(a)):
            for c in compress(range(len(arow)), arow):
                if not is_zero(arow[c]):
                    yield r, c, arow[c]

    lhs: dict = {}
    for r, c, val in nonzeros(a_cover):
        key = (to_base[r], c)
        lhs[key] = add(lhs[key], val) if key in lhs else val
    rhs = {(r, c): val for r, k, val in nonzeros(a_base)
           for c in from_base.get(k, ())}
    return all(dom.eq(lhs.get(key, zero), rhs.get(key, zero))
               for key in lhs.keys() | rhs.keys())


def permutation_complement(rep: Representation,
                           fixed: int = 0) -> Representation:
    """The restriction of a permutation representation to the span of
    e_j − e_fixed, j ≠ fixed, column by column; ValueError unless every
    image is a 0/1 permutation matrix."""
    d = rep.degree
    dom = rep.domain
    others = [j for j in range(d) if j != fixed]
    col_of = {j: c for c, j in enumerate(others)}

    def image_of(mat: Matrix) -> list[int]:
        img = [-1] * d
        for j in range(d):
            hits = [i for i in range(d) if not dom.is_zero(mat[i, j])]
            if len(hits) != 1 or not dom.eq(mat[hits[0], j], dom.one):
                raise ValueError("not a permutation matrix")
            img[j] = hits[0]
        return img

    def restrict(mat: Matrix) -> Matrix:
        img = image_of(mat)
        data = [[dom.zero] * (d - 1) for _ in range(d - 1)]
        for j in others:
            c = col_of[j]
            if img[j] != fixed:
                data[col_of[img[j]]][c] = dom.add(
                    data[col_of[img[j]]][c], dom.one)
            if img[fixed] != fixed:
                data[col_of[img[fixed]]][c] = dom.sub(
                    data[col_of[img[fixed]]][c], dom.one)
        return Matrix(dom, data)

    return Representation(dom, d - 1,
                          tuple(restrict(m) for m in rep.gen_mats),
                          tuple(restrict(m) for m in rep.gen_invs))


def dense_product(a: Matrix, b: Matrix) -> Matrix:
    """a·b entry by entry, every term summed, zeros included."""
    dom = a.domain
    out = []
    b_rows = dense(b)
    for row in dense(a):
        orow = []
        for j in range(b.ncols):
            acc = dom.zero
            for k, x in enumerate(row):
                acc = dom.add(acc, dom.mul(x, b_rows[k][j]))
            orow.append(acc)
        out.append(orow)
    return Matrix(dom, out)


def q_splits(perm: Representation, rho_c: Representation, q: Matrix) -> bool:
    """det Q ≠ 0 and ρ#(γ)·Q = Q·(1 ⊕ ρ_c(γ)) on every generator γ, by
    a determinant and dense products."""
    one = Matrix.identity(QQ, 1)
    return (not QQ.is_zero(det(q))
            and all(dense_product(g, q).eq(
                dense_product(q, direct_sum_matrices(one, c)))
                for g, c in zip(perm.gen_mats, rho_c.gen_mats)))
