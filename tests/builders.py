"""Constructors and views that only the tests use.

Gaussian rationals, random integer and skew-symmetric matrices,
matrices from rows of plain values, polynomials from exponent lists
and their coefficients in one variable, relabelled graphs and the text
of a free-group word.  The
program builds none of these, so they live here rather than in
`covertwist`.
"""

import random
from typing import Iterable, Sequence

from covertwist.domains import QI, QQ, root_of_unity
from covertwist.graphs import DirectedGraph, Graph
from covertwist.homotopy import FreeWord
from covertwist.matrix import Matrix
from covertwist.poly import MultiPoly, VarRegistry


def gaussian(re, im):
    """re + im*i in QQ(i): a Cyclotomic of order 4, or an int or
    Fraction when im is 0."""
    return QI.coerce(re + im * root_of_unity(4))


def random_int_matrix(rng: random.Random, n: int, bound: int = 9) -> Matrix:
    return Matrix(QQ, [[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])


def random_skew_matrix(rng: random.Random, n: int, bound: int = 9) -> Matrix:
    data = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            data[i][j] = v
            data[j][i] = -v
    return Matrix(QQ, data)


def evaluate(poly: MultiPoly, values: dict):
    """The scalar poly takes with a scalar for every variable."""
    total = 0
    for key, c in poly.terms.items():
        for name, e in zip(poly.reg.names, poly.reg.unpack(key)):
            c = c * values[name] ** e
        total = total + c
    return total


def matrix_from_rows(domain, rows) -> Matrix:
    """The matrix of rows, each entry coerced into domain."""
    data = [[domain.coerce(x) for x in row] for row in rows]
    if len({len(r) for r in data}) > 1:
        raise ValueError("ragged rows")
    return Matrix(domain, data)


def poly_from_exponents(reg: VarRegistry,
                        entries: Iterable[tuple[Sequence[int], object]]
                        ) -> MultiPoly:
    """The sum of c * x^exps over the (exps, c) entries; repeated
    exponents add up and zero sums are dropped."""
    terms: dict = {}
    for exps, c in entries:
        if not c:
            continue
        k = reg.pack(exps)
        acc = terms.get(k)
        if acc is None:
            terms[k] = c
        elif acc + c:
            terms[k] = acc + c
        else:
            del terms[k]
    return MultiPoly(reg, terms)


def by_var(p: MultiPoly, name: str) -> dict[int, MultiPoly]:
    """{exponent: coefficient} of p in the variable name, ascending; each
    coefficient is over p's registry without name."""
    i = p.reg.index(name)
    new_reg = VarRegistry(p.reg.names[:i] + p.reg.names[i + 1:])
    buckets: dict[int, dict] = {}
    for k, c in p.terms.items():
        exps = p.reg.unpack(k)
        buckets.setdefault(exps[i], {})[new_reg.pack(exps[:i] + exps[i + 1:])] = c
    return {e: MultiPoly(new_reg, t) for e, t in sorted(buckets.items())}


def relabel_vertices(g: Graph, perm: Sequence[int]) -> Graph:
    """Graph with vertex v renamed perm[v]; edge indices unchanged."""
    return Graph(DirectedGraph(g.num_vertices,
                               tuple(perm[v] for v in g.src),
                               tuple(perm[v] for v in g.tgt)),
                 g.inv)


def word_to_text(w: FreeWord) -> str:
    """g0*g1^-1 for the word ((0, 1), (1, -1)); 1 for the empty word."""
    if not w:
        return "1"
    return "*".join(f"g{g}" if s == 1 else f"g{g}^-1" for g, s in w)
