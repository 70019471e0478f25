"""Constructors and views that only the tests use.

Gaussian rationals, random integer and skew-symmetric matrices,
matrices from rows of plain values, polynomials from exponent lists
and their coefficients in one variable, relabelled graphs, the text
of a free-group word, words concatenated and reduced, a word's image
under a representation, submatrices, unit edge weights and the
coefficient-by-coefficient check of a Laplacian charpoly against the
forest oracle.
The program builds none of these, so they live here rather than in
`covertwist`.
"""

import random
from typing import Iterable, Sequence

from covertwist.certificates import unoriented_values
from covertwist.domains import QI, QQ, root_of_unity
from covertwist.graphs import DirectedGraph, Graph
from covertwist.homotopy import FreeWord, reduce_word
from covertwist.matrix import Matrix, charpoly
from covertwist.operators import EdgeWeights, laplacian
from covertwist.oracles import rooted_forest_sum_by_components
from covertwist.poly import MultiPoly, VarRegistry
from covertwist.representation import Representation


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


def unit_weights(g, domain=QQ) -> EdgeWeights:
    """Weight one on every directed edge of g."""
    return EdgeWeights(domain, (domain.one,) * g.num_edges)


def forest_coefficient_checks(g: Graph, x: EdgeWeights) -> list[tuple[int, bool]]:
    """Every Laplacian charpoly coefficient against the forest oracle:
    (−1)^{n−i}·c_i must equal the i-component rooted-forest sum."""
    P = charpoly(laplacian(g, x))
    n = g.num_vertices
    dom = x.domain
    oracle = rooted_forest_sum_by_components(g, dom, unoriented_values(g, x))
    out = []
    for i in range(n + 1):
        ci = P.coefficient_of("lambda", i)
        lhs = ci if (n - i) % 2 == 0 else -ci
        rhs = oracle.get(i, dom.zero)
        rhs = (rhs.lift(ci.reg) if isinstance(rhs, MultiPoly)
               else MultiPoly.const(ci.reg, rhs))
        out.append((i, lhs == rhs))
    return out


def concat_words(*ws: FreeWord) -> FreeWord:
    """The words one after another, reduced."""
    out: list[tuple[int, int]] = []
    for w in ws:
        out.extend(w)
    return reduce_word(tuple(out))


def rep_of_word(rho: Representation, w: FreeWord) -> Matrix:
    """ρ(w), one generator image or inverse per letter, left to right."""
    out = Matrix.identity(rho.domain, rho.degree)
    for (k, s) in w:
        out = out * (rho.gen_mats[k] if s == 1 else rho.gen_invs[k])
    return out


def submatrix(m: Matrix, rows, cols) -> Matrix:
    """The entries of m in the given rows and columns, in that order."""
    return Matrix(m.domain, [[m.data[i][j] for j in cols] for i in rows])
