"""Constructors and views that only the tests use.

Gaussian rationals, random integer and skew-symmetric matrices,
matrices from rows of plain values, polynomials from exponent lists
and their coefficients in one variable, relabelled graphs, paths
reversed, concatenated, along a spanning tree and lifted to a cover,
the text of a free-group word, words reduced and concatenated, the word
of a loop and the loop of a word, a word's action on the fiber of a
cover and each generator's (the reference for the monodromy that coset
data read off the sheets), a fiber group from bare permutations, the
projection of a cover path, a word's image under a representation,
random unimodular representations and cyclic characters, a matrix's
dense rows, submatrices, zero matrices and entrywise matrix arithmetic,
unit edge weights, the coefficient-by-coefficient check of a
Laplacian charpoly against the forest oracle, and the fields of a graph,
tree, presentation or covering map, which compare by identity.
The program builds none of these, so they live here rather than in
`covertwist`.
"""

import random
from typing import Iterable, Sequence

from covertwist.certificates import unoriented_values
from covertwist.domains import QI, QQ, cyclotomic_field, root_of_unity
from covertwist.covering import CoveringMap, GaloisGroup, Perm
from covertwist.errors import NotAPathError
from covertwist.graphs import (
    DirectedGraph,
    Graph,
    Path,
    check_loop,
    path_target,
)
from covertwist.homotopy import FreeWord, Pi1Presentation, SpanningTree
from covertwist.matrix import Matrix, charpoly
from covertwist.operators import EdgeWeights, laplacian
from covertwist.oracles import rooted_forest_sum_by_components
from covertwist.poly import MultiPoly, VarRegistry
from covertwist.representation import Representation, representation


# each record class to its constructor's fields, in order
RECORD_FIELDS = {
    DirectedGraph: ("num_vertices", "src", "tgt"),
    Graph: ("dg", "inv"),
    SpanningTree: ("graph", "root", "parent_edge", "depth", "tree_edges"),
    Pi1Presentation: ("tree", "generators", "gen_edge"),
    CoveringMap: ("base", "cover", "p_vertex", "p_edge", "base_vertex",
                  "cover_base_vertex"),
}


def fields(value):
    """A record's constructor fields as a tuple, the records among them
    unfolded the same way; any other value as it is.  Two records built
    alike have equal fields."""
    names = RECORD_FIELDS.get(type(value))
    if names is None:
        return value
    return tuple(fields(getattr(value, name)) for name in names)


def gaussian(re, im):
    """re + im*i in QQ(i): a Cyclotomic of order 4, or an int or
    Fraction when im is 0."""
    return QI.coerce(re + im * root_of_unity(4))


def unimodular_rep(rng: random.Random, rank: int) -> Representation:
    """One unimodular 2 x 2 integer matrix [[1 + ab, a], [b, 1]] per
    generator, a and b drawn from -2 .. 2."""
    mats = []
    for _ in range(rank):
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        mats.append(Matrix(QQ, [[1 + a * b, a], [b, 1]]))
    return representation(QQ, mats)


def cyclic_character(rng: random.Random, rank: int, n: int) -> Representation:
    """A character into the n-th roots of unity over Q(zeta_n): each
    generator goes to a power zeta_n^k, k drawn from 1 .. n - 1."""
    dom = cyclotomic_field(n)
    return representation(
        dom, [Matrix(dom, [[root_of_unity(n, rng.randrange(1, n))]])
              for _ in range(rank)])


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


def reduce_word(w: FreeWord) -> FreeWord:
    """w with adjacent inverse letters cancelled, which is full
    reduction in a free group."""
    out: list[tuple[int, int]] = []
    for let in w:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def loop_to_word(pres: Pi1Presentation, loop: Path) -> FreeWord:
    """Reduced word of a loop at the root: drop tree edges, map the rest
    through gen_of_edge, then cancel."""
    check_loop(pres.graph, loop)
    if loop.base != pres.tree.root:
        raise ValueError(
            f"loop based at {loop.base}, presentation root is {pres.tree.root}")
    return reduce_word(tuple(pres.gen_of_edge[e] for e in loop.edges
                             if e in pres.gen_of_edge))


def project_path(p: CoveringMap, path: Path) -> Path:
    """The image of a cover path in the base."""
    return Path(p.p_vertex[path.base], tuple(p.p_edge[e] for e in path.edges))


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


def dense(m: Matrix) -> list[list]:
    """The rows of m written out in full, zeros included: fresh lists, so
    a test may change them and build the changed matrix with Matrix."""
    out = [[m.domain.zero] * m.ncols for _ in range(m.nrows)]
    for i, row in enumerate(m.rows):
        for j, x in row:
            out[i][j] = x
    return out


def submatrix(m: Matrix, rows, cols) -> Matrix:
    """The entries of m in the given rows and columns, in that order."""
    return Matrix(m.domain, [[m[i, j] for j in cols] for i in rows])


def invert_word(w: FreeWord) -> FreeWord:
    """The inverse word: the letters reversed, each inverted."""
    return tuple((g, -s) for (g, s) in reversed(w))


def path_concat(g: Graph, a: Path, b: Path) -> Path:
    if path_target(g, a) != b.base:
        raise NotAPathError("paths do not compose")
    return Path(a.base, a.edges + b.edges)


def path_reverse(g: Graph, p: Path) -> Path:
    """Reversed path through the involution."""
    return Path(path_target(g, p), tuple(g.inv[e] for e in reversed(p.edges)))


def path_to_root(tree: SpanningTree, v: int) -> Path:
    """Tree path from v up to the root."""
    edges = []
    while tree.parent_edge[v] is not None:
        e = tree.parent_edge[v]
        edges.append(e)
        v = tree.graph.tgt[e]
    return Path(v if not edges else tree.graph.src[edges[0]], tuple(edges))


def path_from_root(tree: SpanningTree, v: int) -> Path:
    return path_reverse(tree.graph, path_to_root(tree, v))


def letter_loop(pres: Pi1Presentation, gen: int, sign: int) -> Path:
    """The letter's loop at the root: down the tree, across the
    generator's edge in the letter's direction, back up."""
    g = pres.graph
    e = pres.gen_edge[gen] if sign == 1 else g.inv[pres.gen_edge[gen]]
    down = path_from_root(pres.tree, g.src[e])
    up = path_to_root(pres.tree, g.tgt[e])
    return path_concat(g, path_concat(g, down, Path(g.src[e], (e,))), up)


def realize_word(pres: Pi1Presentation, w: FreeWord) -> Path:
    """A loop at the root whose word reduces back to w: the letters'
    loops, each at the root, one after the other."""
    return Path(pres.tree.root,
                tuple(e for let in w for e in letter_loop(pres, *let).edges))


def lift_path(p: CoveringMap, path: Path, start: int) -> Path:
    """The unique lift of path with the given source vertex."""
    if p.p_vertex[start] != path.base:
        raise ValueError(f"vertex {start} lies over {p.p_vertex[start]}, "
                         f"path starts at {path.base}")
    at = start
    edges = []
    for e in path.edges:
        et = p.edge_lift_at[(e, at)]
        edges.append(et)
        at = p.cover.tgt[et]
    return Path(start, tuple(edges))


def fiber_action(p: CoveringMap, pres: Pi1Presentation, w: FreeWord,
                 vt: int) -> int:
    """Left action of a base loop class on the fiber over the base
    vertex: lift a loop representing the inverse word and take its
    endpoint.  Inverting makes composition act on the left:
    action(w1·w2, x) = action(w1, action(w2, x))."""
    if p.p_vertex[vt] != p.base_vertex:
        raise ValueError(f"vertex {vt} lies over {p.p_vertex[vt]}, "
                         f"not over {p.base_vertex}")
    lifted = lift_path(p, realize_word(pres, invert_word(w)), vt)
    return p.cover.tgt[lifted.edges[-1]] if lifted.edges else vt


def fiber_generator_permutations(p: CoveringMap,
                                 pres: Pi1Presentation) -> list[Perm]:
    """Permutation of fiber positions induced by each generator, acting
    on the left: position i goes to the endpoint of the generator's
    inverse loop, lifted from fiber point i, so that a word w1·w2 acts
    as w1 after w2.  The reference for CosetData.monodromy, which reads
    the same permutations off the sheets."""
    fiber = p.vertex_fibers[p.base_vertex]
    pos = {vt: i for i, vt in enumerate(fiber)}
    return [tuple(pos[fiber_action(p, pres, ((k, 1),), vt)] for vt in fiber)
            for k in range(pres.rank)]


def fiber_group(gens: Sequence[Perm]) -> GaloisGroup:
    """The group the permutations generate, acting on positions
    0 .. d - 1 of a fiber of d points."""
    return GaloisGroup(tuple(range(len(gens[0]))), tuple(gens))


def zero_matrix(domain, nrows: int, ncols: int) -> Matrix:
    return Matrix.from_rows(domain, [[] for _ in range(nrows)], ncols)


def _entrywise(op, *ms: Matrix) -> Matrix:
    if len({m.shape for m in ms}) != 1:
        raise ValueError("shape mismatch in an entrywise operation")
    return Matrix(ms[0].domain, [[op(*xs) for xs in zip(*rows)]
                                 for rows in zip(*map(dense, ms))])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(a.domain.add, a, b)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(a.domain.sub, a, b)


def mat_neg(a: Matrix) -> Matrix:
    return _entrywise(a.domain.neg, a)


def scale(a: Matrix, c) -> Matrix:
    """c·a for a scalar c of a's domain."""
    c = a.domain.coerce(c)
    return _entrywise(lambda x: a.domain.mul(c, x), a)


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.domain, [list(col) for col in zip(*dense(a))])
