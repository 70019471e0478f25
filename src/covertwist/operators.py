"""Weighted operators attached to graphs.

Twisted adjacency matrices pair edge weights with connection matrices;
the Laplacian is the weighted out-degree minus the twisted adjacency.
Both are assembled from the nonzero entries of the connection
matrices, each distinct matrix read once per build, so the work
follows the edges rather than the entries of the result.  The
directed line graph supports the cycle-counting operators, and the
Kasteleyn helpers produce clockwise-odd orientations and the skew
weightings they induce on planar embeddings.
"""

from __future__ import annotations

from itertools import chain, repeat

from .domains import QQ, coeff_is_integer, unify_scalar_domains
from .errors import (
    MissingConnectionEntryError,
    MissingWeightError,
    NotConnectedError,
    NotPlanarError,
    WeightsNotSymmetricError,
)
from .graphs import (
    DirectedGraph,
    FaceCollection,
    Graph,
    RotationSystem,
    faces,
    is_connected,
)
from .homotopy import spanning_tree
from .matrix import Matrix
from .poly import MultiPoly, PolyDomain, VarRegistry
from .representation import Connection, trivial_connection


# ---------------------------------------------------------------------------
# edge weights


class EdgeWeights:
    """One scalar per directed edge over a common domain."""

    def __init__(self, domain: object, values: tuple):
        self.domain = domain
        self.values = values

    def is_symmetric(self, g: Graph) -> bool:
        return all(self.domain.eq(self.values[e], self.values[g.inv[e]])
                   for e in range(g.num_edges))

    def is_integral(self) -> bool:
        """True when every weight is a rational integer or a polynomial
        (in indeterminate weights) with rational integer coefficients."""
        return all(v.is_integral() if isinstance(v, MultiPoly)
                   else coeff_is_integer(v) for v in self.values)


def symbolic_weights(g: Graph, prefix: str = "x") -> EdgeWeights:
    """One polynomial variable per unoriented edge, both orientations
    sharing it."""
    reg = VarRegistry(tuple(f"{prefix}_{u}" for u in range(g.num_unoriented)))
    dom = PolyDomain(reg, QQ)
    vals = tuple(MultiPoly.variable(reg, f"{prefix}_{g.unoriented_of[e]}")
                 for e in range(g.num_edges))
    return EdgeWeights(dom, vals)


def weights_from_unoriented(g: Graph, domain, per_unoriented) -> EdgeWeights:
    if len(per_unoriented) != g.num_unoriented:
        raise MissingWeightError(
            f"{len(per_unoriented)} values for {g.num_unoriented} edges")
    vals = tuple(domain.coerce(per_unoriented[g.unoriented_of[e]])
                 for e in range(g.num_edges))
    return EdgeWeights(domain, vals)


def lift_weights(p, base_weights: EdgeWeights) -> EdgeWeights:
    """Cover edges inherit the weight of the edge they project to."""
    vals = tuple(base_weights.values[e] for e in p.p_edge)
    return EdgeWeights(base_weights.domain, vals)


# ---------------------------------------------------------------------------
# twisted adjacency and the Laplacian


def _operator_domain(wdom, cdom):
    if isinstance(wdom, PolyDomain):
        if isinstance(cdom, PolyDomain):
            raise ValueError("polynomial connections are not supported")
        return PolyDomain(wdom.reg, unify_scalar_domains(wdom.coeff, cdom))
    return unify_scalar_domains(wdom, cdom)


def _assemble(dom, n: int, m: int, terms) -> Matrix:
    """Σ x·(E_vw ⊗ φ) over the (v, w, x, φ) terms, v and w among n
    vertices, x already in dom and φ of order m.  Each φ is read by its
    stored entries: a unit entry places x itself, and only positions
    that meet two or more terms take an addition."""
    add, mul, coerce = dom.add, dom.mul, dom.coerce
    rows: list[dict] = [{} for _ in range(n * m)]
    for v, w, xe, phi in terms:
        v, w = v * m, w * m
        for i, phi_row in enumerate(phi.rows):
            row = rows[v + i]
            for j, y in phi_row:
                term = xe if y == 1 else mul(xe, coerce(y))
                old = row.get(w + j)
                row[w + j] = term if old is None else add(old, term)
    return Matrix.from_sums(dom, [row.items() for row in rows], n * m)


def _checked_domain(dg: DirectedGraph, x: EdgeWeights, c: Connection):
    if len(x.values) != dg.num_edges:
        raise MissingWeightError(
            f"{len(x.values)} weights for {dg.num_edges} edges")
    if len(c.mats) != dg.num_edges:
        raise MissingConnectionEntryError(
            f"{len(c.mats)} connection entries for {dg.num_edges} edges")
    return _operator_domain(x.domain, c.domain)


def twisted_adjacency(g: Graph | DirectedGraph, x: EdgeWeights,
                      c: Connection) -> Matrix:
    """Block matrix whose (v,w) block sums x_e·φ_e over edges v→w."""
    dg = g.dg if isinstance(g, Graph) else g
    dom = _checked_domain(dg, x, c)
    return _assemble(dom, dg.num_vertices, c.degree,
                     zip(dg.src, dg.tgt, map(dom.coerce, x.values), c.mats))


def laplacian(g: Graph, x: EdgeWeights,
              c: Connection | None = None) -> Matrix:
    """Δf(v) = Σ_{e from v} x_e·(f(v) − φ_e f(t(e))), that is D − A^ρ:
    D holds each out-edge weight, loops included, on its source's
    diagonal block, and A^ρ is twisted_adjacency.  Both are assembled
    at once: each edge places x_e·I on its source's diagonal block and
    −x_e·φ_e in its own block."""
    if not x.is_symmetric(g):
        raise WeightsNotSymmetricError("Laplacian weights must be symmetric")
    if c is None:
        c = trivial_connection(QQ, g.num_edges)
    dom = _checked_domain(g.dg, x, c)
    weights = [dom.coerce(v) for v in x.values]
    return _assemble(dom, g.num_vertices, c.degree, chain(
        zip(g.src, g.src, weights, repeat(Matrix.identity(QQ, c.degree))),
        zip(g.src, g.tgt, map(dom.neg, weights), c.mats)))


# ---------------------------------------------------------------------------
# directed line graph


class LineDigraph:
    """Vertices are the directed edges of the underlying graph; arcs
    chain edges head-to-tail, forbidding immediate backtracks.  Each arc
    remembers the edge at its source, which is also where its weight
    comes from; loops of arcs thereby project to closed walks below."""

    def __init__(self, digraph: DirectedGraph, weights: EdgeWeights,
                 arc_source_edge: tuple[int, ...]):
        self.digraph = digraph
        self.weights = weights
        self.arc_source_edge = arc_source_edge


def line_digraph(g: Graph, x: EdgeWeights) -> LineDigraph:
    src = []
    tgt = []
    vals = []
    origin = []
    for e in range(g.num_edges):
        for ep in g.out_edges[g.tgt[e]]:
            if ep == g.inv[e]:
                continue
            src.append(e)
            tgt.append(ep)
            vals.append(x.values[e])
            origin.append(e)
    dg = DirectedGraph(g.num_edges, tuple(src), tuple(tgt))
    return LineDigraph(dg, EdgeWeights(x.domain, tuple(vals)), tuple(origin))


def pullback_connection(ld: LineDigraph, c: Connection) -> Connection:
    """Connection on the line digraph realizing, around any arc loop,
    the monodromy of the projected closed walk."""
    mats = tuple(c.mats[e] for e in ld.arc_source_edge)
    return Connection(c.domain, c.degree, mats)


# ---------------------------------------------------------------------------
# Kasteleyn orientations


def outer_face_index(fc: FaceCollection) -> int:
    """Longest face walk, ties broken by lowest leading edge (walks are
    listed by leading edge already, so the first maximum wins)."""
    best = 0
    for f, walk in enumerate(fc.walks):
        if len(walk) > len(fc.walks[best]):
            best = f
    return best


class FaceParityReport:
    """Per-face orientation counts; valid iff every bounded face has odd
    count."""

    def __init__(self, outer: int, counts: tuple[int, ...]):
        self.outer = outer
        self.counts = counts

    @property
    def ok(self) -> bool:
        return all(c % 2 == 1 for f, c in enumerate(self.counts)
                   if f != self.outer)


def check_clockwise_odd(g: Graph, rot: RotationSystem, orient: frozenset[int],
                        outer: int | None = None) -> FaceParityReport:
    """Count, per face walk, the edges traversed along their chosen
    orientation.  orient holds one directed edge per unoriented pair."""
    fc = faces(g, rot)
    if outer is None:
        outer = outer_face_index(fc)
    counts = tuple(sum(1 for e in walk if e in orient) for walk in fc.walks)
    return FaceParityReport(outer, counts)


def kasteleyn_orientation(g: Graph, rot: RotationSystem) -> frozenset[int]:
    """Orientation making every bounded face odd, for spherical
    embeddings.  Tree edges are oriented arbitrarily; each remaining
    edge is the parent link of a face in the dual tree and is fixed
    while walking that tree from the deepest faces inward."""
    if not is_connected(g):
        raise NotConnectedError("orientation needs a connected graph")
    fc = faces(g, rot)
    if fc.euler_characteristic != 2:
        raise NotPlanarError(
            f"embedding has Euler characteristic {fc.euler_characteristic}")
    outer = outer_face_index(fc)
    tree = spanning_tree(g, 0)
    chosen: set[int] = set()
    for (e, ebar) in g.unoriented:
        if g.unoriented_of[e] in tree.tree_edges:
            chosen.add(e)

    face_of = fc.face_of_edge
    nonttree = [(e, ebar) for (e, ebar) in g.unoriented
                if g.unoriented_of[e] not in tree.tree_edges]
    dual: list[list[tuple[int, int, int]]] = [[] for _ in fc.walks]
    for (e, ebar) in nonttree:
        f1, f2 = face_of[e], face_of[ebar]
        if f1 == f2:
            raise NotPlanarError("non-tree edge borders a single face")
        dual[f1].append((f2, e, ebar))
        dual[f2].append((f1, e, ebar))

    depth = {outer: 0}
    parent_link: dict[int, tuple[int, int]] = {}
    order = [outer]
    i = 0
    while i < len(order):
        f = order[i]
        i += 1
        for (f2, e, ebar) in dual[f]:
            if f2 not in depth:
                depth[f2] = depth[f] + 1
                parent_link[f2] = (e, ebar)
                order.append(f2)
    if len(order) != len(fc.walks):
        raise NotPlanarError("dual of the non-tree edges is disconnected")

    for f in sorted(parent_link, key=lambda f: -depth[f]):
        e, ebar = parent_link[f]
        mine = e if face_of[e] == f else ebar
        other = g.inv[mine]
        walk = fc.walks[f]
        count = sum(1 for d in walk if d in chosen)
        chosen.add(mine if count % 2 == 0 else other)
    report = check_clockwise_odd(g, rot, frozenset(chosen), outer)
    if not report.ok:
        raise NotPlanarError("orientation search failed parity check")
    return frozenset(chosen)


def kasteleyn_weights(g: Graph, orient: frozenset[int],
                      x: EdgeWeights) -> EdgeWeights:
    """Antisymmetrized weights: +x along the chosen orientation, −x
    against it.  With the trivial connection the resulting adjacency
    matrix is skew-symmetric."""
    if not x.is_symmetric(g):
        raise WeightsNotSymmetricError("need symmetric weights to skew")
    dom = x.domain
    vals = tuple(x.values[e] if e in orient else dom.neg(x.values[e])
                 for e in range(g.num_edges))
    return EdgeWeights(dom, vals)
