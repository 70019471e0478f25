"""Finite covering maps of graphs with involution.

Covers are built from permutation voltages on the generators of a base
presentation, validated structurally, and navigated by unique path
lifting.  On top of lifting sit the fiber action of base loops, the
sheets with one coset word each, normality and the fiber permutation
group, deck transformations, and quotients by subgroups of that group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CoverNotConnectedError,
    InternalCosetError,
    NotASubgroupError,
    QuotientConstructionFailedError,
    StartNotInFiberError,
    TransversalCheckFailedError,
    VertexNotInBaseFiberError,
    VoltageNotAntisymmetricError,
)
from .graphs import (
    DirectedGraph,
    Graph,
    Path,
    ValidationReport,
    is_connected,
)
from .homotopy import (
    EMPTY_WORD,
    FreeWord,
    Pi1Presentation,
    SpanningTree,
    invert_word,
    presentation_from_tree,
)

# ---------------------------------------------------------------------------
# permutations on {0..d-1}, stored as tuples of images

Perm = tuple[int, ...]


def perm_identity(d: int) -> Perm:
    return tuple(range(d))


def perm_compose(a: Perm, b: Perm) -> Perm:
    """a after b: i ↦ a[b[i]]."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def is_permutation(a, d: int) -> bool:
    return len(a) == d and sorted(a) == list(range(d))


def permutation_closure(gens: list[Perm], d: int,
                        limit: int | None = None) -> tuple[Perm, ...] | None:
    """All products of the generators (a finite permutation group, so
    inverses come for free).  Returns None once the size exceeds limit."""
    seen = {perm_identity(d)}
    frontier = [perm_identity(d)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_compose(g, x)
                if y not in seen:
                    seen.add(y)
                    if limit is not None and len(seen) > limit:
                        return None
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# voltages and cover construction


@dataclass(frozen=True)
class VoltageAssignment:
    """One permutation of {0..d-1} per presentation generator."""

    degree: int
    perms: tuple[Perm, ...]

    def __post_init__(self):
        for k, p in enumerate(self.perms):
            if not is_permutation(p, self.degree):
                raise ValueError(f"voltage for generator {k} is not a "
                                 f"permutation of 0..{self.degree - 1}")

    def is_transitive(self) -> bool:
        """Whether the generated group has a single orbit; equivalent to
        connectedness of the resulting cover."""
        d = self.degree
        parent = list(range(d))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for p in self.perms:
            for i in range(d):
                ri, rj = find(i), find(p[i])
                if ri != rj:
                    parent[ri] = rj
        return len({find(i) for i in range(d)}) == 1


@dataclass(frozen=True)
class CoveringMap:
    """Vertex and edge projections from a cover graph onto a base graph,
    with a marked base vertex and a marked lift of it."""

    base: Graph
    cover: Graph
    p_vertex: tuple[int, ...]
    p_edge: tuple[int, ...]
    base_vertex: int
    cover_base_vertex: int

    @cached_property
    def vertex_fibers(self) -> tuple[tuple[int, ...], ...]:
        fibers: list[list[int]] = [[] for _ in range(self.base.num_vertices)]
        for vt, v in enumerate(self.p_vertex):
            fibers[v].append(vt)
        return tuple(tuple(f) for f in fibers)

    @property
    def degree(self) -> int:
        return len(self.vertex_fibers[self.base_vertex])

    @cached_property
    def edge_lift_at(self) -> dict[tuple[int, int], int]:
        """(base edge, cover source vertex) ↦ the unique edge lift."""
        out: dict[tuple[int, int], int] = {}
        for et in range(self.cover.num_edges):
            out[(self.p_edge[et], self.cover.src[et])] = et
        return out

    def project_path(self, path: Path) -> Path:
        return Path(self.p_vertex[path.base],
                    tuple(self.p_edge[e] for e in path.edges))


def _sheet_cover(g: Graph, d: int, sigma: list[Perm],
                 base_vertex: int) -> CoveringMap:
    """Degree-d cover with one sheet permutation σ_e per directed edge:
    vertex (v, i) ↦ v·d+i, edge (e, i) ↦ e·d+i from src(e)·d+i to
    tgt(e)·d+σ_e(i), its inverse inv(e)·d+σ_e(i).  σ_ē must be σ_e
    inverted for the involution to close up."""
    src = []
    tgt = []
    inv = []
    for e in range(g.num_edges):
        se, te, ee = g.src[e], g.tgt[e], g.inv[e]
        sg = sigma[e]
        for i in range(d):
            src.append(se * d + i)
            tgt.append(te * d + sg[i])
            inv.append(ee * d + sg[i])
    cover = Graph(DirectedGraph(g.num_vertices * d, tuple(src), tuple(tgt)),
                  tuple(inv))
    p_vertex = tuple(v for v in range(g.num_vertices) for _ in range(d))
    p_edge = tuple(e for e in range(g.num_edges) for _ in range(d))
    return CoveringMap(g, cover, p_vertex, p_edge, base_vertex,
                       base_vertex * d)


def build_cover(pres: Pi1Presentation, volt: VoltageAssignment) -> CoveringMap:
    """Degree-d cover from voltages, laid out by _sheet_cover: tree edges
    keep the sheet, the preferred orientation of generator k permutes
    sheets by volt.perms[k].  The result satisfies every covering
    invariant but may be disconnected.
    """
    g = pres.graph
    sigma: list[Perm] = [perm_identity(volt.degree)] * g.num_edges
    for k, e in enumerate(pres.gen_edge):
        sigma[e] = volt.perms[k]
        sigma[g.inv[e]] = perm_inverse(volt.perms[k])
    return _sheet_cover(g, volt.degree, sigma, pres.tree.root)


def validate_covering(p: CoveringMap) -> ValidationReport:
    """Structural checks: projections commute with src/tgt/involution,
    are locally bijective on out- and in-stars, and have constant fiber
    size.  Violations are reported, not raised."""
    rep = ValidationReport()
    base, cover = p.base, p.cover
    if len(p.p_vertex) != cover.num_vertices:
        rep.add("vertex projection has wrong length")
        return rep
    if len(p.p_edge) != cover.num_edges:
        rep.add("edge projection has wrong length")
        return rep
    for vt, v in enumerate(p.p_vertex):
        if not (0 <= v < base.num_vertices):
            rep.add(f"vertex projection of {vt} out of range")
            return rep
    for et, e in enumerate(p.p_edge):
        if not (0 <= e < base.num_edges):
            rep.add(f"edge projection of {et} out of range")
            return rep

    for et in range(cover.num_edges):
        e = p.p_edge[et]
        if p.p_vertex[cover.src[et]] != base.src[e]:
            rep.add(f"edge {et}: source does not project to source")
        if p.p_vertex[cover.tgt[et]] != base.tgt[e]:
            rep.add(f"edge {et}: target does not project to target")
        if p.p_edge[cover.inv[et]] != base.inv[e]:
            rep.add(f"edge {et}: involution does not commute with projection")

    if set(p.p_vertex) != set(range(base.num_vertices)):
        rep.add("vertex projection not surjective")
    if set(p.p_edge) != set(range(base.num_edges)):
        rep.add("edge projection not surjective")

    for vt in range(cover.num_vertices):
        v = p.p_vertex[vt]
        if sorted(p.p_edge[et] for et in cover.out_edges[vt]) != \
                sorted(base.out_edges[v]):
            rep.add(f"out-edges at {vt} do not biject onto out-edges at {v}")
        if sorted(p.p_edge[et] for et in cover.in_edges[vt]) != \
                sorted(base.in_edges[v]):
            rep.add(f"in-edges at {vt} do not biject onto in-edges at {v}")

    sizes = {len(f) for f in p.vertex_fibers}
    if len(sizes) > 1:
        rep.add(f"fiber sizes differ: {sorted(sizes)}")
    if p.p_vertex[p.cover_base_vertex] != p.base_vertex:
        rep.add("marked cover vertex is not over the marked base vertex")
    return rep


def lift_path(p: CoveringMap, path: Path, start: int) -> Path:
    """The unique lift of path with the given source vertex."""
    if p.p_vertex[start] != path.base:
        raise StartNotInFiberError(
            f"vertex {start} lies over {p.p_vertex[start]}, "
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
    action(w1·w2, x) = action(w1, action(w2, x)).
    """
    if p.p_vertex[vt] != p.base_vertex:
        raise VertexNotInBaseFiberError(
            f"vertex {vt} lies over {p.p_vertex[vt]}, "
            f"not over {p.base_vertex}")
    loop = pres.realize_word(invert_word(w))
    lifted = lift_path(p, loop, vt)
    return p.cover.tgt[lifted.edges[-1]] if lifted.edges else vt


# ---------------------------------------------------------------------------
# fiber permutation group


@dataclass(frozen=True)
class GaloisGroup:
    """Image of the base loop group in the symmetric group of the fiber
    over the base vertex; positions index `fiber` in vertex order.
    Present only for normal covers, where the action is regular."""

    fiber: tuple[int, ...]
    gen_perms: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def position(self) -> dict[int, int]:
        return {vt: i for i, vt in enumerate(self.fiber)}

    def is_abelian(self) -> bool:
        for i, a in enumerate(self.gen_perms):
            for b in self.gen_perms[i + 1:]:
                if perm_compose(a, b) != perm_compose(b, a):
                    return False
        return True


def fiber_generator_permutations(p: CoveringMap,
                                 pres: Pi1Presentation) -> list[Perm]:
    """Permutation of fiber positions induced by each generator."""
    fiber = p.vertex_fibers[p.base_vertex]
    pos = {vt: i for i, vt in enumerate(fiber)}
    perms = []
    for k in range(pres.rank):
        w: FreeWord = ((k, 1),)
        perms.append(tuple(pos[fiber_action(p, pres, w, fiber[i])]
                           for i in range(len(fiber))))
    # composing letter permutations must reproduce single-letter lifts
    return perms


def is_normal(p: CoveringMap,
              pres: Pi1Presentation) -> tuple[bool, GaloisGroup | None]:
    """A connected cover is normal exactly when the fiber permutation
    group is regular, i.e. has as many elements as the fiber."""
    if not is_connected(p.cover):
        raise CoverNotConnectedError("normality is defined for connected covers")
    fiber = p.vertex_fibers[p.base_vertex]
    d = len(fiber)
    gens = fiber_generator_permutations(p, pres)
    elements = permutation_closure(gens, d, limit=d)
    if elements is None:
        return False, None
    if len(elements) != d:
        raise InternalCosetError(
            "transitive action with fewer elements than points")
    return True, GaloisGroup(fiber, tuple(gens), elements)


# ---------------------------------------------------------------------------
# coset words


@dataclass(frozen=True)
class CosetData:
    """Tree-derived coset bookkeeping for a connected cover.

    The cover tree contains every lift of the base tree; those lifts are
    the d sheets, sheet[ṽ] being the marked-fiber position of ṽ's sheet.
    transversal[c], the word of the projected cover tree path from that
    fiber vertex to the root, carries the marked lift to it (the marked
    lift's own is empty); g_word[ṽ] is the word of ṽ's sheet, the class
    of (base tree path down) · (projected cover tree path up)."""

    covering: CoveringMap
    base_tree: SpanningTree
    base_pres: Pi1Presentation
    cover_tree: SpanningTree
    cover_pres: Pi1Presentation
    sheet: tuple[int, ...]
    g_word: tuple[FreeWord, ...]
    transversal: tuple[FreeWord, ...]

    @property
    def fiber(self) -> tuple[int, ...]:
        return self.covering.vertex_fibers[self.covering.base_vertex]


def _spanning_tree_within(g: Graph, root: int,
                          allowed: frozenset[int]) -> SpanningTree:
    """BFS spanning tree using only the allowed unoriented edges; the
    allowed set must already be a spanning tree's edge set."""
    n = g.num_vertices
    parent: list[int | None] = [None] * n
    depth = [-1] * n
    depth[root] = 0
    q = deque([root])
    while q:
        v = q.popleft()
        for e in g.out_edges[v]:
            if g.unoriented_of[e] not in allowed:
                continue
            w = g.tgt[e]
            if depth[w] == -1:
                depth[w] = depth[v] + 1
                parent[w] = g.inv[e]
                q.append(w)
    if any(d == -1 for d in depth):
        raise CoverNotConnectedError("edge set does not span the cover")
    return SpanningTree(g, root, tuple(parent), tuple(depth), allowed)


def coset_data(p: CoveringMap, base_tree: SpanningTree) -> CosetData:
    """Complete the lifted base tree to a cover spanning tree (adding
    the lowest-index connecting lifts of generator edges), label every
    cover vertex with its sheet, and read one base word off each sheet.
    The transversal property (the words over the marked fiber reach each
    fiber point exactly once) is re-verified through the fiber action
    and failure means a bug, not bad input."""
    if not is_connected(p.cover):
        raise CoverNotConnectedError("coset words need a connected cover")
    if base_tree.root != p.base_vertex:
        raise ValueError("base tree must be rooted at the marked base vertex")
    base_pres = presentation_from_tree(base_tree)
    cover = p.cover

    chosen: set[int] = set()
    parent = list(range(cover.num_vertices))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    deferred = []
    for u, (e, _) in enumerate(cover.unoriented):
        if base_tree.graph.unoriented_of[p.p_edge[e]] in base_tree.tree_edges:
            chosen.add(u)
            ra, rb = find(cover.src[e]), find(cover.tgt[e])
            if ra != rb:
                parent[ra] = rb
        else:
            deferred.append((u, e))
    fiber = p.vertex_fibers[p.base_vertex]
    sheet_of_root = {find(vt): c for c, vt in enumerate(fiber)}
    sheet = tuple(sheet_of_root[find(vt)] for vt in range(cover.num_vertices))
    for u, e in deferred:
        ra, rb = find(cover.src[e]), find(cover.tgt[e])
        if ra != rb:
            parent[ra] = rb
            chosen.add(u)

    cover_tree = _spanning_tree_within(cover, p.cover_base_vertex,
                                       frozenset(chosen))
    cover_pres = presentation_from_tree(cover_tree)

    transversal = tuple(
        base_pres.loop_to_word(p.project_path(cover_tree.path_to_root(vt)))
        for vt in fiber)
    if transversal[sheet[p.cover_base_vertex]] != EMPTY_WORD:
        raise TransversalCheckFailedError("marked lift has a nonempty word")
    for vt, w in zip(fiber, transversal):
        if fiber_action(p, base_pres, w, p.cover_base_vertex) != vt:
            raise TransversalCheckFailedError(
                f"coset word of {vt} does not carry the marked lift to it")
    return CosetData(p, base_tree, base_pres, cover_tree, cover_pres, sheet,
                     tuple(transversal[c] for c in sheet), transversal)


# ---------------------------------------------------------------------------
# deck transformations and quotients


@dataclass(frozen=True)
class DeckTransformation:
    """Cover automorphism commuting with the projection, recorded as
    plain vertex and edge relabelings."""

    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]


def deck_transformation(p: CoveringMap, fiber: tuple[int, ...],
                        sigma: Perm) -> DeckTransformation:
    """The automorphism sending the marked fiber by sigma (positions of
    `fiber`), propagated over the whole cover by edge lifting.  Raises
    when sigma does not extend, which for connected covers means sigma
    is not a deck permutation."""
    cover = p.cover
    vmap = [-1] * cover.num_vertices
    emap = [-1] * cover.num_edges
    for pos, vt in enumerate(fiber):
        vmap[vt] = fiber[sigma[pos]]
    q = deque(fiber)
    while q:
        vt = q.popleft()
        for et in cover.out_edges[vt]:
            img = p.edge_lift_at[(p.p_edge[et], vmap[vt])]
            if emap[et] == -1:
                emap[et] = img
            elif emap[et] != img:
                raise QuotientConstructionFailedError(
                    "permutation does not extend to a deck transformation")
            w = cover.tgt[et]
            wimg = cover.tgt[img]
            if vmap[w] == -1:
                vmap[w] = wimg
                q.append(w)
            elif vmap[w] != wimg:
                raise QuotientConstructionFailedError(
                    "permutation does not extend to a deck transformation")
    if sorted(vmap) != list(range(cover.num_vertices)) or \
            sorted(emap) != list(range(cover.num_edges)):
        raise QuotientConstructionFailedError("extension is not a bijection")
    for et in range(cover.num_edges):
        if emap[cover.inv[et]] != cover.inv[emap[et]]:
            raise QuotientConstructionFailedError(
                "extension breaks the involution")
    return DeckTransformation(tuple(vmap), tuple(emap))


def check_subgroup(elements: tuple[Perm, ...],
                   ambient: tuple[Perm, ...]) -> tuple[Perm, ...]:
    """Sorted subgroup elements; raises unless the set is a subgroup of
    the ambient element set."""
    s = set(elements)
    amb = set(ambient)
    d = len(ambient[0])
    if not s <= amb:
        raise NotASubgroupError("elements are not all in the group")
    if perm_identity(d) not in s:
        raise NotASubgroupError("identity missing")
    for a in s:
        if perm_inverse(a) not in s:
            raise NotASubgroupError("not closed under inverses")
        for b in s:
            if perm_compose(a, b) not in s:
                raise NotASubgroupError("not closed under composition")
    return tuple(sorted(s))


@dataclass(frozen=True)
class QuotientData:
    """Orbit quotient of a cover by a subgroup of deck permutations: the
    intermediate graph, the covering it induces over the base, and the
    covering of it by the original cover."""

    subgroup: tuple[Perm, ...]
    mid_over_base: CoveringMap          # quotient graph → base
    cover_over_mid: CoveringMap         # original cover → quotient graph
    decks: tuple[DeckTransformation, ...]


def quotient_by_subgroup(p: CoveringMap, galois: GaloisGroup,
                         subgroup: tuple[Perm, ...]) -> QuotientData:
    """Quotient the cover by the deck transformations attached to a
    subgroup of fiber permutations (orbits become vertices and edges).
    The subgroup acts freely, so all orbits share its cardinality."""
    sub = check_subgroup(subgroup, galois.elements)
    cover = p.cover
    decks = tuple(deck_transformation(p, galois.fiber, h) for h in sub)

    def orbit_labels(maps: list[tuple[int, ...]], count: int) -> tuple[list[int], list[int]]:
        label = [-1] * count
        reps = []
        for x in range(count):
            if label[x] != -1:
                continue
            orb = sorted({m[x] for m in maps})
            if orb[0] != x:
                raise QuotientConstructionFailedError(
                    "orbit representative out of order")
            if len(orb) != len(sub):
                raise QuotientConstructionFailedError(
                    "orbit size differs from subgroup order")
            idx = len(reps)
            reps.append(x)
            for y in orb:
                if label[y] != -1:
                    raise QuotientConstructionFailedError("orbits overlap")
                label[y] = idx
        return label, reps

    vlabel, vreps = orbit_labels([d.vertex_map for d in decks],
                                 cover.num_vertices)
    elabel, ereps = orbit_labels([d.edge_map for d in decks],
                                 cover.num_edges)

    src = []
    tgt = []
    inv = []
    for er in ereps:
        src.append(vlabel[cover.src[er]])
        tgt.append(vlabel[cover.tgt[er]])
        inv.append(elabel[cover.inv[er]])
    for d in decks:
        for er in ereps:
            em = d.edge_map[er]
            if (vlabel[cover.src[em]], vlabel[cover.tgt[em]],
                    elabel[cover.inv[em]]) != \
                    (src[elabel[er]], tgt[elabel[er]], inv[elabel[er]]):
                raise QuotientConstructionFailedError(
                    "orbit structure maps are not constant on orbits")
    for k, kk in enumerate(inv):
        if kk == k:
            raise QuotientConstructionFailedError(
                "quotient would carry a self-inverse edge")
    mid = Graph(DirectedGraph(len(vreps), tuple(src), tuple(tgt)), tuple(inv))

    mid_over_base = CoveringMap(
        base=p.base, cover=mid,
        p_vertex=tuple(p.p_vertex[vr] for vr in vreps),
        p_edge=tuple(p.p_edge[er] for er in ereps),
        base_vertex=p.base_vertex,
        cover_base_vertex=vlabel[p.cover_base_vertex])
    cover_over_mid = CoveringMap(
        base=mid, cover=cover,
        p_vertex=tuple(vlabel), p_edge=tuple(elabel),
        base_vertex=vlabel[p.cover_base_vertex],
        cover_base_vertex=p.cover_base_vertex)
    for name, cm in (("quotient over base", mid_over_base),
                     ("cover over quotient", cover_over_mid)):
        report = validate_covering(cm)
        if not report.ok:
            raise QuotientConstructionFailedError(
                f"{name} is not a covering: {report.problems[0]}")
    return QuotientData(sub, mid_over_base, cover_over_mid, decks)


def identity_cover(g: Graph, base_vertex: int = 0) -> CoveringMap:
    """Degree-1 cover of a graph by itself."""
    return CoveringMap(g, g, tuple(range(g.num_vertices)),
                       tuple(range(g.num_edges)), base_vertex, base_vertex)


def edge_voltage_cover(g: Graph, voltages: tuple[tuple[int, ...], ...],
                       moduli: tuple[int, ...],
                       base_vertex: int = 0) -> CoveringMap:
    """Abelian cover from one voltage vector per directed edge, sheet
    group ⊕ ℤ/moduli[j].

    Sheets are indexed in mixed radix (last modulus fastest) and laid
    out by _sheet_cover; edge (e, s) runs from (src e, s) to
    (tgt e, s + voltage_e).  The involution needs
    voltage(ē) = −voltage(e) componentwise, which is checked.
    """
    k = len(moduli)
    if len(voltages) != g.num_edges:
        raise VoltageNotAntisymmetricError(
            f"{len(voltages)} voltage vectors for {g.num_edges} edges")
    volts = []
    for e in range(g.num_edges):
        vec = voltages[e]
        if len(vec) != k:
            raise VoltageNotAntisymmetricError(
                f"edge {e}: voltage arity {len(vec)} != {k}")
        volts.append(tuple(a % m for a, m in zip(vec, moduli)))
    for e in range(g.num_edges):
        back = tuple((-a) % m for a, m in zip(volts[e], moduli))
        if volts[g.inv[e]] != back:
            raise VoltageNotAntisymmetricError(
                f"edge {e}: reverse voltage is not the negation")

    # sheets in index order (mixed radix, last modulus fastest)
    sheets: list[tuple[int, ...]] = [()]
    for m in moduli:
        sheets = [s + (i,) for s in sheets for i in range(m)]
    index = {s: i for i, s in enumerate(sheets)}
    sigma = [tuple(index[tuple((a + b) % m
                               for a, b, m in zip(s, volts[e], moduli))]
                   for s in sheets)
             for e in range(g.num_edges)]
    return _sheet_cover(g, len(sheets), sigma, base_vertex)
