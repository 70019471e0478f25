"""Finite directed graphs and graphs carrying an edge-pairing involution.

Vertices and directed edges are dense integer indices.  A Graph is a
directed graph together with a fixed-point-free involution pairing each
directed edge with its reversal; the orbit of a pair is an unoriented
edge.  Parallel edges and loops are ordinary citizens: identity is
always the integer index, never the endpoint pair.  All iteration is in
index order, so downstream constructions are reproducible bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from .errors import (
    InvalidRotationError,
    NotALoopError,
    NotAPathError,
)


class DirectedGraph:
    """Directed multigraph: parallel source/target tuples indexed by edge."""

    def __init__(self, num_vertices: int, src: tuple[int, ...],
                 tgt: tuple[int, ...]):
        self.num_vertices = num_vertices
        self.src = src
        self.tgt = tgt
        if len(self.src) != len(self.tgt):
            raise ValueError("src and tgt lengths differ")
        for e in range(len(self.src)):
            if not (0 <= self.src[e] < self.num_vertices
                    and 0 <= self.tgt[e] < self.num_vertices):
                raise ValueError(f"edge {e} has endpoint out of range")

    def _key(self):
        return (self.num_vertices, self.src, self.tgt)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self.src)

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for e, v in enumerate(self.src):
            out[v].append(e)
        return tuple(tuple(l) for l in out)

    @cached_property
    def in_edges(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for e, v in enumerate(self.tgt):
            inc[v].append(e)
        return tuple(tuple(l) for l in inc)


class Graph:
    """Directed graph with a fixed-point-free edge involution.

    inv[e] is the reversed edge of e; a valid graph has inv[e] != e,
    inv[inv[e]] == e and src[inv[e]] == tgt[e].  Construction does not
    enforce these (validate_graph reports violations); the derived
    properties below assume them.
    """

    def __init__(self, dg: DirectedGraph, inv: tuple[int, ...]):
        self.dg = dg
        self.inv = inv

    def _key(self):
        return (self.dg, self.inv)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def num_vertices(self) -> int:
        return self.dg.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of directed edges (always even for valid graphs)."""
        return self.dg.num_edges

    @property
    def src(self) -> tuple[int, ...]:
        return self.dg.src

    @property
    def tgt(self) -> tuple[int, ...]:
        return self.dg.tgt

    @property
    def out_edges(self):
        return self.dg.out_edges

    @property
    def in_edges(self):
        return self.dg.in_edges

    @cached_property
    def unoriented(self) -> tuple[tuple[int, int], ...]:
        """Involution orbits as (e, inv[e]) with e the smaller index."""
        return tuple((e, self.inv[e]) for e in range(self.num_edges)
                     if e < self.inv[e])

    @property
    def num_unoriented(self) -> int:
        return len(self.unoriented)

    @cached_property
    def unoriented_of(self) -> tuple[int, ...]:
        """Directed edge index to unoriented edge index."""
        out = [0] * self.num_edges
        for u, (e, ebar) in enumerate(self.unoriented):
            out[e] = u
            out[ebar] = u
        return tuple(out)


def build_graph(num_vertices: int,
                edge_pairs: Iterable[tuple[int, int]]) -> Graph:
    """Graph from unoriented endpoint pairs.

    Pair k becomes directed edges 2k (forward) and 2k+1 (reversed);
    unoriented edge k is that orbit.  Loops give two distinct directed
    loops at the vertex.
    """
    src: list[int] = []
    tgt: list[int] = []
    inv: list[int] = []
    for (u, v) in edge_pairs:
        e = len(src)
        src.extend((u, v))
        tgt.extend((v, u))
        inv.extend((e + 1, e))
    return Graph(DirectedGraph(num_vertices, tuple(src), tuple(tgt)), tuple(inv))


class Path:
    """Edge sequence with an explicit start vertex (empty paths allowed)."""

    def __init__(self, base: int, edges: tuple[int, ...] = ()):
        self.base = base
        self.edges = edges

    def __len__(self):
        return len(self.edges)


def check_path(g: Graph | DirectedGraph, p: Path) -> None:
    dg = g.dg if isinstance(g, Graph) else g
    at = p.base
    if not (0 <= at < dg.num_vertices):
        raise NotAPathError(f"start vertex {at} out of range")
    for e in p.edges:
        if not (0 <= e < dg.num_edges):
            raise NotAPathError(f"edge {e} out of range")
        if dg.src[e] != at:
            raise NotAPathError(
                f"edge {e} starts at {dg.src[e]}, expected {at}")
        at = dg.tgt[e]


def path_target(g: Graph | DirectedGraph, p: Path) -> int:
    dg = g.dg if isinstance(g, Graph) else g
    return dg.tgt[p.edges[-1]] if p.edges else p.base


def check_loop(g: Graph | DirectedGraph, p: Path) -> None:
    check_path(g, p)
    if path_target(g, p) != p.base:
        raise NotALoopError(
            f"path ends at {path_target(g, p)}, not its start {p.base}")


class ValidationReport:
    """Outcome of a structural validation; empty problem list means valid."""

    def __init__(self, problems: list[str] | None = None):
        self.problems = [] if problems is None else problems

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str) -> None:
        self.problems.append(msg)


def validate_graph(g: Graph) -> ValidationReport:
    """Check the involution axioms; violations are reported, not thrown."""
    rep = ValidationReport()
    m = g.num_edges
    if len(g.inv) != m:
        rep.add(f"involution has {len(g.inv)} entries for {m} edges")
        return rep
    for e in range(m):
        ebar = g.inv[e]
        if not (0 <= ebar < m):
            rep.add(f"inv[{e}] = {ebar} out of range")
            continue
        if ebar == e:
            rep.add(f"involution fixes edge {e}")
        if g.inv[ebar] != e:
            rep.add(f"inv[inv[{e}]] = {g.inv[ebar]} != {e}")
        if g.src[ebar] != g.tgt[e]:
            rep.add(f"src[inv[{e}]] = {g.src[ebar]} != tgt[{e}] = {g.tgt[e]}")
    if m % 2 != 0:
        rep.add(f"odd number of directed edges: {m}")
    return rep


def is_connected(g: Graph | DirectedGraph) -> bool:
    """Every ordered vertex pair joined by a path.

    For Graph inputs this is undirected reachability (the involution
    provides both directions); for bare directed graphs it is strong
    connectivity.  Fewer than n - 1 unoriented edges (n edges for a
    digraph) refute it before anything per vertex is built.
    """
    dg = g.dg if isinstance(g, Graph) else g
    n = dg.num_vertices
    if n <= 1:
        return True
    if n > (g.num_unoriented + 1 if isinstance(g, Graph) else dg.num_edges):
        return False

    def reaches_all(out_star) -> bool:
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for e in out_star[v]:
                w = dg.tgt[e] if out_star is dg.out_edges else dg.src[e]
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    if isinstance(g, Graph):
        return reaches_all(dg.out_edges)
    return reaches_all(dg.out_edges) and reaches_all(dg.in_edges)


class RotationSystem:
    """Cyclic order of the out-edges at each vertex (an embedding up to
    reflection); orders[v] lists the directed edges with source v."""

    def __init__(self, orders: tuple[tuple[int, ...], ...]):
        self.orders = orders

    @cached_property
    def successor(self) -> dict[int, int]:
        nxt: dict[int, int] = {}
        for cyc in self.orders:
            for i, e in enumerate(cyc):
                nxt[e] = cyc[(i + 1) % len(cyc)]
        return nxt


def validate_rotation(g: Graph, rot: RotationSystem) -> None:
    if len(rot.orders) != g.num_vertices:
        raise InvalidRotationError(
            f"rotation lists {len(rot.orders)} vertices, graph has {g.num_vertices}")
    for v in range(g.num_vertices):
        if sorted(rot.orders[v]) != sorted(g.out_edges[v]):
            raise InvalidRotationError(
                f"rotation at vertex {v} is not a cyclic order of its out-star")


class FaceCollection:
    """Face walks of an embedded graph plus the Euler characteristic."""

    def __init__(self, walks: tuple[tuple[int, ...], ...],
                 euler_characteristic: int):
        self.walks = walks
        self.euler_characteristic = euler_characteristic

    @cached_property
    def face_of_edge(self) -> dict[int, int]:
        out = {}
        for f, walk in enumerate(self.walks):
            for e in walk:
                out[e] = f
        return out


def faces(g: Graph, rot: RotationSystem) -> FaceCollection:
    """Face walks under the next-edge rule: follow the reversal, then its
    rotation successor.  Every directed edge lies on exactly one walk.
    Euler characteristic is V - E + F with E counting unoriented edges.
    """
    validate_rotation(g, rot)
    nxt = rot.successor
    seen = [False] * g.num_edges
    walks: list[tuple[int, ...]] = []
    for e0 in range(g.num_edges):
        if seen[e0]:
            continue
        walk = []
        e = e0
        while not seen[e]:
            seen[e] = True
            walk.append(e)
            e = nxt[g.inv[e]]
        walks.append(tuple(walk))
    chi = g.num_vertices - g.num_unoriented + len(walks)
    return FaceCollection(tuple(walks), chi)


def default_rotation(g: Graph) -> RotationSystem:
    """Out-edges in index order at every vertex."""
    return RotationSystem(tuple(g.out_edges[v] for v in range(g.num_vertices)))
