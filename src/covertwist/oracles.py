"""Brute-force reference counts for the certificate machinery.

Everything here enumerates structures directly: subsets are walked one
edge at a time with a union-find carried along, and matchings are grown
vertex by vertex.  None of it shares logic with the linear-algebra
routes it is used to check, and all of it is intentionally naive, so
the budgets are small and hard.
"""

from __future__ import annotations

from .errors import BudgetExceededError
from .graphs import Graph

TREE_EDGE_BUDGET = 24
FOREST_EDGE_BUDGET = 20
MATCHING_VERTEX_BUDGET = 20


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def _edge_endpoints(g: Graph) -> list[tuple[int, int]]:
    return [(g.src[e], g.tgt[e]) for e, _ in g.unoriented]


def enum_spanning_trees(g: Graph) -> list[frozenset[int]]:
    """All spanning trees as sets of unoriented edge indices."""
    ne = g.num_unoriented
    if ne > TREE_EDGE_BUDGET:
        raise BudgetExceededError(
            f"{ne} edges exceeds the {TREE_EDGE_BUDGET}-edge tree budget")
    n = g.num_vertices
    ends = _edge_endpoints(g)
    need = n - 1
    out: list[frozenset[int]] = []

    def grow(k: int, chosen: list[int], uf_pairs: list[tuple[int, int]]):
        if len(chosen) == need:
            out.append(frozenset(chosen))
            return
        if ne - k < need - len(chosen):
            return
        for u in range(k, ne):
            a, b = ends[u]
            if a == b:
                continue
            uf = _UnionFind(n)
            for x, y in uf_pairs:
                uf.union(x, y)
            if uf.union(a, b):
                chosen.append(u)
                uf_pairs.append((a, b))
                grow(u + 1, chosen, uf_pairs)
                chosen.pop()
                uf_pairs.pop()

    grow(0, [], [])
    return out


def enum_forests(g: Graph) -> list[tuple[frozenset[int], int, int]]:
    """All forests (acyclic unoriented edge subsets) with their component
    count and rooting multiplicity.

    Returns (edges, number of components on the full vertex set, product
    of component sizes).  The empty forest is included.
    """
    ne = g.num_unoriented
    if ne > FOREST_EDGE_BUDGET:
        raise BudgetExceededError(
            f"{ne} edges exceeds the {FOREST_EDGE_BUDGET}-edge forest budget")
    n = g.num_vertices
    ends = _edge_endpoints(g)
    out: list[tuple[frozenset[int], int, int]] = []

    def components(pairs: list[tuple[int, int]]) -> tuple[int, int]:
        uf = _UnionFind(n)
        for a, b in pairs:
            uf.union(a, b)
        roots = {uf.find(v) for v in range(n)}
        phi = 1
        for r in roots:
            phi *= uf.size[r]
        return len(roots), phi

    def grow(k: int, chosen: list[int], pairs: list[tuple[int, int]]):
        ncomp, phi = components(pairs)
        out.append((frozenset(chosen), ncomp, phi))
        for u in range(k, ne):
            a, b = ends[u]
            if a == b:
                continue
            uf = _UnionFind(n)
            ok = True
            for x, y in pairs:
                uf.union(x, y)
            if uf.find(a) == uf.find(b):
                ok = False
            if ok:
                chosen.append(u)
                pairs.append((a, b))
                grow(u + 1, chosen, pairs)
                chosen.pop()
                pairs.pop()

    grow(0, [], [])
    return out


def enum_perfect_matchings(g: Graph) -> list[frozenset[int]]:
    """All perfect matchings as sets of unoriented edge indices."""
    n = g.num_vertices
    if n > MATCHING_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"{n} vertices exceeds the {MATCHING_VERTEX_BUDGET}-vertex "
            "matching budget")
    if n % 2 != 0:
        return []
    ends = _edge_endpoints(g)
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for u, (a, b) in enumerate(ends):
        if a != b:
            by_vertex[a].append(u)
            by_vertex[b].append(u)
    out: list[frozenset[int]] = []
    covered = [False] * n

    def grow(chosen: list[int]):
        v = -1
        for w in range(n):
            if not covered[w]:
                v = w
                break
        if v < 0:
            out.append(frozenset(chosen))
            return
        for u in by_vertex[v]:
            a, b = ends[u]
            other = b if a == v else a
            if covered[other]:
                continue
            covered[v] = covered[other] = True
            chosen.append(u)
            grow(chosen)
            chosen.pop()
            covered[v] = covered[other] = False

    grow([])
    return out


def _subset_weight(domain, values, subset):
    acc = domain.one
    for u in sorted(subset):
        acc = domain.mul(acc, values[u])
    return acc


def tree_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over spanning trees of the product of edge values."""
    acc = domain.zero
    for t in enum_spanning_trees(g):
        acc = domain.add(acc, _subset_weight(domain, per_unoriented, t))
    return acc


def rooted_forest_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over forests of (product of component sizes) * (edge product)."""
    acc = domain.zero
    for edges, _ncomp, phi in enum_forests(g):
        w = _subset_weight(domain, per_unoriented, edges)
        acc = domain.add(acc, domain.mul(domain.coerce(phi), w))
    return acc


def rooted_forest_sum_by_components(g: Graph, domain, per_unoriented) -> dict[int, object]:
    """Same sum, split by number of components."""
    acc: dict[int, object] = {}
    for edges, ncomp, phi in enum_forests(g):
        w = _subset_weight(domain, per_unoriented, edges)
        term = domain.mul(domain.coerce(phi), w)
        acc[ncomp] = domain.add(acc.get(ncomp, domain.zero), term)
    return acc


def matching_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over perfect matchings of the product of edge values."""
    acc = domain.zero
    for mset in enum_perfect_matchings(g):
        acc = domain.add(acc, _subset_weight(domain, per_unoriented, mset))
    return acc
