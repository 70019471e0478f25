"""The brute-force oracles as they were first written, kept as a
reference for tests.

The program sums spanning trees and perfect matchings by frontier
dynamic programs, and its forest walk carries component labels, sizes
and edge products along.  The code here enumerates every structure with
none of that state: every candidate edge rebuilds a union-find from the
whole chosen list, every subset's edge product is multiplied afresh,
and every sum is added one term at a time.  Tests compare the two on
random multigraphs.
"""

from covertwist.graphs import Graph


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


def ref_spanning_trees(g: Graph) -> list[frozenset[int]]:
    """All spanning trees as sets of unoriented edge indices."""
    ne = g.num_unoriented
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


def ref_forests(g: Graph) -> list[tuple[frozenset[int], int, int]]:
    """All forests with their component count and product of component
    sizes, the empty forest included."""
    ne = g.num_unoriented
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
            for x, y in pairs:
                uf.union(x, y)
            if uf.find(a) != uf.find(b):
                chosen.append(u)
                pairs.append((a, b))
                grow(u + 1, chosen, pairs)
                chosen.pop()
                pairs.pop()

    grow(0, [], [])
    return out


def ref_perfect_matchings(g: Graph) -> list[frozenset[int]]:
    """All perfect matchings, grown from the lowest uncovered vertex."""
    n = g.num_vertices
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
        v = next((w for w in range(n) if not covered[w]), -1)
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


def ref_tree_sum(g: Graph, domain, values):
    acc = domain.zero
    for t in ref_spanning_trees(g):
        acc = domain.add(acc, _subset_weight(domain, values, t))
    return acc


def ref_rooted_forest_sum(g: Graph, domain, values):
    acc = domain.zero
    for edges, _ncomp, phi in ref_forests(g):
        w = _subset_weight(domain, values, edges)
        acc = domain.add(acc, domain.mul(domain.coerce(phi), w))
    return acc


def ref_rooted_forest_sum_by_components(g: Graph, domain, values) -> dict:
    acc: dict = {}
    for edges, ncomp, phi in ref_forests(g):
        w = _subset_weight(domain, values, edges)
        term = domain.mul(domain.coerce(phi), w)
        acc[ncomp] = domain.add(acc.get(ncomp, domain.zero), term)
    return acc


def ref_matching_sum(g: Graph, domain, values):
    acc = domain.zero
    for mset in ref_perfect_matchings(g):
        acc = domain.add(acc, _subset_weight(domain, values, mset))
    return acc
