"""Brute-force reference counts for the certificate machinery.

Everything here enumerates structures directly.  One walk grows every
acyclic edge subset one unoriented edge at a time, in index order, and
carries its state along: a component label per vertex (an edge merges
the smaller component into the larger going down, and the labels are
restored coming back), the component count, the product of the
component sizes and, when a sum asks for it, the running product of the
edge values, one domain.mul per grown edge.  Spanning trees are the
walk's subsets of n − 1 edges.  Matchings are grown vertex by vertex.
Every sum collects its terms and adds them in pairwise rounds.  None of
it shares logic with the linear-algebra routes it is used to check, and
all of it is intentionally naive, so the budgets are small and hard.
"""

from __future__ import annotations

from .errors import BudgetExceededError
from .graphs import Graph, is_connected

TREE_EDGE_BUDGET = 24
FOREST_EDGE_BUDGET = 20
MATCHING_VERTEX_BUDGET = 20


def _edge_endpoints(g: Graph) -> list[tuple[int, int]]:
    return [(g.src[e], g.tgt[e]) for e, _ in g.unoriented]


def _acyclic_walk(g: Graph, spanning: bool, visit, domain=None,
                  values=None) -> None:
    """Grow every acyclic set of unoriented edges in ascending index
    order and call visit(chosen, components, phi, weight) on each, or,
    when spanning, on each spanning tree only.

    chosen is the walk's own list of edge indices, in ascending order;
    phi is the product of the component sizes over the full vertex set;
    weight is the product of the chosen edges' values, or None when no
    domain is given.  Loops never enter a subset.  A disconnected graph
    has no spanning tree: the spanning walk visits nothing and builds
    nothing per vertex, as is_connected refutes more vertices than
    edges + 1 at once.
    """
    ne = g.num_unoriented
    budget, kind = ((TREE_EDGE_BUDGET, "tree") if spanning
                    else (FOREST_EDGE_BUDGET, "forest"))
    if ne > budget:
        raise BudgetExceededError(
            f"{ne} edges exceeds the {budget}-edge {kind} budget")
    if spanning and not is_connected(g):
        return
    n = g.num_vertices
    ends = _edge_endpoints(g)
    mul = domain.mul if domain is not None else None
    label = list(range(n))            # vertex -> label of its component
    members = [[v] for v in range(n)]  # label -> its vertices, while in use
    chosen: list[int] = []
    need = n - 1

    def grow(k: int, ncomp: int, phi: int, w) -> None:
        if not spanning:
            visit(chosen, ncomp, phi, w)
        elif len(chosen) == need:
            visit(chosen, ncomp, phi, w)
            return
        elif ne - k < need - len(chosen):
            return
        for u in range(k, ne):
            a, b = ends[u]
            keep, gone = label[a], label[b]
            if keep == gone:
                continue
            big, small = members[keep], members[gone]
            if len(big) < len(small):
                keep, gone, big, small = gone, keep, small, big
            nb, ns = len(big), len(small)
            for v in small:
                label[v] = keep
            big.extend(small)
            chosen.append(u)
            grow(u + 1, ncomp - 1, phi // (nb * ns) * (nb + ns),
                 None if mul is None else mul(w, values[u]))
            chosen.pop()
            del big[nb:]
            for v in small:
                label[v] = gone

    grow(0, n, 1, None if domain is None else domain.one)


def pairwise_sum(domain, terms: list):
    """The total of terms, added in pairwise rounds, so that a growing
    polynomial total is not copied once per term."""
    if not terms:
        return domain.zero
    add = domain.add
    while len(terms) > 1:
        paired = [add(terms[i], terms[i + 1])
                  for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]


def enum_spanning_trees(g: Graph) -> list[frozenset[int]]:
    """All spanning trees as sets of unoriented edge indices."""
    out: list[frozenset[int]] = []
    _acyclic_walk(g, True, lambda chosen, _k, _phi, _w:
                  out.append(frozenset(chosen)))
    return out


def enum_forests(g: Graph, domain=None,
                 values=None) -> list[tuple[frozenset[int], int, int, object]]:
    """All forests (acyclic unoriented edge subsets) with their component
    count, rooting multiplicity and edge-value product.

    Returns (edges, number of components on the full vertex set, product
    of component sizes, product of the edges' values, or None when no
    domain is given).  The empty forest is included."""
    out: list[tuple[frozenset[int], int, int, object]] = []
    _acyclic_walk(g, False, lambda chosen, ncomp, phi, w:
                  out.append((frozenset(chosen), ncomp, phi, w)),
                  domain, values)
    return out


def check_matching_budget(n: int) -> None:
    """BudgetExceededError when n vertices exceed the matching budget."""
    if n > MATCHING_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"{n} vertices exceeds the {MATCHING_VERTEX_BUDGET}-vertex "
            "matching budget")


def enum_perfect_matchings(g: Graph) -> list[frozenset[int]]:
    """All perfect matchings as sets of unoriented edge indices."""
    n = g.num_vertices
    check_matching_budget(n)
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


def tree_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over spanning trees of the product of edge values."""
    terms: list = []
    _acyclic_walk(g, True, lambda _c, _k, _phi, w: terms.append(w),
                  domain, per_unoriented)
    return pairwise_sum(domain, terms)


def rooted_forest_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over forests of (product of component sizes) * (edge product)."""
    by_k = rooted_forest_sum_by_components(g, domain, per_unoriented)
    return pairwise_sum(domain, list(by_k.values()))


class ForestSums(dict):
    """Rooted forest sums keyed by component count, with the number of
    forests they add up."""

    forests = 0


def rooted_forest_sum_by_components(g: Graph, domain, per_unoriented) -> ForestSums:
    """Same sum, split by number of components, fewest components last.

    One enum_forests walk carries the edge products; they are summed per
    (components, phi) first, so each phi multiplies once."""
    forests = enum_forests(g, domain, per_unoriented)
    groups: dict[tuple[int, int], list] = {}
    for _, ncomp, phi, w in forests:
        groups.setdefault((ncomp, phi), []).append(w)
    by_k: dict[int, list] = {}
    for (ncomp, phi), terms in sorted(groups.items(), reverse=True):
        by_k.setdefault(ncomp, []).append(
            domain.mul(domain.coerce(phi), pairwise_sum(domain, terms)))
    out = ForestSums((k, pairwise_sum(domain, terms))
                     for k, terms in by_k.items())
    out.forests = len(forests)
    return out


def matching_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over perfect matchings of the product of edge values."""
    mul = domain.mul
    terms = []
    for mset in enum_perfect_matchings(g):
        w = domain.one
        for u in sorted(mset):
            w = mul(w, per_unoriented[u])
        terms.append(w)
    return pairwise_sum(domain, terms)
