"""Brute-force reference counts for the certificate machinery.

None of it shares logic with the linear-algebra routes it is used to
check.  Spanning trees and perfect matchings are summed by dynamic
programs over a breadth-first vertex order, a state holding the sum of
the edge products that reach it.  Forests are enumerated by one walk
that grows every acyclic edge subset one unoriented edge at a time, in
index order, carrying a component label per vertex (an edge merges the
smaller component into the larger going down, and the labels are
restored coming back), the component count, the product of the
component sizes and the running edge product.  Rational values are
summed as integers over the lcm of their denominators.  The walks keep
a hard edge cap; the dynamic programs charge the work meter per step.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .domains import QQ, CyclotomicDomain, _rat_div
from .errors import BudgetExceededError, charge
from .graphs import Graph, is_connected
from .matrix import _fill_reducing_order
from .poly import MultiPoly

ENUM_EDGE_CAP = 20


def _edge_endpoints(g: Graph) -> list[tuple[int, int]]:
    return [(g.src[e], g.tgt[e]) for e, _ in g.unoriented]


def _check_edge_cap(ne: int, kind: str) -> None:
    """BudgetExceededError for a walk over more than ENUM_EDGE_CAP edges."""
    if ne > ENUM_EDGE_CAP:
        raise BudgetExceededError(
            f"{ne} edges exceeds the {ENUM_EDGE_CAP}-edge {kind} cap")


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
    _check_edge_cap(ne, "tree" if spanning else "forest")
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


def enum_forests(g: Graph) -> list[tuple[frozenset[int], int, int]]:
    """All forests (acyclic unoriented edge subsets), the empty one too,
    each with its number of components on the full vertex set and the
    product of the component sizes."""
    out: list[tuple[frozenset[int], int, int]] = []
    _acyclic_walk(g, False, lambda chosen, ncomp, phi, _w:
                  out.append((frozenset(chosen), ncomp, phi)))
    return out


def enum_perfect_matchings(g: Graph) -> list[frozenset[int]]:
    """All perfect matchings as sets of unoriented edge indices."""
    _check_edge_cap(g.num_unoriented, "matching")
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


def _cleared(domain, values) -> tuple:
    """(ring, D, values): QQ, the lcm D of the denominators and the
    values times D, all ints, when the domain is a field and every value
    is rational; else the domain, 1 and the values themselves."""
    if isinstance(domain, CyclotomicDomain) and all(
            type(v) is int or type(v) is Fraction for v in values):
        d = lcm(*(v.denominator for v in values))
        return QQ, d, [v.numerator * (d // v.denominator) for v in values]
    return domain, 1, values


def _uncleared(total, d: int, edges: int):
    """A sum of products of `edges` values, each scaled by d, unscaled."""
    return total if d == 1 else _rat_div(total, d ** edges)


def _frontier(g: Graph) -> tuple[list, list]:
    """(into, leave) over the vertices in Cuthill-McKee order, named by
    their places in it: into[i] holds (earlier place, unoriented index)
    per edge from an earlier vertex to the i-th, loops left out, and
    leave[i] the places whose last neighbour is the i-th.  Breadth first,
    about two search levels are on the frontier at a time."""
    ends = _edge_endpoints(g)
    n = g.num_vertices
    rows: list[list] = [[] for _ in range(n)]
    for a, b in ends:
        rows[a].append((b,))
    place = {v: i for i, v in enumerate(_fill_reducing_order(rows)[::-1])}
    into: list[list] = [[] for _ in range(n)]
    last = list(range(n))
    for u, (a, b) in enumerate(ends):
        a, b = sorted((place[a], place[b]))
        if a != b:
            into[b].append((a, u))
            last[a] = max(last[a], b)
    leave: list[list] = [[] for _ in range(n)]
    for y, v in enumerate(last):
        leave[v].append(y)
    return into, leave


def _charge_step(states: dict, width: int, w, where: str) -> None:
    """Charge an edge step 8 per label of a state, a word each, and 32
    per product of a term pair, a scalar value counting as one term.
    The step keeps what it forms, so the budget holds a few million
    states or terms (at most about 300 MB seen), not gigabytes."""
    pairs = (len(w.terms) * sum(len(x.terms) for x in states.values())
             if isinstance(w, MultiPoly) else len(states))
    charge(8 * len(states) * width + 32 * pairs, where)


def tree_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over spanning trees of the product of edge values.

    A state labels the frontier vertices by component of the chosen
    edges, labels numbered by first appearance; a component that leaves
    the frontier before the last vertex drops its state.  Connectivity is
    checked first, and each edge step is charged to the work meter."""
    n = g.num_vertices
    if not n or not is_connected(g):
        return domain.zero
    ring, d, vals = _cleared(domain, per_unoriented)
    into, leave = _frontier(g)
    front: list[int] = []
    states = {(): ring.one}
    for v in range(n):
        states = {s + (max(s, default=-1) + 1,): x for s, x in states.items()}
        front.append(v)
        for a, u in into[v]:
            i, j, w = front.index(a), len(front) - 1, vals[u]
            _charge_step(states, len(front), w, "tree_sum")
            new = dict(states)
            for s, x in states.items():
                lo, hi = sorted((s[i], s[j]))
                if lo != hi:   # hi merges into lo, later labels move down
                    t = tuple([lo if c == hi else c - (c > hi) for c in s])
                    new[t] = new[t] + x * w if t in new else x * w
            states = new
        for y in leave[v]:
            i = front.index(y)
            del front[i]
            new = {}
            for s, x in states.items():
                t = s[:i] + s[i + 1:]
                # the last vertex out takes the one component with it
                if s[i] in t or v == n - 1 and not t:
                    seen: dict = {}
                    t = tuple([seen.setdefault(c, len(seen)) for c in t])
                    new[t] = new[t] + x if t in new else x
            states = new
    return _uncleared(states.get((), ring.zero), d, n - 1)


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

    One forest walk carries the edge products and groups them by
    (components, phi) as it visits, so each phi multiplies once."""
    ring, d, vals = _cleared(domain, per_unoriented)
    groups: dict[tuple[int, int], list] = {}
    _acyclic_walk(g, False, lambda _chosen, ncomp, phi, w:
                  groups.setdefault((ncomp, phi), []).append(w), ring, vals)
    by_k: dict[int, list] = {}
    for (ncomp, phi), terms in sorted(groups.items(), reverse=True):
        by_k.setdefault(ncomp, []).append(
            ring.mul(ring.coerce(phi), pairwise_sum(ring, terms)))
    n = g.num_vertices
    out = ForestSums((k, _uncleared(pairwise_sum(ring, terms), d, n - k))
                     for k, terms in by_k.items())
    out.forests = sum(map(len, groups.values()))
    return out


def matching_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over perfect matchings of the product of edge values.

    A state is the bit set of the matched frontier vertices; a vertex
    leaves the frontier matched, or its state is dropped.  More vertices
    than twice the non-loop edges admit no matching, known at once; each
    edge step is charged to the work meter first."""
    n = g.num_vertices
    if n % 2 or n > 2 * sum(a != b for a, b in _edge_endpoints(g)):
        return domain.zero
    ring, d, vals = _cleared(domain, per_unoriented)
    into, leave = _frontier(g)
    states = {0: ring.one}
    for v in range(n):
        for a, u in into[v]:
            pair, w = 1 << a | 1 << v, vals[u]
            _charge_step(states, 1, w, "matching_sum")
            new = dict(states)
            for s, x in states.items():
                if not s & pair:
                    t = s | pair
                    new[t] = new[t] + x * w if t in new else x * w
            states = new
        for y in leave[v]:
            bit = 1 << y
            states = {s ^ bit: x for s, x in states.items() if s & bit}
    return _uncleared(states.get(0, ring.zero), d, n // 2)
