"""Reference sums for the certificate machinery.

None of it shares logic with the linear-algebra routes it is used to
check.  Spanning trees, forests and perfect matchings are summed by
dynamic programs over a Cuthill-McKee vertex order, a state holding the
sum of the edge products that reach it.  The rooted forests with k
components are the spanning trees of the cone over the graph whose apex
has degree k, each component rooted where its apex edge meets it (the
matrix-forest theorem; Chebotarev & Shamis 1997), so one tree program,
with an apex that never leaves the frontier, sums them by k; with a
component free to leave the frontier instead, it counts the forests.
Rational values are summed as integers over the lcm of their
denominators.  Each step is charged to the work meter first, and the
per-vertex lists of the frontier before they are built.

The enum_* listings are kept for tests and for tracing, which looks
them up by name; no command calls them.  They charge the meter per step
too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .domains import QQ, CyclotomicDomain, _rat_div
from .errors import charge
from .graphs import Graph, is_connected
from .matrix import _fill_reducing_order
from .poly import MultiPoly


def _edge_endpoints(g: Graph) -> list[tuple[int, int]]:
    return [(g.src[e], g.tgt[e]) for e, _ in g.unoriented]


def _charge_lists(g: Graph, where: str) -> None:
    """Charge the per-vertex and per-edge lists of a listing or a frontier
    before they exist, 8 units a word, 64 words a vertex and 32 an edge:
    at their peak they were seen to take at most 0.8 of that in bytes."""
    charge(512 * g.num_vertices + 256 * g.num_unoriented, where)


def enum_forests(g: Graph) -> list[tuple[frozenset[int], int, int]]:
    """All forests (acyclic unoriented edge subsets), the empty one too,
    each with its number of components on the full vertex set and the
    product of the component sizes.

    One walk grows every acyclic edge set in ascending index order,
    carrying a component label per vertex: an edge merges the smaller
    component into the larger going down, and the labels are restored
    coming back.  Loops never enter a forest.  Each step is charged its
    loop over the edges left and 8 units per chosen edge, which the
    listing keeps."""
    _charge_lists(g, "enum_forests")
    n, ne = g.num_vertices, g.num_unoriented
    ends = _edge_endpoints(g)
    label = list(range(n))            # vertex -> label of its component
    members = [[v] for v in range(n)]  # label -> its vertices, while in use
    chosen: list[int] = []
    out: list[tuple[frozenset[int], int, int]] = []

    def grow(k: int, ncomp: int, phi: int) -> None:
        charge(ne - k + 8 * len(chosen), "enum_forests")
        out.append((frozenset(chosen), ncomp, phi))
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
            grow(u + 1, ncomp - 1, phi // (nb * ns) * (nb + ns))
            chosen.pop()
            del big[nb:]
            for v in small:
                label[v] = gone

    grow(0, n, 1)
    return out


def enum_spanning_trees(g: Graph) -> list[frozenset[int]]:
    """All spanning trees as sets of unoriented edge indices: the forests
    with one component."""
    return [f for f, ncomp, _ in enum_forests(g) if ncomp == 1]


def enum_perfect_matchings(g: Graph) -> list[frozenset[int]]:
    """All perfect matchings as sets of unoriented edge indices; each
    step is charged its scan of the vertices and 8 units per chosen
    edge."""
    n = g.num_vertices
    if n % 2 != 0:
        return []
    _charge_lists(g, "enum_perfect_matchings")
    ends = _edge_endpoints(g)
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for u, (a, b) in enumerate(ends):
        if a != b:
            by_vertex[a].append(u)
            by_vertex[b].append(u)
    out: list[frozenset[int]] = []
    covered = [False] * n

    def grow(chosen: list[int]):
        charge(n + 8 * len(chosen), "enum_perfect_matchings")
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


def _frontier(g: Graph, where: str) -> tuple[list, list]:
    """(into, leave) over the vertices in Cuthill-McKee order, named by
    their places in it: into[i] holds (earlier place, unoriented index)
    per edge from an earlier vertex to the i-th, loops left out, and
    leave[i] the places whose last neighbour is the i-th.  Breadth first,
    about two search levels are on the frontier at a time.  The lists
    are charged to `where` before any is built."""
    _charge_lists(g, where)
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


def _merged(states: dict, i: int, j: int, w) -> dict:
    """The states after the edge of value w between frontier places i
    and j, taken or not: taking it merges the higher of their labels
    into the lower, and the labels above move down."""
    new = dict(states)
    for s, x in states.items():
        lo, hi = sorted((s[i], s[j]))
        if lo != hi:
            t = tuple([lo if c == hi else c - (c > hi) for c in s])
            new[t] = new[t] + x * w if t in new else x * w
    return new


def _left(states: dict, i: int, keep_all: bool) -> dict:
    """The states after frontier place i leaves, relabelled by first
    appearance: a state whose component leaves with it is dropped,
    unless keep_all."""
    new: dict = {}
    for s, x in states.items():
        t = s[:i] + s[i + 1:]
        if keep_all or s[i] in t:
            seen: dict = {}
            t = tuple([seen.setdefault(c, len(seen)) for c in t])
            new[t] = new[t] + x if t in new else x
    return new


def _forest_dp(g: Graph, ring, vals, where: str, cone: bool = False,
               free: bool = False) -> dict:
    """{k: the sum of the edge products of the forests of g that the
    program keeps, with k apex edges}.

    A state labels the frontier vertices by component of the chosen
    edges, labels numbered by first appearance.  By default a component
    that leaves the frontier before the last vertex drops its state, so
    only spanning trees are kept, all at k = 0.  free keeps every forest
    instead.  cone adds an apex, place -1 with label 0, that never
    leaves and that each vertex joins as it enters, or not: an edge of
    value 1 that raises k by one.  Each entry and edge step is charged
    to `where` first."""
    n = g.num_vertices
    into, leave = _frontier(g, where)
    front = [-1] if cone else []
    layers = {0: {(0,) if cone else (): ring.one}}
    for v in range(n):
        formed = sum(map(len, layers.values())) * (2 if cone else 1)
        charge(8 * (len(front) + 1) * formed, where)
        entered: dict = {}
        for k, states in layers.items():
            entered.setdefault(k, {}).update(
                (s + (max(s, default=-1) + 1,), x) for s, x in states.items())
            if cone:
                entered[k + 1] = {s + (0,): x for s, x in states.items()}
        layers = entered
        front.append(v)
        for a, u in into[v]:
            i, j, w = front.index(a), len(front) - 1, vals[u]
            for states in layers.values():
                _charge_step(states, len(front), w, where)
            layers = {k: _merged(states, i, j, w)
                      for k, states in layers.items()}
        for y in leave[v]:
            i = front.index(y)
            del front[i]
            # the last vertex out takes the one component with it
            keep_all = free or not front and v == n - 1
            layers = {k: new for k, states in layers.items()
                      if (new := _left(states, i, keep_all))}
    final = (0,) if cone else ()
    return {k: states[final] for k, states in layers.items()
            if final in states}


def tree_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over spanning trees of the product of edge values.
    Connectivity is checked first."""
    n = g.num_vertices
    if not n or not is_connected(g):
        return domain.zero
    ring, d, vals = _cleared(domain, per_unoriented)
    return _uncleared(_forest_dp(g, ring, vals, "tree_sum").get(0, ring.zero),
                      d, n - 1)


def forest_count(g: Graph) -> int:
    """The number of forests (acyclic unoriented edge subsets), the
    empty one too."""
    return _forest_dp(g, QQ, [1] * g.num_unoriented, "forest_count",
                      free=True)[0]


def rooted_forest_sum(g: Graph, domain, per_unoriented) -> object:
    """Sum over forests of (product of component sizes) * (edge product)."""
    return sum(rooted_forest_sum_by_components(g, domain,
                                               per_unoriented).values(),
               domain.zero)


def rooted_forest_sum_by_components(g: Graph, domain, per_unoriented) -> dict:
    """Same sum, split by number of components k, ascending: the sum
    over the cone's spanning trees whose apex has degree k."""
    ring, d, vals = _cleared(domain, per_unoriented)
    n = g.num_vertices
    sums = _forest_dp(g, ring, vals, "rooted_forest_sum_by_components",
                      cone=True)
    return {k: _uncleared(x, d, n - k) for k, x in sorted(sums.items())}


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
    into, leave = _frontier(g, "matching_sum")
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
