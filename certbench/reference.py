"""Reference computations the checkers compare the program against.

Nothing here imports covertwist.  Covers are rebuilt from the voltage
convention the program documents, determinants come from exact rational
elimination, and matchings, forests and prime cycles are counted by
recursions of our own.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from math import lcm

# ---------------------------------------------------------------------------
# exact linear algebra


def det(rows) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions: clear
    each row's denominators, eliminate fraction-free over the integers,
    and divide the row scales back out."""
    n = len(rows)
    scale = 1
    a = []
    for row in rows:
        fr = [Fraction(v) for v in row]
        m = lcm(*(v.denominator for v in fr)) if fr else 1
        scale *= m
        a.append([v.numerator * (m // v.denominator) for v in fr])
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (akk * ri[j] - aik * rk[j]) // prev
            ri[k] = 0
        prev = akk
    return Fraction(sign * (a[n - 1][n - 1] if n else 1), scale)


def identity_plus(c, m):
    n = len(m)
    return [[c * (i == j) + m[i][j] for j in range(n)] for i in range(n)]


def mat_inverse(m):
    """Inverse of a small rational matrix by Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        a[k] = [v / p for v in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# graphs, spanning trees and covers


def bfs_generators(n: int, pairs) -> list:
    """Non-tree edges of the BFS tree from vertex 0, exploring the
    directed edges at each vertex in index order (edge k gives 2k: a->b
    and 2k+1: b->a).  Generator j is the j-th of them."""
    seen = [False] * n
    seen[0] = True
    tree = set()
    out = [[] for _ in range(n)]
    for k, (a, b) in enumerate(pairs):
        out[a].append((2 * k, k, b))
        out[b].append((2 * k + 1, k, a))
    q = deque([0])
    while q:
        v = q.popleft()
        for _, k, w in sorted(out[v]):
            if not seen[w]:
                seen[w] = True
                tree.add(k)
                q.append(w)
    if not all(seen):
        raise ValueError("graph is not connected")
    return [k for k in range(len(pairs)) if k not in tree]


def permutation_cover(n: int, pairs, d: int, perms, invert=False):
    """Cover edges as (tail, head, base edge): the listed direction
    `edge a b` of generator j sends sheet i of a to sheet perms[j][i] of
    b; tree edges keep the sheet.  `invert` uses the inverse
    permutations instead, which is the wrong convention."""
    gens = bfs_generators(n, pairs)
    sigma = {}
    for j, k in enumerate(gens):
        p = perms[j]
        if invert:
            inv = [0] * d
            for i, t in enumerate(p):
                inv[t] = i
            p = inv
        sigma[k] = p
    edges = []
    for k, (a, b) in enumerate(pairs):
        p = sigma.get(k)
        for i in range(d):
            edges.append((a * d + i, b * d + (p[i] if p else i), k))
    return n * d, edges


def cyclic_cover(n: int, pairs, mod: int, volts):
    """Cover of a Z/mod voltage: edge k at sheet s runs from (a, s) to
    (b, s + volts[k])."""
    edges = []
    for k, (a, b) in enumerate(pairs):
        for s in range(mod):
            edges.append((a * mod + s, b * mod + (s + volts[k]) % mod, k))
    return n * mod, edges


def base_edges(pairs):
    return [(a, b, k) for k, (a, b) in enumerate(pairs)]


def adjacency(nv: int, edges, w):
    """Weighted adjacency of an undirected multigraph; w[k] is the weight
    of base edge k."""
    a = [[0] * nv for _ in range(nv)]
    for u, v, k in edges:
        a[u][v] += w[k]
        a[v][u] += w[k]
    return a


def laplacian(nv: int, edges, w):
    lap = [[0] * nv for _ in range(nv)]
    for u, v, k in edges:
        if u == v:
            continue
        lap[u][u] += w[k]
        lap[v][v] += w[k]
        lap[u][v] -= w[k]
        lap[v][u] -= w[k]
    return lap


def charpoly_at(nv, edges, w, lam) -> Fraction:
    """det(lam*I - A)."""
    a = adjacency(nv, edges, w)
    return det([[lam * (i == j) - a[i][j] for j in range(nv)]
                for i in range(nv)])


def kirchhoff(nv, edges, w) -> Fraction:
    """Weighted spanning-tree sum: a reduced Laplacian determinant."""
    lap = laplacian(nv, edges, w)
    return det([row[1:] for row in lap[1:]])


def forest_polynomial_at(nv, edges, w, t) -> Fraction:
    """det(t*I + L): the rooted-forest sum with t per component."""
    return det(identity_plus(t, laplacian(nv, edges, w)))


def matching_sum(nv: int, edges, w):
    """Sum over perfect matchings of the product of edge weights, by
    matching the lowest uncovered vertex every possible way."""
    inc = [[] for _ in range(nv)]
    for u, v, k in edges:
        if u != v:
            inc[u].append((v, k))
            inc[v].append((u, k))
    memo = {}

    def rec(covered: int):
        if covered == (1 << nv) - 1:
            return 1
        if covered in memo:
            return memo[covered]
        v = 0
        while covered >> v & 1:
            v += 1
        total = 0
        for u, k in inc[v]:
            if not covered >> u & 1:
                total += w[k] * rec(covered | 1 << v | 1 << u)
        memo[covered] = total
        return total

    return rec(0) if nv % 2 == 0 else 0


def forest_count(nv: int, edges) -> int:
    """Number of forests (acyclic edge subsets) by deletion-contraction."""

    def rec(es):
        if not es:
            return 1
        (u, v), rest = es[0], es[1:]
        if u == v:
            return rec(rest)
        merged = [(v if a == u else a, v if b == u else b) for a, b in rest]
        return rec(rest) + rec(merged)

    return rec([(u, v) for u, v, _ in edges])


def permutation_group(perms, d: int) -> set:
    ident = tuple(range(d))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for p in perms:
                y = tuple(p[x[i]] for i in range(d))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# the non-backtracking edge operator


def connection(n: int, pairs, reps):
    """Matrix per directed edge: generator j's listed direction carries
    reps[j], its reverse the inverse, tree edges the identity."""
    m = len(reps[0])
    ident = [[int(i == j) for j in range(m)] for i in range(m)]
    mats = [ident] * (2 * len(pairs))
    for j, k in enumerate(bfs_generators(n, pairs)):
        mats[2 * k] = reps[j]
        mats[2 * k + 1] = [[int(v) if v.denominator == 1 else v for v in row]
                           for row in mat_inverse(reps[j])]
    return mats


def nonbacktracking(n: int, pairs, w, mats):
    """Sparse block operator on directed edges: row block e has block
    w_e * mats[e] at every f that continues e without reversing it.
    Returns (size, block size, {row: [(col, value)]})."""
    src = []
    tgt = []
    for a, b in pairs:
        src += [a, b]
        tgt += [b, a]
    m = len(mats[0])
    ne = len(src)
    rows = {}
    for e in range(ne):
        we = w[e // 2]
        for f in range(ne):
            if src[f] != tgt[e] or f == e ^ 1:
                continue
            for i in range(m):
                for j in range(m):
                    v = mats[e][i][j]
                    if v:
                        rows.setdefault(e * m + i, []).append((f * m + j, we * v))
    return ne * m, m, rows


def dense(size, rows):
    out = [[0] * size for _ in range(size)]
    for i, entries in rows.items():
        for j, v in entries:
            out[i][j] += v
    return out


def nb_det_at(size, rows, u) -> Fraction:
    """det(I - u*B)."""
    b = dense(size, rows)
    return det([[int(i == j) - u * b[i][j] for j in range(size)]
                for i in range(size)])


def nb_traces(size, rows, length) -> list:
    """[tr(B), tr(B^2), ..., tr(B^length)] with B in sparse row form."""
    p = [[int(i == j) for j in range(size)] for i in range(size)]
    out = []
    for _ in range(length):
        q = [[0] * size for _ in range(size)]
        for i, prow in enumerate(p):
            qi = q[i]
            for k, x in enumerate(prow):
                if x:
                    for j, v in rows.get(k, ()):
                        qi[j] += x * v
        p = q
        out.append(sum(p[i][i] for i in range(size)))
    return out


def mobius(n: int) -> int:
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def prime_count(traces) -> int:
    """Primitive cycles up to rotation of each length l <= len(traces),
    from N_l = tr(B^l): (1/l) * sum over d | l of mu(l/d) * N_d."""
    total = 0
    for ell in range(1, len(traces) + 1):
        s = sum(mobius(ell // d) * traces[d - 1]
                for d in range(1, ell + 1) if ell % d == 0)
        if s % ell:
            raise ArithmeticError("Moebius sum not divisible")
        total += s // ell
    return total


# ---------------------------------------------------------------------------
# polynomial text as printed in reports

_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_poly(text: str) -> dict:
    """`3*x_0^2*lambda - 1/2*x_1 + 4` to {((name, exp), ...): Fraction}."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = _TERM_SPLIT.split(text)
    terms = [("+", pieces[0])] + list(zip(pieces[1::2], pieces[2::2]))
    out = {}
    for sign, body in terms:
        if body.startswith("-"):
            sign = "-" if sign == "+" else "+"
            body = body[1:]
        coeff = Fraction(1)
        mono = []
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                mono.append((name, int(exp) if exp else 1))
        key = tuple(sorted(mono))
        if key in out:
            raise ValueError(f"repeated monomial in {text[:60]!r}")
        out[key] = -coeff if sign == "-" else coeff
    return out


def evaluate(poly: dict, point: dict) -> Fraction:
    """Value at a point of integers, summed per coefficient denominator
    so that large polynomials stay in integer arithmetic."""
    powers = {}
    by_den = {}
    for mono, c in poly.items():
        term = c.numerator
        for name, e in mono:
            pw = powers.get((name, e))
            if pw is None:
                pw = powers[(name, e)] = int(point[name]) ** e
            term *= pw
        by_den[c.denominator] = by_den.get(c.denominator, 0) + term
    return sum((Fraction(v, d) for d, v in by_den.items()), Fraction(0))


def coefficients_in(poly: dict, name: str, point: dict) -> dict:
    """{k: value at point of the coefficient of name^k}, nonzero only."""
    parts = {}
    for mono, c in poly.items():
        k = dict(mono).get(name, 0)
        rest = tuple(m for m in mono if m[0] != name)
        parts.setdefault(k, {})[rest] = c
    values = {k: evaluate(p, point) for k, p in parts.items()}
    return {k: v for k, v in values.items() if v}


def degree_in(poly: dict, name: str) -> int:
    return max((dict(mono).get(name, 0) for mono in poly), default=-1)


def is_monic_in(poly: dict, name: str, degree: int) -> bool:
    """Exactly one term reaches `degree` in `name`: name^degree with
    coefficient 1 and no other variable."""
    top = [(mono, c) for mono, c in poly.items()
           if dict(mono).get(name, 0) == degree]
    return (degree_in(poly, name) == degree and len(top) == 1
            and top[0][0] == ((name, degree),) and top[0][1] == 1)
