"""Matrix representations of graph loop groups and their plumbing.

A representation assigns an invertible matrix to each free generator of
a presentation.  Connections realize representations edgewise, induced
representations push a cover representation down to the base through
coset words, and abelian fiber groups get their full character family
over Q(zeta_N), N the group exponent: QQ for N <= 2, QQ(i) for N = 4
and the cyclotomic field otherwise, so every character value is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

from .covering import (
    CosetData,
    GaloisGroup,
    Perm,
    express_in_subgroup,
    fiber_action,
    perm_compose,
    perm_identity,
    perm_inverse,
)
from .domains import QQ, cyclotomic_field, root_of_unity
from .errors import (
    DomainMismatchError,
    InternalCosetError,
    NotAbelianError,
)
from .graphs import Path, check_loop
from .homotopy import FreeWord, Pi1Presentation, concat_words, invert_word
from .matrix import Matrix, direct_sum_matrices, inverse


@dataclass(frozen=True)
class Representation:
    """Generator images and their inverses over a scalar domain."""

    domain: object
    degree: int
    gen_mats: tuple[Matrix, ...]
    gen_invs: tuple[Matrix, ...]

    def __post_init__(self):
        ident = Matrix.identity(self.domain, self.degree)
        for k, (m, mi) in enumerate(zip(self.gen_mats, self.gen_invs)):
            if m.shape != (self.degree, self.degree):
                raise ValueError(f"generator {k} has shape {m.shape}")
            if not (m * mi).eq(ident) or not (mi * m).eq(ident):
                raise ValueError(f"generator {k}: stored inverse is wrong")

    @property
    def rank(self) -> int:
        return len(self.gen_mats)


def representation(domain, mats: list[Matrix]) -> Representation:
    """Build with inverses computed (and thereby invertibility checked).

    The degree is that of the first matrix; with no matrices it is 1,
    which the character builders (abelian_characters and the zeta
    checks) rely on for a group of rank 0."""
    ms = tuple(mats)
    degree = ms[0].shape[0] if ms else 1
    return Representation(domain, degree, ms,
                          tuple(inverse(m) for m in ms))


def trivial_representation(domain, rank: int, degree: int = 1) -> Representation:
    ident = Matrix.identity(domain, degree)
    return Representation(domain, degree, (ident,) * rank, (ident,) * rank)


def rep_of_word(rho: Representation, w: FreeWord) -> Matrix:
    out = Matrix.identity(rho.domain, rho.degree)
    for (k, s) in w:
        out = out * (rho.gen_mats[k] if s == 1 else rho.gen_invs[k])
    return out


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    if r1.domain is not r2.domain and repr(r1.domain) != repr(r2.domain):
        raise DomainMismatchError(f"{r1.domain!r} vs {r2.domain!r}")
    if r1.rank != r2.rank:
        raise ValueError("generator counts differ")
    mats = tuple(direct_sum_matrices(a, b)
                 for a, b in zip(r1.gen_mats, r2.gen_mats))
    invs = tuple(direct_sum_matrices(a, b)
                 for a, b in zip(r1.gen_invs, r2.gen_invs))
    return Representation(r1.domain, r1.degree + r2.degree, mats, invs)


# ---------------------------------------------------------------------------
# connections


@dataclass(frozen=True)
class Connection:
    """Invertible matrix per directed edge; on graphs with involution a
    valid connection inverts along edge reversal."""

    domain: object
    degree: int
    mats: tuple[Matrix, ...]


def trivial_connection(domain, num_edges: int, degree: int = 1) -> Connection:
    ident = Matrix.identity(domain, degree)
    return Connection(domain, degree, (ident,) * num_edges)


def connection_from_rep(pres: Pi1Presentation,
                        rho: Representation) -> Connection:
    """Tree edges carry the identity, generator edges the generator
    image; loop monodromies then recover the representation."""
    g = pres.graph
    ident = Matrix.identity(rho.domain, rho.degree)
    mats: list[Matrix] = [ident] * g.num_edges
    for k, e in enumerate(pres.gen_edge):
        mats[e] = rho.gen_mats[k]
        mats[g.inv[e]] = rho.gen_invs[k]
    return Connection(rho.domain, rho.degree, tuple(mats))


def monodromy(g, c: Connection, loop: Path) -> Matrix:
    """Product of the edge matrices along a loop, first edge outermost."""
    check_loop(g, loop)
    out = Matrix.identity(c.domain, c.degree)
    for e in loop.edges:
        out = out * c.mats[e]
    return out


# ---------------------------------------------------------------------------
# induction along a covering


@dataclass(frozen=True)
class InducedRep:
    """Representation of the base presentation built from a cover
    representation; generator images permute coset blocks."""

    rep: Representation
    cover_rep: Representation
    coset: CosetData
    block_degree: int
    sheet_count: int


def _blocks_to_matrix(domain, d: int, m: int,
                      blocks: dict[tuple[int, int], Matrix]) -> Matrix:
    zero = domain.zero
    data = [[zero] * (d * m) for _ in range(d * m)]
    for (bi, bj), blk in blocks.items():
        for i in range(m):
            row = data[bi * m + i]
            for j in range(m):
                row[bj * m + j] = blk[i, j]
    return Matrix(domain, data)


def _induced_generator(cd: CosetData, rho: Representation,
                       gen_word: FreeWord) -> Matrix:
    p = cd.covering
    pres = cd.base_pres
    fiber = cd.fiber
    pos = {vt: j for j, vt in enumerate(fiber)}
    d = len(fiber)
    blocks: dict[tuple[int, int], Matrix] = {}
    for j, r in enumerate(cd.transversal):
        target = fiber_action(p, pres, gen_word, fiber[j])
        jp = pos[target]
        h = concat_words(invert_word(cd.transversal[jp]), gen_word, r)
        blocks[(jp, j)] = rep_of_word(rho, express_in_subgroup(cd, h))
    return _blocks_to_matrix(rho.domain, d, rho.degree, blocks)


def induce(cd: CosetData, rho: Representation) -> InducedRep:
    """Push a representation of the cover's loop group down to the base:
    generator images act blockwise through the transversal, with block
    (r', r) the cover image of r'⁻¹·g·r."""
    if rho.rank != cd.cover_pres.rank:
        raise ValueError("representation does not match the cover presentation")
    mats = []
    invs = []
    for k in range(cd.base_pres.rank):
        mats.append(_induced_generator(cd, rho, ((k, 1),)))
        invs.append(_induced_generator(cd, rho, ((k, -1),)))
    d = len(cd.fiber)
    try:
        rep = Representation(rho.domain, rho.degree * d,
                             tuple(mats), tuple(invs))
    except ValueError as exc:
        raise InternalCosetError(f"induced blocks are inconsistent: {exc}")
    return InducedRep(rep, rho, cd, rho.degree, d)


def permutation_complement(rep: Representation,
                           fixed: int = 0) -> Representation:
    """Restriction of a permutation representation to the zero-sum
    complement of the all-ones vector, in the basis e_j − e_fixed over
    the non-fixed indices.  Input generator images must be 0/1
    permutation matrices.  The complement of a degree-1 representation
    has degree 0, whatever the number of generators."""
    d = rep.degree
    dom = rep.domain
    others = [j for j in range(d) if j != fixed]
    col_of = {j: c for c, j in enumerate(others)}

    def image_of(mat: Matrix) -> list[int]:
        img = [-1] * d
        for j in range(d):
            hits = [i for i in range(d) if not dom.is_zero(mat[i, j])]
            if len(hits) != 1 or not dom.eq(mat[hits[0], j], dom.one):
                raise ValueError("not a permutation matrix")
            img[j] = hits[0]
        return img

    def restrict(mat: Matrix) -> Matrix:
        img = image_of(mat)
        data = [[dom.zero] * (d - 1) for _ in range(d - 1)]
        for j in others:
            c = col_of[j]
            if img[j] != fixed:
                data[col_of[img[j]]][c] = dom.add(
                    data[col_of[img[j]]][c], dom.one)
            if img[fixed] != fixed:
                data[col_of[img[fixed]]][c] = dom.sub(
                    data[col_of[img[fixed]]][c], dom.one)
        return Matrix(dom, data)

    return Representation(dom, d - 1,
                          tuple(restrict(m) for m in rep.gen_mats),
                          tuple(restrict(m) for m in rep.gen_invs))


def complement_basis(d: int, fixed: int = 0) -> Matrix:
    """Q = [1 | e_j − e_fixed for j ≠ fixed, ascending], over QQ: the
    all-ones vector, then the basis permutation_complement restricts
    to, so that P·Q = Q·(1 ⊕ restricted P) for a permutation matrix P."""
    data = [[1] + [0] * (d - 1) for _ in range(d)]
    for c, j in enumerate(j for j in range(d) if j != fixed):
        data[j][c + 1] = 1
        data[fixed][c + 1] = -1
    return Matrix(QQ, data)


# ---------------------------------------------------------------------------
# characters of abelian permutation groups


@dataclass(frozen=True)
class CharacterTable:
    """All degree-1 characters of an abelian permutation group, with
    values on the given generators and on every element."""

    domain: object
    gens: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    gen_values: tuple[tuple[object, ...], ...]
    elem_values: tuple[dict, ...]

    @property
    def count(self) -> int:
        return len(self.gen_values)


def _diagonalize_relations(rows: list[list[int]], r: int):
    """Diagonalize the lattice spanned by the given integer rows as the
    column span of its transpose: returns (diag, U) with U unimodular
    r×r so that U·(relation lattice) = diag(d_1..d_r)·ℤ^r."""
    # columns of N are the relations
    k = max(1, len(rows))
    n = [[rows[j][i] if j < len(rows) else 0 for j in range(k)]
         for i in range(r)]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def swap_rows(i, j):
        n[i], n[j] = n[j], n[i]
        u[i], u[j] = u[j], u[i]

    def addmul_row(i, j, c):
        n[i] = [a + c * b for a, b in zip(n[i], n[j])]
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]

    def swap_cols(i, j):
        for row in n:
            row[i], row[j] = row[j], row[i]

    def addmul_col(i, j, c):
        for row in n:
            row[i] += c * row[j]

    diag = []
    top = 0
    left = 0
    while top < r and left < k:
        piv = None
        for i in range(top, r):
            for j in range(left, k):
                if n[i][j] != 0 and (piv is None or
                                     abs(n[i][j]) < abs(n[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(top, piv[0])
        swap_cols(left, piv[1])
        while True:
            dirty = False
            for i in range(top + 1, r):
                q = n[i][left] // n[top][left]
                if q:
                    addmul_row(i, top, -q)
                if n[i][left] != 0:
                    swap_rows(top, i)
                    dirty = True
            for j in range(left + 1, k):
                q = n[top][j] // n[top][left]
                if q:
                    addmul_col(j, left, -q)
                if n[top][j] != 0:
                    swap_cols(left, j)
                    dirty = True
            if not dirty:
                break
        diag.append(abs(n[top][left]))
        if n[top][left] < 0:
            n[top] = [-a for a in n[top]]
            u[top] = [-a for a in u[top]]
        top += 1
        left += 1
    while len(diag) < r:
        diag.append(0)
    return diag, u


def abelian_character_table(gens: list[Perm], degree: int) -> CharacterTable:
    """Characters via a cyclic decomposition of the relation lattice of
    the generators.  The table is verified on construction: each map is
    a homomorphism on the full element set, values are pairwise
    distinct, and the count equals the group order.
    """
    for a in gens:
        for b in gens:
            if perm_compose(a, b) != perm_compose(b, a):
                raise NotAbelianError("generators do not commute")
    r = max(1, len(gens))
    glist = list(gens) if gens else [perm_identity(degree)]

    ident = perm_identity(degree)
    vectors: dict[Perm, tuple[int, ...]] = {ident: (0,) * r}
    relations: list[list[int]] = []
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            vx = vectors[x]
            for i, gperm in enumerate(glist):
                y = perm_compose(gperm, x)
                vy = tuple(v + (1 if j == i else 0) for j, v in enumerate(vx))
                if y in vectors:
                    rel = [a - b for a, b in zip(vy, vectors[y])]
                    if any(rel):
                        relations.append(rel)
                else:
                    vectors[y] = vy
                    nxt.append(y)
        frontier = nxt
    elements = tuple(sorted(vectors))
    order = len(elements)

    diag, u = _diagonalize_relations(relations, r)
    if any(d == 0 for d in diag):
        raise NotAbelianError("relation lattice does not have full rank")
    if prod(diag) != order:
        raise InternalCosetError("cyclic decomposition misses the group order")

    domain = cyclotomic_field(lcm(*diag))

    def char_value(t: tuple[int, ...], vec: tuple[int, ...]):
        y = [sum(u[j][i] * vec[i] for i in range(r)) for j in range(r)]
        val = domain.one
        for j, d in enumerate(diag):
            if d == 1:
                continue
            val = domain.mul(val, domain.coerce(root_of_unity(d, t[j] * y[j])))
        return val

    tuples = [()]
    for d in diag:
        tuples = [t + (j,) for t in tuples for j in range(d)]

    gen_values = []
    elem_values = []
    for t in tuples:
        gv = tuple(char_value(t, tuple(1 if j == i else 0 for j in range(r)))
                   for i in range(len(glist)))
        ev = {x: char_value(t, vectors[x]) for x in elements}
        gen_values.append(gv)
        elem_values.append(ev)

    for gv, ev in zip(gen_values, elem_values):
        for i, gperm in enumerate(glist):
            for x in elements:
                lhs = ev[perm_compose(gperm, x)]
                rhs = domain.mul(gv[i], ev[x])
                if not domain.eq(lhs, rhs):
                    raise InternalCosetError("character is not a homomorphism")
    for a in range(len(gen_values)):
        for b in range(a + 1, len(gen_values)):
            if all(domain.eq(x, y) for x, y in
                   zip(elem_values[a].values(), elem_values[b].values())):
                raise InternalCosetError("characters collide")
    if len(gen_values) != order:
        raise InternalCosetError("character count differs from group order")
    return CharacterTable(domain, tuple(glist), elements,
                          tuple(gen_values), tuple(elem_values))


def abelian_characters(galois: GaloisGroup) -> list[Representation]:
    """Degree-1 representations of the base presentation: each character
    of the abelian fiber group composed with the generator action."""
    table = abelian_character_table(list(galois.gen_perms),
                                    len(galois.fiber))
    out = []
    for gv in table.gen_values:
        mats = [Matrix(table.domain, [[v]]) for v in gv]
        out.append(representation(table.domain, mats))
    return out


# ---------------------------------------------------------------------------
# induction for finite permutation groups


def finite_group_induction(ambient: tuple[Perm, ...],
                           subgroup: tuple[Perm, ...],
                           rho_values: dict[Perm, Matrix],
                           domain, degree: int):
    """Matrix of the induced representation at any ambient element.

    Left cosets of the subgroup get a deterministic transversal (least
    unused element in sorted order, so the identity represents the
    subgroup itself); block (k', k) of the image of g is ρ(k'⁻¹gk) when
    that product lands in the subgroup and zero otherwise.
    """
    sub = set(subgroup)
    transversal: list[Perm] = []
    covered: set[Perm] = set()
    for g in sorted(ambient):
        if g not in covered:
            transversal.append(g)
            covered.update(perm_compose(g, h) for h in sub)
    index = len(transversal)

    def matrix_at(g: Perm) -> Matrix:
        blocks: dict[tuple[int, int], Matrix] = {}
        for k, rk in enumerate(transversal):
            gk = perm_compose(g, rk)
            for kp, rkp in enumerate(transversal):
                h = perm_compose(perm_inverse(rkp), gk)
                if h in sub:
                    blocks[(kp, k)] = rho_values[h]
                    break
            else:
                raise InternalCosetError("element misses every coset")
        return _blocks_to_matrix(domain, index, degree, blocks)

    return matrix_at, transversal
