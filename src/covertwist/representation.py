"""Matrix representations of graph loop groups and their plumbing.

A representation assigns an invertible matrix to each free generator of
a presentation.  Connections realize representations edgewise, induced
representations push a cover representation down to the base one edge
lift per block, and abelian fiber groups get their full character family
over Q(zeta_N), N the group exponent (QQ for N <= 2, QQ(i) for N = 4),
so every character value is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

from .covering import (
    CosetData,
    GaloisGroup,
    Perm,
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
from .homotopy import FreeWord, Pi1Presentation
from .matrix import Matrix, direct_sum_matrices, inverse


@dataclass(frozen=True)
class Representation:
    """Generator images and their inverses over a scalar domain."""

    domain: object
    degree: int
    gen_mats: tuple[Matrix, ...]
    gen_invs: tuple[Matrix, ...]

    def __post_init__(self):
        """Each generator is square with m·m⁻¹ = I, so that m⁻¹ is a
        two-sided inverse; a pair met before is not multiplied again."""
        ident = Matrix.identity(self.domain, self.degree)
        seen = set()
        for k, (m, mi) in enumerate(zip(self.gen_mats, self.gen_invs)):
            if m.shape != (self.degree, self.degree):
                raise ValueError(f"generator {k} has shape {m.shape}")
            if (id(m), id(mi)) not in seen and not (m * mi).eq(ident):
                raise ValueError(f"generator {k}: stored inverse is wrong")
            seen.add((id(m), id(mi)))

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


# (row block, m×m block) for each block column of one generator image
Blocks = tuple[tuple[int, Matrix], ...]


@dataclass(frozen=True)
class InducedRep:
    """Representation of the base presentation built from a cover
    representation; generator images permute the sheets' blocks.

    gen_blocks[k][j] (inv_blocks[k][j] for the inverse) is the one
    nonzero block of block column j of generator k's image, as its row
    block and its m×m value."""

    rep: Representation
    cover_rep: Representation
    coset: CosetData
    block_degree: int
    sheet_count: int
    gen_blocks: tuple[Blocks, ...]
    inv_blocks: tuple[Blocks, ...]

    def marked_block_column(self, w: FreeWord) -> tuple[int, Matrix]:
        """The one nonzero block of the marked sheet's block column of
        ρ#(w), as its row block and its m×m value: the letters act on
        that block from right to left, one m×m product each."""
        j = self.coset.sheet[self.coset.covering.cover_base_vertex]
        blk = None
        for k, s in reversed(w):
            jp, b = (self.gen_blocks if s == 1 else self.inv_blocks)[k][j]
            blk = b if blk is None else b * blk
            j = jp
        if blk is None:
            blk = Matrix.identity(self.rep.domain, self.block_degree)
        return j, blk


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


def induce(cd: CosetData, rho: Representation) -> InducedRep:
    """Push a representation of the cover's loop group down to the base.

    By Reidemeister–Schreier every block is one edge lift: for a letter
    γ of the base and the lift ẽ of its edge from sheet c to sheet c′,
    block column c′ of ρ#(γ) has row block c and value ρ of ẽ's letter
    in the cover presentation (I when ẽ is a cover tree edge).  The
    inverse images are checked blockwise, one m×m product per sheet and
    generator."""
    if rho.rank != cd.cover_pres.rank:
        raise ValueError("representation does not match the cover presentation")
    p = cd.covering
    g = p.base
    sheet = cd.sheet
    letter_of = cd.cover_pres.gen_of_edge
    d = len(cd.fiber)
    ident = Matrix.identity(rho.domain, rho.degree)

    def blocks(e: int) -> Blocks:
        out: list = [None] * d
        for vt in p.vertex_fibers[g.src[e]]:
            et = p.edge_lift_at[(e, vt)]
            let = letter_of.get(et)
            if let is None:
                blk = ident
            else:
                blk = (rho.gen_mats if let[1] == 1 else rho.gen_invs)[let[0]]
            out[sheet[p.cover.tgt[et]]] = (sheet[vt], blk)
        return tuple(out)

    gens = tuple(blocks(e) for e in cd.base_pres.gen_edge)
    invs = tuple(blocks(g.inv[e]) for e in cd.base_pres.gen_edge)
    for k, (gen, inv) in enumerate(zip(gens, invs)):
        for j, col in enumerate(inv):
            back = None if col is None else gen[col[0]]
            if back is None or back[0] != j or not (back[1] * col[1]).eq(ident):
                raise InternalCosetError(
                    f"induced blocks are inconsistent: generator {k}, "
                    f"block column {j}")

    def image(blocks: Blocks) -> Matrix:
        return _blocks_to_matrix(rho.domain, d, rho.degree,
                                 {(jp, j): b for j, (jp, b) in enumerate(blocks)})

    rep = Representation(rho.domain, rho.degree * d,
                         tuple(map(image, gens)), tuple(map(image, invs)))
    return InducedRep(rep, rho, cd, rho.degree, d, gens, invs)


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
