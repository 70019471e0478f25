"""Matrix representations of graph loop groups and their plumbing.

A representation assigns an invertible matrix to each free generator of
a presentation.  Connections realize representations edgewise, induced
representations push a cover representation down to the base one edge
lift per block.  A regular abelian fiber group keeps its characters as
exponent data, from one walk of its points; a value is built, exactly in
Q(zeta_N) for N the group exponent (QQ for N <= 2, QQ(i) for N = 4),
only where it is asked for.
"""

from __future__ import annotations

from itertools import product
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
    NotASubgroupError,
)
from .graphs import Path, check_loop
from .homotopy import Pi1Presentation
from .matrix import Matrix, det, direct_sum_matrices, inverse


class Representation:
    """Generator images and their inverses over a scalar domain."""

    def __init__(self, domain: object, degree: int,
                 gen_mats: tuple[Matrix, ...], gen_invs: tuple[Matrix, ...]):
        """Each generator is square with m·m⁻¹ = I, so that m⁻¹ is a
        two-sided inverse; the product multiplies only the nonzero
        entries that meet.  A pair met before is not multiplied again."""
        self.domain = domain
        self.degree = degree
        self.gen_mats = gen_mats
        self.gen_invs = gen_invs
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


class Connection:
    """Invertible matrix per directed edge; on graphs with involution a
    valid connection inverts along edge reversal."""

    def __init__(self, domain: object, degree: int, mats: tuple[Matrix, ...]):
        self.domain = domain
        self.degree = degree
        self.mats = mats


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


def _blocks_to_matrix(domain, d: int, m: int, blocks) -> Matrix:
    """The d·m × d·m matrix with the given ((row block, column block),
    m×m block) pairs, at most one per position, and zero elsewhere: each
    block's stored entries shifted to its position, block columns in
    ascending order, so that each row comes out as stored."""
    rows: list[list] = [[] for _ in range(d * m)]
    for (bi, bj), blk in sorted(blocks, key=lambda block: block[0]):
        shift = bj * m
        for i, brow in enumerate(blk.rows):
            rows[bi * m + i] += [(j + shift, x) for j, x in brow]
    return Matrix.from_rows(domain, rows, d * m)


def induce(cd: CosetData, rho: Representation) -> Representation:
    """Push a representation of the cover's loop group down to the base:
    ρ#, of degree d·m, its block rows and columns indexed by the sheets.

    By Reidemeister–Schreier every block is one edge lift: for a letter
    γ of the base and the lift ẽ of its edge from sheet c to sheet c′,
    block column c′ of ρ#(γ) has row block c and value ρ of ẽ's letter
    in the cover presentation (I when ẽ is a cover tree edge).  Each
    inverse image must place its blocks where the generator's image
    takes them back; Representation checks that the assembled images
    are inverse."""
    if rho.rank != cd.cover_pres.rank:
        raise ValueError("representation does not match the cover presentation")
    p = cd.covering
    g = p.base
    sheet = cd.sheet
    letter_of = cd.cover_pres.gen_of_edge
    d = len(cd.fiber)
    ident = Matrix.identity(rho.domain, rho.degree)

    fibers, lift_at, cover_tgt = p.vertex_fibers, p.edge_lift_at, p.cover.tgt
    images = {1: rho.gen_mats, -1: rho.gen_invs}

    def blocks(e: int) -> Blocks:
        out: list = [None] * d
        for vt in fibers[g.src[e]]:
            et = lift_at[(e, vt)]
            let = letter_of.get(et)
            blk = ident if let is None else images[let[1]][let[0]]
            out[sheet[cover_tgt[et]]] = (sheet[vt], blk)
        return tuple(out)

    gens = tuple(blocks(e) for e in cd.base_pres.gen_edge)
    invs = tuple(blocks(g.inv[e]) for e in cd.base_pres.gen_edge)
    for k, (gen, inv) in enumerate(zip(gens, invs)):
        for j, col in enumerate(inv):
            back = None if col is None else gen[col[0]]
            if back is None or back[0] != j:
                raise InternalCosetError(
                    f"induced blocks are inconsistent: generator {k}, "
                    f"block column {j}")

    def image(blocks: Blocks) -> Matrix:
        return _blocks_to_matrix(rho.domain, d, rho.degree,
                                 (((jp, j), b)
                                  for j, (jp, b) in enumerate(blocks)))

    return Representation(rho.domain, rho.degree * d,
                          tuple(map(image, gens)), tuple(map(image, invs)))


def permutation_complement(rep: Representation,
                           fixed: int = 0) -> Representation:
    """Restriction of a permutation representation to the zero-sum
    complement of the all-ones vector, in the basis e_j − e_fixed over
    the non-fixed indices.  Each generator image must be a 0/1
    permutation matrix: its permutation is read off the single stored
    entry of each row, and P·(e_j − e_fixed) = e_P(j) − e_P(fixed) gives
    the restricted image's column for j, at most two entries.  The
    complement of a degree-1 representation has degree 0, whatever the
    number of generators."""
    d = rep.degree
    dom = rep.domain
    one, neg_one = dom.one, dom.neg(dom.one)
    others = [j for j in range(d) if j != fixed]
    col_of = {j: c for c, j in enumerate(others)}

    def image_of(mat: Matrix) -> list[int]:
        img = [-1] * d
        for i, row in enumerate(mat.rows):
            if len(row) != 1 or not dom.eq(row[0][1], one) \
                    or img[row[0][0]] != -1:
                raise ValueError("not a permutation matrix")
            img[row[0][0]] = i
        return img

    def restrict(mat: Matrix) -> Matrix:
        img = image_of(mat)
        rows: list[list] = [[] for _ in range(d - 1)]
        moved = col_of.get(img[fixed])   # None when P fixes e_fixed
        for j, c in col_of.items():
            if img[j] != fixed:
                rows[col_of[img[j]]].append((c, one))
            if moved is not None:
                rows[moved].append((c, neg_one))
        return Matrix.from_rows(dom, rows, d - 1)

    return Representation(dom, d - 1,
                          tuple(restrict(m) for m in rep.gen_mats),
                          tuple(restrict(m) for m in rep.gen_invs))


def complement_basis(d: int, fixed: int = 0) -> Matrix:
    """Q = [1 | e_j − e_fixed for j ≠ fixed, ascending], over QQ: the
    all-ones vector, then the basis permutation_complement restricts
    to, so that P·Q = Q·(1 ⊕ restricted P) for a permutation matrix P."""
    rows = [[(0, 1)] for _ in range(d)]
    for c, j in enumerate(j for j in range(d) if j != fixed):
        rows[j].append((c + 1, 1))
        rows[fixed].append((c + 1, -1))
    return Matrix.from_rows(QQ, rows, d)


# ---------------------------------------------------------------------------
# characters of abelian permutation groups


class CharacterTable:
    """All degree-1 characters of a regular abelian permutation group,
    ⊕ ℤ/diag[j], as exponent data: the element sending point 0 to x has
    exponents vectors[x] in the generators, and character t takes it to
    Π_j ζ_diag[j]^(t_j·(U·vectors[x])_j), t in mixed radix, last fastest."""

    def __init__(self, domain: object, gens: tuple[Perm, ...],
                 diag: tuple[int, ...], u: tuple[tuple[int, ...], ...],
                 vectors: tuple[tuple[int, ...], ...]):
        self.domain = domain
        self.gens = gens
        self.diag = diag
        self.u = u
        self.vectors = vectors

    @property
    def count(self) -> int:
        return prod(self.diag)


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


def abelian_character_table(galois: GaloisGroup) -> CharacterTable:
    """Characters via a cyclic decomposition of the relation lattice of
    the group's generators, read off one breadth-first walk of the
    points.  Commutation is the group's own cached test.

    Point x stands for the element sending 0 to x, which is unique in a
    regular group, and a transitive abelian group is regular.  The walk
    gives every point an exponent vector, and every point met again a
    relation.  The table is checked in integers: U·rel ≡ 0 (mod diag)
    for every relation, so each character is a homomorphism; |det U| = 1,
    so the characters are distinct; Π diag = degree, so there are as
    many as elements."""
    if not galois.abelian:
        raise NotAbelianError("generators do not commute")
    degree = galois.order
    glist = list(galois.gen_perms) or [perm_identity(degree)]
    r = len(glist)

    vectors: list = [None] * degree
    vectors[0] = (0,) * r
    relations: list[list[int]] = []
    walk = [0]
    for x in walk:
        vx = vectors[x]
        for i, gperm in enumerate(glist):
            y = gperm[x]
            vy = vx[:i] + (vx[i] + 1,) + vx[i + 1:]
            if vectors[y] is None:
                vectors[y] = vy
                walk.append(y)
            elif vy != vectors[y]:
                relations.append([a - b for a, b in zip(vy, vectors[y])])
    if len(walk) != degree:
        raise ValueError("the generators do not act transitively")

    diag, u = _diagonalize_relations(relations, r)
    if prod(diag) != degree:
        raise InternalCosetError("cyclic decomposition misses the group order")
    if any(sum(a * b for a, b in zip(row, rel)) % d
           for row, d in zip(u, diag) for rel in relations):
        raise InternalCosetError("character is not a homomorphism")
    if abs(det(Matrix(QQ, u))) != 1:
        raise InternalCosetError("characters collide")
    return CharacterTable(cyclotomic_field(lcm(*diag)), tuple(glist),
                          tuple(diag), tuple(map(tuple, u)), tuple(vectors))


def table_characters(table: CharacterTable,
                     perms: tuple[Perm, ...]) -> list[Representation]:
    """Each character of the table as a degree-1 representation with
    one generator per group element in perms: its images are the
    character's values on perms and its inverse images the values on
    the negated exponent vectors, each ζ_N^k for N = lcm(diag).  An
    element of the regular abelian group is a permutation that commutes
    with every generator; any other is refused."""
    dom = table.domain
    n = lcm(*table.diag)
    ys = []
    for g in perms:
        if any(perm_compose(g, a) != perm_compose(a, g) for a in table.gens):
            raise NotASubgroupError("permutation is not in the group")
        vec = table.vectors[g[0]]
        ys.append([n // d * sum(a * b for a, b in zip(row, vec))
                   for row, d in zip(table.u, table.diag)])

    def values(t, sign):
        return tuple(Matrix(dom, [[dom.coerce(root_of_unity(
            n, sign * sum(a * b for a, b in zip(t, y))))]]) for y in ys)

    return [Representation(dom, 1, values(t, 1), values(t, -1))
            for t in product(*map(range, table.diag))]


def abelian_characters(galois: GaloisGroup) -> list[Representation]:
    """Degree-1 representations of the base presentation: each character
    of the abelian fiber group composed with the generator action."""
    table = abelian_character_table(galois)
    return table_characters(table, table.gens)


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
        return _blocks_to_matrix(domain, index, degree, blocks.items())

    return matrix_at, transversal
