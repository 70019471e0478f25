"""The path-based induced representation and the dense intertwiner, kept
as a reference for tests.

The program reads each block of ρ# off one edge lift (Reidemeister–
Schreier), labels cover vertices with their sheets, takes ψ as the
sheet relabeling ṽ ↦ (p(ṽ), sheet(ṽ)) ⊗ I_m and checks
ψ·M_cover = M^{ρ#}_base·ψ on nonzero entries.  This module computes the
same objects the long way, from the paper's formulas:

* a coset word for every cover vertex, read off (base tree path down) ·
  (projected cover tree path up), and the transversal, the words of the
  marked fiber's vertices;
* every block of ρ# as ρ of the cover word of r'⁻¹·γ·r, found by
  realizing that base word as a loop, lifting it at the marked vertex
  and rewriting the lift in the cover presentation (express_in_subgroup,
  which round-trips back to the base word);
* ψ as a dense matrix, block column ṽ being the marked sheet's block
  column of the dense ρ#(g_ṽ), with dense vertex-block determinants and
  dense products for the conjugacy check.

None of it shares code with the program's route beyond the covering,
the presentations and the operators themselves.
"""

from covertwist.covering import CosetData
from covertwist.errors import CovertwistError, InternalCosetError
from covertwist.homotopy import FreeWord
from covertwist.matrix import Matrix, det
from covertwist.representation import Representation

from builders import (
    concat_words,
    dense,
    fiber_action,
    invert_word,
    lift_path,
    loop_to_word,
    path_concat,
    path_from_root,
    path_to_root,
    project_path,
    realize_word,
    reduce_word,
    rep_of_word,
    submatrix,
    zero_matrix,
)


class NotInSubgroupError(CovertwistError):
    """The word does not lift to a loop, so it is not in the subgroup."""


def express_in_subgroup(cd: CosetData, h: FreeWord) -> FreeWord:
    """Rewrite a base word lying in the image of the cover's loop group
    as a word in the cover presentation.  The base word belongs to the
    subgroup exactly when its lift at the marked vertex closes up."""
    p = cd.covering
    loop = realize_word(cd.base_pres, h)
    lifted = lift_path(p, loop, p.cover_base_vertex)
    end = p.cover.tgt[lifted.edges[-1]] if lifted.edges else lifted.base
    if end != p.cover_base_vertex:
        raise NotInSubgroupError(
            "word does not lift to a loop at the marked vertex")
    out = loop_to_word(cd.cover_pres, lifted)
    back = loop_to_word(cd.base_pres,
                        project_path(p, realize_word(cd.cover_pres, out)))
    if back != reduce_word(h):
        raise InternalCosetError("round trip through the cover changed the word")
    return out


def coset_words(cd: CosetData) -> tuple[FreeWord, ...]:
    """The base word of every cover vertex: the loop down the base tree
    to its base vertex, then up the projection of its cover tree path."""
    p = cd.covering
    out = []
    for vt in range(p.cover.num_vertices):
        down = path_from_root(cd.base_pres.tree, p.p_vertex[vt])
        up = project_path(p, path_to_root(cd.cover_tree, vt))
        out.append(loop_to_word(cd.base_pres, path_concat(p.base, down, up)))
    return tuple(out)


def transversal(cd: CosetData) -> tuple[FreeWord, ...]:
    """The coset word of each marked-fiber vertex, in fiber order: the
    projected cover tree path from it to the root, which carries the
    marked lift to it."""
    words = coset_words(cd)
    return tuple(words[vt] for vt in cd.fiber)


def _induced_generator(cd: CosetData, rho: Representation,
                       words: tuple[FreeWord, ...], gen_word: FreeWord):
    p = cd.covering
    fiber = cd.fiber
    pos = {vt: j for j, vt in enumerate(fiber)}
    blocks = []
    for j, r in enumerate(words):
        target = fiber_action(p, cd.base_pres, gen_word, fiber[j])
        jp = pos[target]
        h = concat_words(invert_word(words[jp]), gen_word, r)
        blocks.append((jp, rep_of_word(rho, express_in_subgroup(cd, h))))
    return tuple(blocks)


def induced_blocks(cd: CosetData, rho: Representation):
    """The block columns of each generator's image under ρ# and of its
    inverse's, each block column as its row block and m×m value,
    through lifted coset words."""
    rank = cd.base_pres.rank
    words = transversal(cd)
    return tuple(tuple(_induced_generator(cd, rho, words, ((k, s),))
                       for k in range(rank)) for s in (1, -1))


def blocks_image(blocks, m: int, dom) -> Matrix:
    """The dense image of one generator given as its block columns, each
    a (row block, m×m block) pair."""
    n = len(blocks) * m
    data = [[dom.zero] * n for _ in range(n)]
    for j, (jp, blk) in enumerate(blocks):
        for a in range(m):
            for b in range(m):
                data[jp * m + a][j * m + b] = blk[a, b]
    return Matrix(dom, data)


def column_blocks(image: Matrix, m: int):
    """blocks_image read backwards: the block columns of an image with
    one nonzero block in each, as (row block, m×m block) pairs."""
    d = image.nrows // m
    out = []
    for j in range(d):
        cols = range(j * m, (j + 1) * m)
        for jp in range(d):
            blk = submatrix(image, range(jp * m, (jp + 1) * m), cols)
            if not blk.eq(zero_matrix(image.domain, m, m)):
                out.append((jp, blk))
                break
    return tuple(out)


def dense_induced(cd: CosetData, rho: Representation) -> Representation:
    """ρ# with dense generator images of order d·m."""
    gens, invs = induced_blocks(cd, rho)
    m, dom = rho.degree, rho.domain
    return Representation(dom, len(cd.fiber) * m,
                          tuple(blocks_image(b, m, dom) for b in gens),
                          tuple(blocks_image(b, m, dom) for b in invs))


def dense_psi(cd: CosetData, rho: Representation) -> Matrix:
    """ψ as a matrix of order (n·d·m) × (N·m): column block ṽ holds the
    marked sheet's block column of ρ#(g_ṽ), in the rows of p(ṽ)."""
    p = cd.covering
    m = rho.degree
    ind = dense_induced(cd, rho)
    md = ind.degree
    dom = rho.domain
    fixed = cd.fiber.index(p.cover_base_vertex)
    words = coset_words(cd)
    data = [[dom.zero] * (p.cover.num_vertices * m)
            for _ in range(p.base.num_vertices * md)]
    for vt, w in enumerate(words):
        img = rep_of_word(ind, w)
        top = p.p_vertex[vt] * md
        for i in range(md):
            for j in range(m):
                data[top + i][vt * m + j] = img[i, fixed * m + j]
    return Matrix(dom, data)


def dense_vertex_determinants(p, psi: Matrix, m: int) -> tuple:
    """det of each base vertex's square block of a dense ψ."""
    md = m * p.degree
    out = []
    for v in range(p.base.num_vertices):
        cols = [vt * m + j for vt in p.vertex_fibers[v] for j in range(m)]
        out.append(det(submatrix(psi, range(v * md, (v + 1) * md), cols)))
    return tuple(out)


def psi_to_dense(p, psi, m: int, dom) -> Matrix:
    """The dense matrix of ψ given as the row block of each cover
    vertex, whose block there is I_m."""
    md = m * p.degree
    data = [[dom.zero] * (p.cover.num_vertices * m)
            for _ in range(p.base.num_vertices * md)]
    for vt, rb in enumerate(psi):
        for i in range(m):
            data[rb * m + i][vt * m + i] = dom.one
    return Matrix(dom, data)


def dense_commutes(psi: Matrix, a_cover: Matrix, a_base: Matrix) -> bool:
    """ψ·a_cover = a_base·ψ by dense products over the operators' domain."""
    dom = a_cover.domain
    psi = Matrix(dom, [[dom.coerce(v) for v in row] for row in dense(psi)])
    return (psi * a_cover).eq(a_base * psi)
