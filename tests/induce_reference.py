"""The path-based induced representation and the dense intertwiner, kept
as a reference for tests.

The program reads each block of ρ# off one edge lift (Reidemeister–
Schreier), labels cover vertices with their sheets, keeps ψ as one m×m
block per cover vertex and checks ψ·M_cover = M^{ρ#}_base·ψ on nonzero
entries.  This module computes the same objects the long way:

* a coset word for every cover vertex, read off (base tree path down) ·
  (projected cover tree path up);
* every block of ρ# as ρ of the cover word of r'⁻¹·γ·r, found by
  realizing that base word as a loop, lifting it at the marked vertex
  and rewriting the lift in the cover presentation (express_in_subgroup,
  which round-trips back to the base word);
* ψ as a dense matrix, block column ṽ being the marked sheet's block
  column of the dense ρ#(g_ṽ), with dense vertex-block determinants and
  dense products for the conjugacy check.

None of it shares code with the program's block route beyond the
covering, the presentations and the operators themselves.
"""

from covertwist.covering import CosetData, fiber_action, lift_path
from covertwist.errors import CovertwistError, InternalCosetError
from covertwist.graphs import path_concat
from covertwist.homotopy import FreeWord, invert_word, reduce_word
from covertwist.matrix import Matrix, det
from covertwist.representation import Representation

from builders import concat_words, rep_of_word, submatrix


class NotInSubgroupError(CovertwistError):
    """The word does not lift to a loop, so it is not in the subgroup."""


def express_in_subgroup(cd: CosetData, h: FreeWord) -> FreeWord:
    """Rewrite a base word lying in the image of the cover's loop group
    as a word in the cover presentation.  The base word belongs to the
    subgroup exactly when its lift at the marked vertex closes up."""
    p = cd.covering
    loop = cd.base_pres.realize_word(h)
    lifted = lift_path(p, loop, p.cover_base_vertex)
    end = p.cover.tgt[lifted.edges[-1]] if lifted.edges else lifted.base
    if end != p.cover_base_vertex:
        raise NotInSubgroupError(
            "word does not lift to a loop at the marked vertex")
    out = cd.cover_pres.loop_to_word(lifted)
    back = cd.base_pres.loop_to_word(
        p.project_path(cd.cover_pres.realize_word(out)))
    if back != reduce_word(h):
        raise InternalCosetError("round trip through the cover changed the word")
    return out


def coset_words(cd: CosetData) -> tuple[FreeWord, ...]:
    """The base word of every cover vertex: the loop down the base tree
    to its base vertex, then up the projection of its cover tree path."""
    p = cd.covering
    out = []
    for vt in range(p.cover.num_vertices):
        down = cd.base_tree.path_from_root(p.p_vertex[vt])
        up = p.project_path(cd.cover_tree.path_to_root(vt))
        out.append(cd.base_pres.loop_to_word(path_concat(p.base, down, up)))
    return tuple(out)


def _induced_generator(cd: CosetData, rho: Representation,
                       gen_word: FreeWord):
    p = cd.covering
    fiber = cd.fiber
    pos = {vt: j for j, vt in enumerate(fiber)}
    blocks = []
    for j, r in enumerate(cd.transversal):
        target = fiber_action(p, cd.base_pres, gen_word, fiber[j])
        jp = pos[target]
        h = concat_words(invert_word(cd.transversal[jp]), gen_word, r)
        blocks.append((jp, rep_of_word(rho, express_in_subgroup(cd, h))))
    return tuple(blocks)


def induced_blocks(cd: CosetData, rho: Representation):
    """(gen_blocks, inv_blocks) of ρ#, each block column as its row block
    and m×m value, through lifted coset words."""
    rank = cd.base_pres.rank
    return (tuple(_induced_generator(cd, rho, ((k, 1),)) for k in range(rank)),
            tuple(_induced_generator(cd, rho, ((k, -1),)) for k in range(rank)))


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


def blocks_to_dense(p, psi_blocks, m: int, dom) -> Matrix:
    """The dense matrix of ψ given as one (row block, m×m block) per
    cover vertex."""
    md = m * p.degree
    data = [[dom.zero] * (p.cover.num_vertices * m)
            for _ in range(p.base.num_vertices * md)]
    for vt, (rb, blk) in enumerate(psi_blocks):
        for i in range(m):
            for j in range(m):
                data[rb * m + i][vt * m + j] = blk[i, j]
    return Matrix(dom, data)


def dense_commutes(psi: Matrix, a_cover: Matrix, a_base: Matrix) -> bool:
    """ψ·a_cover = a_base·ψ by dense products over the operators' domain."""
    dom = a_cover.domain
    psi = Matrix(dom, [[dom.coerce(v) for v in row] for row in psi.data])
    return (psi * a_cover).eq(a_base * psi)
