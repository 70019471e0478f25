"""ρ# read off the edge lifts and ψ as the sheet relabeling, against
the path-based reference.

`induce` takes each block of ρ# from one edge lift and `build_psi`
returns the row block p(ṽ)·d + sheet(ṽ) of each cover vertex, whose
block is I_m; tests/induce_reference.py computes the same blocks by
lifting coset words, ψ by the paper's formula as a dense matrix with
dense vertex determinants, and the conjugacy check by dense products.
Both must agree on random connected covers of degree 2 to 6, with
representations of degree 1 to 3 over QQ and Q(ζ_5), on the ℤ/6
bouquet over Q(ζ_6), and on covers whose marked lift is not the
smallest vertex of its fiber.
"""

import random

import pytest

from covertwist.certificates import (
    _intertwines,
    build_psi,
    psi_vertex_determinants,
    verify_main,
)
from covertwist.covering import CoveringMap, build_cover, coset_data
from covertwist.docio import parse_input
from covertwist.domains import QQ, cyclotomic_field, root_of_unity
from covertwist.homotopy import fundamental_presentation
from covertwist.matrix import Matrix
from covertwist.operators import symbolic_weights, weights_from_unoriented
from covertwist.randinst import random_connected_graph, random_voltage
from covertwist.representation import induce, representation

from induce_reference import (
    blocks_image,
    dense_commutes,
    dense_psi,
    dense_vertex_determinants,
    induced_blocks,
    psi_to_dense,
)

Z5 = cyclotomic_field(5)
Z6 = "sample_inputs/z6_bouquet.txt"


def random_matrix(rng, dom, m):
    """L·U with unit lower L and an upper U whose diagonal holds powers
    of a root of unity (±1 over QQ): invertible by construction."""
    def entry():
        if dom is QQ:
            return rng.randint(-2, 2)
        return dom.coerce(rng.randint(-1, 1) * root_of_unity(5, rng.randrange(5))
                          + rng.randint(-1, 1))

    def unit():
        if dom is QQ:
            return rng.choice((-1, 1))
        return dom.coerce(root_of_unity(5, rng.randrange(5)))

    lo = Matrix(dom, [[entry() if j < i else (dom.one if i == j else dom.zero)
                       for j in range(m)] for i in range(m)])
    up = Matrix(dom, [[entry() if j > i else (unit() if i == j else dom.zero)
                       for j in range(m)] for i in range(m)])
    return lo * up


def with_marked_lift(p, vt):
    """p with its marked lift moved to the cover vertex vt."""
    return CoveringMap(p.base, p.cover, p.p_vertex, p.p_edge, p.base_vertex,
                       vt)


def random_case(seed):
    """A connected cover of degree 2 to 6 over a small multigraph with
    positive rank, its coset data, and a random cover representation
    of degree 1 to 3 over QQ or Q(ζ_5).  Every third case moves the
    marked lift off the smallest vertex of its fiber."""
    rng = random.Random(f"induce:{seed}")
    d = rng.randint(2, 6)
    g = random_connected_graph(rng, 3, 5, min_extra=1)
    pres = fundamental_presentation(g, 0)
    p = build_cover(pres, random_voltage(rng, pres.rank, d))
    if seed % 3 == 0:
        p = with_marked_lift(p, p.vertex_fibers[0][-1])
    cd = coset_data(p)
    dom = QQ if seed % 2 else Z5
    m = rng.randint(1, 3)
    rho = representation(dom, [random_matrix(rng, dom, m)
                               for _ in range(cd.cover_pres.rank)])
    x = weights_from_unoriented(g, QQ, [rng.randint(1, 4)
                                        for _ in range(g.num_unoriented)])
    return p, cd, rho, x


def z6_case(marked):
    """The ℤ/6 bouquet with a degree-2 representation over Q(ζ_6) of the
    cover's loop group (the document's two matrices in turn) and the
    marked lift at fiber position `marked`."""
    with open(Z6, encoding="utf-8") as fh:
        doc = parse_input(fh.read())
    g = doc.graph
    p = build_cover(fundamental_presentation(g, 0), doc.voltage)
    p = with_marked_lift(p, p.vertex_fibers[0][marked])
    cd = coset_data(p)
    base = doc.representations["rho"]
    rho = representation(base.domain, [base.gen_mats[k % 2]
                                       for k in range(cd.cover_pres.rank)])
    return p, cd, rho, symbolic_weights(g)


CASES = ([pytest.param(random_case, s, id=f"random-{s}") for s in range(30)]
         + [pytest.param(z6_case, k, id=f"z6-marked-{k}") for k in (0, 3)])


@pytest.mark.parametrize("make, arg", CASES)
def test_blocks_psi_and_determinants_match_the_reference(make, arg):
    p, cd, rho, x = make(arg)
    ind = induce(cd, rho)
    m, dom = rho.degree, rho.domain
    gens, invs = induced_blocks(cd, rho)
    assert all(a.eq(blocks_image(b, m, dom))
               for a, b in zip(ind.gen_mats + ind.gen_invs, gens + invs))
    psi = build_psi(p, cd)
    dense = dense_psi(cd, rho)
    assert psi_to_dense(p, psi, m, dom).eq(dense)
    dets = psi_vertex_determinants(p, psi, m)
    assert dets == dense_vertex_determinants(p, dense, m)
    cert = verify_main(cd, rho, x)
    assert cert.ok
    assert dense_commutes(dense, cert.a_cover, cert.a_base)


def broken_psis(psi, p, rng):
    """ψ with the row blocks of two lifts swapped within a fiber, across
    fibers, and one lift's row block moved to the next one, which its
    own fiber or another lift may already use."""
    out = []
    a, b = p.vertex_fibers[0][:2]
    swapped = list(psi)
    swapped[a], swapped[b] = psi[b], psi[a]
    out.append(swapped)
    c = p.vertex_fibers[-1][-1]
    across = list(psi)
    across[a], across[c] = psi[c], psi[a]
    out.append(across)
    vt = rng.randrange(len(psi))
    moved = list(psi)
    moved[vt] = (psi[vt] + 1) % (p.base.num_vertices * p.degree)
    out.append(moved)
    return [tuple(q) for q in out]


@pytest.mark.parametrize("make, arg", CASES[:12] + CASES[-2:])
def test_sparse_check_and_determinants_agree_on_broken_psi(make, arg):
    p, cd, rho, x = make(arg)
    cert = verify_main(cd, rho, x)
    m = rho.degree
    for psi in broken_psis(cert.psi, p, random.Random(str(arg))):
        dense = psi_to_dense(p, psi, m, rho.domain)
        assert _intertwines(psi, m, cert.a_cover, cert.a_base) == \
            dense_commutes(dense, cert.a_cover, cert.a_base)
        assert psi_vertex_determinants(p, psi, m) == \
            dense_vertex_determinants(p, dense, m)


@pytest.mark.parametrize("cover, base, same", [
    ([[0]], [[1]], False),   # only a_base·ψ has an entry
    ([[1]], [[0]], False),   # only ψ·a_cover has one
    ([[0]], [[0]], True),
    ([[3]], [[3]], True),
    # ψ sends both cover indices to base index 0: ψ·a_cover adds the
    # rows of a_cover, a_base·ψ repeats column 0 of a_base, and base
    # row 1 is compared too
    ([[1, 2], [3, 4]], [[4, 6], [0, 0]], False),
    ([[1, 3], [3, 1]], [[4, 0], [1, 0]], False),
    ([[1, 3], [3, 1]], [[4, 0], [0, 0]], True)])
def test_the_check_compares_every_nonzero_position(cover, base, same):
    psi = (0,) * len(cover)
    assert _intertwines(psi, 1, Matrix(QQ, cover), Matrix(QQ, base)) is same
