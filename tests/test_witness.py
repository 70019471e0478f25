"""The ψ and Q checks of the cover-split witness against their dense and
dict-based reference (tests/witness_reference.py).

`_intertwines` compares ψ·a_cover with a_base·ψ one base row at a time,
`permutation_complement` reads each ρ# image's permutation off its
nonzero entries, and `_complement_splits` certifies Q invertible by its
inverse and compares ρ#(γ)·Q with Q·(1 ⊕ ρ_c(γ)) on nonzero entries.
Each must give the reference's answer on connected covers of degree 1
to 6 with integer, rational and symbolic weights: ψ intact and broken,
with representations of degree 1 to 3; ρ# restricted at every fixed
index, and refused when it is not a 0/1 permutation representation;
Q intact and singular, ρ_c with one entry changed and ρ# with two rows
of one image swapped.
"""

import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import covertwist.matrix as matrix
from covertwist.certificates import _complement_splits, _intertwines, verify_main
from covertwist.covering import coset_data, edge_voltage_cover
from covertwist.docio import document_weights, parse_input
from covertwist.domains import QQ
from covertwist.matrix import Matrix
from covertwist.randinst import random_representation
from covertwist.representation import (
    Representation,
    complement_basis,
    induce,
    permutation_complement,
    trivial_representation,
)

import witness_reference as reference
from builders import dense
from test_cli import BOUQUET
from test_cover_split import covers

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)
DEGREES = pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
KINDS = pytest.mark.parametrize("kind", ["integer", "rational", "symbolic"])


@DEGREES
@KINDS
def test_intertwines_matches_the_reference(d, kind):
    check_intertwines(covers(d, kind))


@SETTINGS
@given(st.data())
def check_intertwines(strategy, data):
    p, x = data.draw(strategy)
    cd = coset_data(p)
    m = data.draw(st.integers(1, 3), label="m")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    rho = random_representation(random.Random(seed), cd.cover_pres.rank, m)
    cert = verify_main(cd, rho, x)
    assert cert.commutes
    n = len(cert.psi)
    psis = [cert.psi]
    if n > 1:
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True), label="swap")
        swapped = list(cert.psi)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        psis.append(tuple(swapped))
    # one cover vertex sent to any row block, which another may hold
    vt = data.draw(st.integers(0, n - 1), label="moved")
    moved = list(cert.psi)
    moved[vt] = data.draw(st.integers(0, p.base.num_vertices * p.degree - 1),
                          label="to")
    psis.append(tuple(moved))
    for psi in psis:
        assert _intertwines(psi, m, cert.a_cover, cert.a_base) == \
            reference.intertwines(psi, m, cert.a_cover, cert.a_base)


def induced_permutations(p):
    """ρ# of the trivial representation: the sheet permutations."""
    cd = coset_data(p)
    return cd, induce(cd, trivial_representation(QQ, cd.cover_pres.rank))


@DEGREES
def test_permutation_complement_matches_the_reference(d):
    check_complement(covers(d, "integer"))


@SETTINGS
@given(st.data())
def check_complement(strategy, data):
    p, _ = data.draw(strategy)
    _, perm = induced_permutations(p)
    fixed = data.draw(st.integers(0, p.degree - 1), label="fixed")
    ours = permutation_complement(perm, fixed)
    ref = reference.permutation_complement(perm, fixed)
    assert ours.degree == ref.degree == p.degree - 1
    assert all(a.eq(b) for a, b in zip(ours.gen_mats + ours.gen_invs,
                                       ref.gen_mats + ref.gen_invs))
    if not perm.rank:
        return
    # row i of one image scaled by c, column i of its inverse by 1/c:
    # still a representation, no longer a 0/1 permutation one
    k = data.draw(st.integers(0, perm.rank - 1), label="generator")
    i = data.draw(st.integers(0, perm.degree - 1), label="row")
    c = data.draw(st.sampled_from([-1, 2]), label="scale")
    g, gi = dense(perm.gen_mats[k]), dense(perm.gen_invs[k])
    g[i] = [c * v for v in g[i]]
    for row in gi:
        row[i] = QQ.mul(row[i], QQ.invert(c))
    mats, invs = list(perm.gen_mats), list(perm.gen_invs)
    mats[k], invs[k] = Matrix(QQ, g), Matrix(QQ, gi)
    scaled = Representation(QQ, perm.degree, tuple(mats), tuple(invs))
    for complement in (permutation_complement,
                       reference.permutation_complement):
        with pytest.raises(ValueError):
            complement(scaled, fixed)


@DEGREES
def test_q_check_matches_the_determinant_reference(d):
    check_q(covers(d, "integer"))


@SETTINGS
@given(st.data())
def check_q(strategy, data):
    p, _ = data.draw(strategy)
    cd, perm = induced_permutations(p)
    d = p.degree
    fixed = cd.fiber.index(p.cover_base_vertex)
    rho_c = permutation_complement(perm, fixed)
    q = complement_basis(d, fixed)
    cases = [(perm, rho_c, q)]
    col = data.draw(st.integers(0, d - 1), label="zero column")
    cases.append((perm, rho_c,
                  Matrix(QQ, [row[:col] + [0] + row[col + 1:]
                              for row in dense(q)])))
    if d > 1 and perm.rank:
        k = data.draw(st.integers(0, perm.rank - 1), label="generator")
        i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2,
                                  max_size=2, unique=True), label="rows")
        r = data.draw(st.integers(0, d - 2), label="entry row")
        s = data.draw(st.integers(0, d - 2), label="entry column")
        changed = dense(rho_c.gen_mats[k])
        changed[r][s] += data.draw(st.sampled_from([-1, 1, 2]), label="by")
        mats = list(rho_c.gen_mats)
        mats[k] = Matrix(QQ, changed)
        cases.append((perm, SimpleNamespace(gen_mats=tuple(mats)), q))
        swapped = dense(perm.gen_mats[k])
        swapped[i], swapped[j] = swapped[j], swapped[i]
        mats = list(perm.gen_mats)
        mats[k] = Matrix(QQ, swapped)
        cases.append((SimpleNamespace(degree=d, gen_mats=tuple(mats)),
                      rho_c, q))
    verdicts = [_complement_splits(a, b, c, fixed) for a, b, c in cases]
    assert verdicts[0] and not verdicts[1]
    assert verdicts == [reference.q_splits(a, b, c) for a, b, c in cases]


def test_witness_memory_is_linear_in_the_cover_degree(monkeypatch):
    # ψ, the operators, the ρ# images, Q and the check (d·R)·Q = d·I on
    # the Z/2000 bouquet: stored as nonzeros, each holds O(d) entries and
    # the witness peaks near 10 MB; d×d rows of zeros took 834 MB here
    def no_kernel(m):
        raise AssertionError(f"kernel call of order {m.nrows}")

    monkeypatch.setattr(matrix, "_charpoly_coeffs", no_kernel)
    doc = parse_input(BOUQUET.format(n=2000))
    x = document_weights(doc)
    tracemalloc.start()
    try:
        p = edge_voltage_cover(doc.graph, doc.abelian_voltages, doc.moduli)
        cd = coset_data(p)
        cert = verify_main(cd, trivial_representation(QQ, cd.cover_pres.rank),
                           x)
        perm = cert.induced
        fixed = cd.fiber.index(p.cover_base_vertex)
        splits = _complement_splits(perm, permutation_complement(perm, fixed),
                                    complement_basis(perm.degree, fixed),
                                    fixed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.ok and splits
    assert peak < 40 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
