"""Certificates tying the operator algebra to the covering machinery.

verify_main checks the paper's identity ψ·M^ρ_cover = M^{ρ#}_base·ψ, ψ
invertible, with an explicitly constructed ψ, for M the twisted
adjacency operator or the twisted Laplacian.  All of it is read off the
d sheets of the cover, the lifts of the base tree: each block of ρ# is
one edge lift, and ψ is the sheet relabeling ṽ ↦ (p(ṽ), sheet(ṽ)) ⊗ I_m,
so its vertex-block determinants are permutation signs and both sides
of the identity are the operators' nonzero entries, moved by ψ.  Every
cover certificate takes the cover as its coset data (covering.coset_data),
which exist only for a connected cover; the deck group of cor2 is the
fiber group read off the same sheets.

For the trivial twist ρ, ρ# is the permutation representation on the
fiber, which splits as 1 ⊕ ρ_c, so

    charpoly(M_cover) = charpoly(M_base) · charpoly(M_base^{ρ_c}),

and split_cover_charpoly reads the cover charpoly off the identity
instead of expanding a determinant of order d·n.  Its witness has three
parts, each checked exactly and none through a kernel call:

* ψ and its vertex-block determinants (ψ invertible), permutation signs;
* ψ·M_cover = M_base^{ρ#}·ψ, compared one base row at a time;
* Q = [1 | e_j − e_fixed], invertible by its exhibited inverse, and
  ρ#(γ)·Q = Q·(1 ⊕ ρ_c(γ)) on every generator γ, both sides formed from
  nonzero entries; ρ#(γ) is a sheet permutation, from which
  permutation_complement reads ρ_c(γ).

A fourth, cheap check ties the product back to the cover operator
itself: its λ^{N−1} coefficient, N = d·n, read off the two factors
without forming the product, must be −tr(M_cover).  No certificate
forms the product unless it prints or compares it: trees and dimer read
the cover coefficients they need off the factors too.

cor1 (M = A) and trees (M = L) take that route at every degree, and so
do cor2 (M = A; full factorization over the irreducibles of a normal
cover's deck group) and dimer (M = K, the Kasteleyn-weighted adjacency;
determinant factorization under an odd cyclic symmetry, det K read off
the charpoly's constant coefficient): each takes its cover-side
quantity from the split, with its whole witness.  kos, the torus product
identity, still takes the cover determinant directly, under the work
budget, and compares it with the product of the character-twisted
base determinants over Q(ζ_lcm(m, n)).  Exact arithmetic throughout:
roots of unity are cyclotomic numbers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .covering import (
    CosetData,
    CoveringMap,
    coset_data,
    edge_voltage_cover,
    is_normal,
)
from .domains import QQ, cyclotomic_field, root_of_unity
from .errors import (
    DivisionFailedError,
    DomainMismatchError,
    EvenDegreeError,
    IrreducibleCountMismatchError,
    NotAbelianError,
    NotNormalError,
    NotPlanarError,
    NotPlanarQuotientError,
    OddDimensionError,
)
from .graphs import Graph, RotationSystem, faces
from .matrix import (
    Matrix,
    charpoly,
    check_pfaffian_order,
    det,
    direct_sum_matrices,
    pfaffian,
)
from .operators import (
    EdgeWeights,
    kasteleyn_orientation,
    kasteleyn_weights,
    laplacian,
    lift_weights,
    twisted_adjacency,
)
from .oracles import matching_sum
from .poly import MultiPoly, PolyDomain, VarRegistry
from .representation import (
    Connection,
    Representation,
    abelian_characters,
    complement_basis,
    connection_from_rep,
    induce,
    permutation_complement,
    trivial_connection,
    trivial_representation,
)


def unoriented_values(g: Graph, x: EdgeWeights) -> list:
    """One weight per unoriented edge, in unoriented index order."""
    return [x.values[e] for (e, _) in g.unoriented]


# ---------------------------------------------------------------------------
# the conjugation certificate


class ConjugacyCertificate:
    """ψ together with the two operators it is claimed to intertwine
    (a_cover and a_base, twisted adjacency or twisted Laplacian) and the
    induced representation ρ# that twists the base one.  psi holds the
    row block of each cover vertex; each of its blocks is I_m."""

    def __init__(self, psi: tuple[int, ...], a_cover: Matrix, a_base: Matrix,
                 commutes: bool, vertex_dets: tuple[int, ...],
                 induced: Representation):
        self.psi = psi
        self.a_cover = a_cover
        self.a_base = a_base
        self.commutes = commutes
        self.vertex_dets = vertex_dets
        self.induced = induced

    @property
    def invertible(self) -> bool:
        return all(self.vertex_dets)

    @property
    def ok(self) -> bool:
        return self.commutes and self.invertible


def build_psi(p: CoveringMap, cd: CosetData) -> tuple[int, ...]:
    """ψ: f ↦ (v ↦ Σ_{ṽ over v} ρ#(g_ṽ)(f(ṽ) in the marked sheet's block)),
    as the row block p(ṽ)·d + sheet(ṽ) of each cover vertex ṽ, whose
    block column of ψ is I_m there and 0 elsewhere.

    g_ṽ is the word of ṽ's sheet, (base tree path down) · (projected
    cover tree path up).  It lifts to a path in the cover tree, from the
    marked lift to ṽ's sheet, and every edge lift in the cover tree
    carries I; so the marked sheet's block column of ρ#(g_ṽ) is I_m in
    row block sheet(ṽ), whatever ρ is."""
    d = p.degree
    return tuple(v * d + c for v, c in zip(p.p_vertex, cd.sheet))


def psi_vertex_determinants(p: CoveringMap, psi: tuple[int, ...],
                            m: int) -> tuple[int, ...]:
    """Determinant of each base vertex's square block of ψ, whose block
    columns are the vertex's lifts, each I_m in its row block.  When the
    row blocks permute the vertex's d row blocks by σ, it is sign(σ)^m,
    with sign(σ) = (−1)^(d − number of cycles of σ); otherwise two lifts
    share a row block, or one leaves the vertex, and it is 0."""
    d = p.degree
    dets = []
    for v, lifts in enumerate(p.vertex_fibers):
        rows = [psi[vt] - v * d for vt in lifts]
        if sorted(rows) != list(range(d)):
            dets.append(0)
            continue
        seen = [False] * d
        cycles = 0
        for start in range(d):
            cycles += not seen[start]
            j = start
            while not seen[j]:
                seen[j] = True
                j = rows[j]
        dets.append(-1 if (d - cycles) % 2 and m % 2 else 1)
    return tuple(dets)


def _intertwines(psi: tuple[int, ...], m: int, a_cover: Matrix,
                 a_base: Matrix) -> bool:
    """ψ·a_cover = a_base·ψ for ψ the 0/1 map of cover index ṽ·m + i to
    base index psi[ṽ]·m + i, compared as pair rows.  Row k of ψ·a_cover
    is the sum of the cover rows that ψ sends to k (one row when ψ is a
    bijection, none or several otherwise), and row k of a_base·ψ holds
    each stored entry (k, s) of a_base at every cover index that ψ sends
    to s.  Matrix.from_sums drops the sums that cancel, so equal sides
    have equal rows, and the work and the memory follow the nonzeros.
    Exact for any map, a bijection or not."""
    add = a_cover.domain.add
    cover = a_cover.rows
    from_base: list[list[int]] = [[] for _ in range(a_base.nrows)]
    for vt, rb in enumerate(psi):
        for i in range(m):
            from_base[rb * m + i].append(vt * m + i)

    def gathered(rows: list[int]):
        acc: dict = {}
        for r in rows:
            for j, x in cover[r]:
                acc[j] = add(acc[j], x) if j in acc else x
        return acc.items()

    n = a_cover.ncols
    spread = ([(t, y) for s, y in row for t in from_base[s]]
              for row in a_base.rows)
    return (Matrix.from_sums(a_cover.domain, map(gathered, from_base), n).rows
            == Matrix.from_sums(a_base.domain, spread, n).rows)


def verify_main(cd: CosetData, rho: Representation, x: EdgeWeights,
                operator=twisted_adjacency) -> ConjugacyCertificate:
    """Certify ψ·M^ρ_cover = M^{ρ#}_base·ψ with ψ invertible, on the
    cover that cd describes.

    M is the operator builder, twisted_adjacency or laplacian: the
    cover operator twists by ρ through the cover's own presentation, the
    base operator by the induced representation.  Weights on the cover
    are the base weights lifted."""
    p = cd.covering
    ind = induce(cd, rho)
    conn_cover = connection_from_rep(cd.cover_pres, rho)
    conn_base = connection_from_rep(cd.base_pres, ind)
    a_cover = operator(p.cover, lift_weights(p, x), conn_cover)
    a_base = operator(p.base, x, conn_base)
    psi = build_psi(p, cd)
    dets = psi_vertex_determinants(p, psi, rho.degree)
    return ConjugacyCertificate(psi, a_cover, a_base,
                                _intertwines(psi, rho.degree, a_cover, a_base),
                                dets, ind)


# ---------------------------------------------------------------------------
# the cover charpoly for the trivial twist, through the identity


class CoverSplit:
    """charpoly(M_cover) = charpoly(M_base)·charpoly(M_base^{ρ_c}) for
    the trivial twist, with its witness.

    conjugacy carries ψ, its vertex-block determinants (permutation
    signs) and the check ψ·M_cover = M_base^{ρ#}·ψ, row by row; splits
    says Q is invertible, by R·Q = I for its exhibited inverse R, and
    ρ#(γ)·Q = Q·(1 ⊕ ρ_c(γ)) on every generator γ, on nonzero entries;
    trace_matches says the product's λ^{N−1} coefficient, read off the
    two factors, is −tr(M_cover).  The cover charpoly is the product of
    the base and complement charpolys, certified only when ok; cover
    forms it on each access, so callers that print or compare it take it
    once and the others read what they need off the two factors."""

    def __init__(self, conjugacy: ConjugacyCertificate, splits: bool,
                 trace_matches: bool, base: MultiPoly, complement: MultiPoly):
        self.conjugacy = conjugacy
        self.splits = splits
        self.trace_matches = trace_matches
        self.base = base
        self.complement = complement

    @property
    def ok(self) -> bool:
        return self.conjugacy.ok and self.splits and self.trace_matches

    @property
    def cover(self) -> MultiPoly:
        return self.base * self.complement


def _subleading(p: MultiPoly) -> MultiPoly:
    """The λ^{n−1} coefficient of p, of degree n in λ (zero when n = 0).
    These add over a product of monic factors: B·K, of degree n + m, has
    b_{n−1} + k_{m−1} at λ^{n+m−1}."""
    return p.coefficient_of("lambda", p.degree_in("lambda") - 1)


def _complement_splits(perm: Representation, rho_c: Representation,
                       q: Matrix, fixed: int) -> bool:
    """Q invertible and ρ#(γ)·Q = Q·(1 ⊕ ρ_c(γ)) for every generator γ.

    Q is certified invertible by exhibiting its inverse rather than
    taking its determinant: R = [1ᵀ/d; e_jᵀ − 1ᵀ/d for j ≠ fixed,
    ascending], and R·Q = I is checked exactly as (d·R)·Q = d·I, in
    integers.  d·R is never formed, as it has d² nonzeros: row 0 of
    (d·R)·Q is 1ᵀ·Q, the column sums s of Q, and its row for j is
    d·Q_j − s, so the check reads Q's nonzeros once.  Every product is
    Matrix's, which multiplies only the nonzero entries that meet;
    ρ#(γ) is a permutation matrix, so ρ#(γ)·Q is Q with its rows
    permuted."""
    d = perm.degree
    dom = q.domain
    ones = Matrix.from_rows(dom, [[(i, 1) for i in range(d)]], d)
    s = dict((ones * q).rows[0])   # the column sums 1ᵀ·Q
    neg_s = {k: -y for k, y in s.items()}
    dr_q = [s.items()] + [
        (neg_s | {k: d * x - s.get(k, 0) for k, x in row}).items()
        for j, row in enumerate(q.rows) if j != fixed]
    d_ident = Matrix.from_rows(dom, [[(i, d)] for i in range(d)], d)
    if not Matrix.from_sums(dom, dr_q, d).eq(d_ident):
        return False
    one = Matrix.identity(dom, 1)
    return all((g * q).eq(q * direct_sum_matrices(one, c))
               for g, c in zip(perm.gen_mats, rho_c.gen_mats))


def split_cover_charpoly(cd: CosetData, x: EdgeWeights,
                         operator) -> CoverSplit:
    """The cover charpoly of M (twisted_adjacency or laplacian, trivial
    twist) as charpoly(M_base)·charpoly(M_base^{ρ_c}), witnessed by ψ
    and Q.  ρ_c and the Q check read the sheet permutations of the ρ#
    images that verify_main induced, the ones that twist M_base.  The
    two charpolys are the split's only kernel calls; the largest has
    order (d−1)·n, and at d = 1 the complement has order 0 and
    charpoly 1.  Their product is not formed: the trace tie reads its
    λ^{N−1} coefficient off the factors, b_{n−1} + k_{(d−1)n−1} as both
    are monic."""
    p = cd.covering
    rho = trivial_representation(QQ, cd.cover_pres.rank)
    conj = verify_main(cd, rho, x, operator)
    perm = conj.induced
    fixed = cd.fiber.index(p.cover_base_vertex)
    rho_c = permutation_complement(perm, fixed=fixed)
    q = complement_basis(perm.degree, fixed)
    splits = _complement_splits(perm, rho_c, q, fixed)
    base = charpoly(operator(p.base, x,
                             trivial_connection(QQ, p.base.num_edges)))
    comp = charpoly(operator(p.base, x,
                             connection_from_rep(cd.base_pres, rho_c)))
    m = conj.a_cover
    top = _subleading(base) + _subleading(comp)
    trace_matches = top == _as_poly(top.reg, m.domain, m.domain.neg(m.trace()))
    return CoverSplit(conj, splits, trace_matches, base, comp)


# ---------------------------------------------------------------------------
# divisibility certificates


class DivisibilityCertificate:
    """An exact quotient.  integral says whether its coefficients are
    rational integers; integrality_claimed whether they must be, which
    the paper asserts only for integer or indeterminate weights."""

    def __init__(self, dividend: MultiPoly, divisor: MultiPoly,
                 quotient: MultiPoly, integral: bool,
                 integrality_claimed: bool):
        self.dividend = dividend
        self.divisor = divisor
        self.quotient = quotient
        self.integral = integral
        self.integrality_claimed = integrality_claimed

    @property
    def integrality_ok(self) -> bool:
        return self.integral or not self.integrality_claimed

    def check_product(self) -> bool:
        return self.divisor * self.quotient == self.dividend


def _exact_divide(dividend: MultiPoly, divisor: MultiPoly, what: str,
                  x: EdgeWeights) -> DivisibilityCertificate:
    q = dividend.exact_div(divisor)
    if q is None:
        raise DivisionFailedError(
            f"{what}: division left a remainder\n"
            f"  dividend = {dividend.to_text()}\n"
            f"  divisor  = {divisor.to_text()}")
    return DivisibilityCertificate(dividend, divisor, q, q.is_integral(),
                                   x.is_integral())


class Cor1Result:
    """Untwisted charpoly divisibility along a cover, with the quotient
    identified as the charpoly of the complement representation.

    divisible is the conjugacy part of the witness (ψ·A_cover =
    A_base^{ρ#}·ψ, ψ invertible) with the trace tie of the product to
    A_cover; complement_matches is its Q part.  The quotient is one only
    when the whole witness holds, so quotient_monic and the certificate's
    integral flag each include it."""

    def __init__(self, certificate: DivisibilityCertificate,
                 quotient_monic: bool, split: CoverSplit):
        self.certificate = certificate
        self.quotient_monic = quotient_monic
        self.split = split

    @property
    def divisible(self) -> bool:
        return self.split.conjugacy.ok and self.split.trace_matches

    @property
    def complement_matches(self) -> bool:
        return self.split.splits

    @property
    def ok(self) -> bool:
        return (self.divisible and self.certificate.integrality_ok
                and self.quotient_monic and self.complement_matches)


def cor1_certificate(cd: CosetData, x: EdgeWeights) -> Cor1Result:
    """charpoly(A_base) divides charpoly(A_cover), with quotient
    charpoly(A_base^{ρ_c}).

    Both come from split_cover_charpoly: the cover charpoly is the
    product of the base and complement charpolys, so the quotient is the
    complement charpoly itself and no division or cover-order charpoly
    is taken.  Report lines: "charpoly divisible" carries ψ-conjugacy,
    ψ invertible and the trace tie, "quotient matches complement twist"
    the Q check; "quotient integer coefficients" and "quotient monic"
    hold only with the whole witness.  The cover charpoly, which the
    report prints, is formed here, once."""
    p = cd.covering
    split = split_cover_charpoly(cd, x, twisted_adjacency)
    q = split.complement
    cert = DivisibilityCertificate(split.cover, split.base, q,
                                   split.ok and q.is_integral(),
                                   x.is_integral())
    d = p.degree
    n = p.base.num_vertices
    want = (d - 1) * n
    deg = q.degree_in("lambda")
    if want == 0:
        monic = q == MultiPoly.one(q.reg)
    else:
        top = q.coefficient_of("lambda", deg)
        monic = (deg == want and top.is_constant()
                 and top.constant_value() == 1)
    return Cor1Result(cert, split.ok and monic, split)


# ---------------------------------------------------------------------------
# normal covers: factorization over the deck group's irreducibles


class Cor2Result:
    """The cover charpoly (lhs) against the product of the irreducible
    charpolys (rhs), both exact polynomials."""

    def __init__(self, matches: bool, lhs: MultiPoly, rhs: MultiPoly,
                 factor_degrees: tuple[int, ...]):
        self.matches = matches
        self.lhs = lhs
        self.rhs = rhs
        self.factor_degrees = factor_degrees

    @property
    def ok(self) -> bool:
        return self.matches


def cor2_certificate(cd: CosetData, x: EdgeWeights,
                     irreducibles: list[Representation] | None = None
                     ) -> Cor2Result:
    """charpoly(A_cover) = Π over irreducibles ρ of charpoly(A^ρ)^{deg ρ}.

    Abelian deck groups generate their own character list, over
    Q(ζ_N) for N the group exponent; otherwise the caller supplies the
    irreducibles (as representations of the base loop group, one per
    conjugacy-class worth, Σ deg² = group order).  The cover charpoly is
    split_cover_charpoly's, so the factorization holds only with its
    whole witness; no charpoly of order d·n is taken, and the split's
    product is formed once, to compare."""
    normal, galois = is_normal(cd)
    if not normal:
        raise NotNormalError("factorization requires a normal cover")
    if irreducibles is None:
        if not galois.abelian:
            raise NotAbelianError(
                "supply irreducibles for a non-abelian deck group")
        irreducibles = abelian_characters(galois)
    total = sum(r.degree ** 2 for r in irreducibles)
    if total != galois.order:
        raise IrreducibleCountMismatchError(
            f"sum of squared degrees {total} != group order {galois.order}")
    split = split_cover_charpoly(cd, x, twisted_adjacency)
    prod = None
    for r in irreducibles:
        a = twisted_adjacency(cd.covering.base, x,
                              connection_from_rep(cd.base_pres, r))
        f = charpoly(a) ** r.degree
        prod = f if prod is None else prod * f
    cover = split.cover
    return Cor2Result(split.ok and cover == prod, cover, prod,
                      tuple(r.degree for r in irreducibles))


# ---------------------------------------------------------------------------
# spanning trees and rooted forests through the Laplacian


class TreesResult:
    """Tree and forest quotients, read off the complement charpoly of
    split; each is a quotient only when the whole witness holds, so each
    divisibility claim is split.ok."""

    def __init__(self, st: DivisibilityCertificate,
                 rsf: DivisibilityCertificate,
                 coefficient_checks: tuple[tuple[str, bool], ...],
                 split: CoverSplit):
        self.st = st
        self.rsf = rsf
        self.coefficient_checks = coefficient_checks
        self.split = split

    @property
    def tree_divisible(self) -> bool:
        return self.split.ok

    @property
    def forest_divisible(self) -> bool:
        return self.split.ok

    @property
    def ok(self) -> bool:
        return (self.split.ok and self.st.integrality_ok
                and self.rsf.integrality_ok
                and all(flag for _, flag in self.coefficient_checks))


def spanning_tree_polynomial(P: MultiPoly, n: int) -> MultiPoly:
    """Z_ST from the Laplacian charpoly: (−1)^{n−1}·c₁/n, divided in ℚ[x]."""
    return _tree_sum(P.coefficient_of("lambda", 1), n)


def rooted_forest_polynomial(P: MultiPoly, n: int) -> MultiPoly:
    """Z_RSF = ±P(−1), with the sign making coefficients positive."""
    val = P.eliminate("lambda", -1)
    return val if n % 2 == 0 else -val


def _tree_sum(c1: MultiPoly, n: int) -> MultiPoly:
    return c1 * Fraction((-1) ** (n - 1), n)


def _as_poly(reg: VarRegistry, dom, value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value.lift(reg) if value.reg.names != reg.names else value
    return MultiPoly.const(reg, value)


def _coefficient_checks(tag: str, g: Graph, x: EdgeWeights, cn1: MultiPoly,
                        c0: MultiPoly) -> list[tuple[str, bool]]:
    """The lines on c_{n−1} and c_0 of g's Laplacian charpoly."""
    dom = x.domain
    twice = dom.zero
    for (e, _) in g.unoriented:
        if g.src[e] != g.tgt[e]:
            twice = dom.add(twice, dom.add(x.values[e], x.values[e]))
    expected = _as_poly(cn1.reg, dom, dom.neg(twice))
    return [
        (f"{tag}: c_{{n-1}} = -2*sum(x)", cn1 == expected),
        (f"{tag}: c_0 = 0", c0.is_zero),
    ]


def tree_certificates(cd: CosetData, x: EdgeWeights) -> TreesResult:
    """Divisibility of the spanning-tree and rooted-forest polynomials
    along a connected cover, extracted from Laplacian charpolys.

    The cover charpoly is split_cover_charpoly's product
    P_base·P_comp = charpoly(L_base)·charpoly(L_base^{ρ_c}), and what is
    read off it is read off the two factors, so the product is never
    formed: c₁ = b₁k₀ + b₀k₁ gives Z_ST, P(−1) = P_base(−1)·P_comp(−1)
    gives Z_RSF, and the coefficient checks take c_{N−1} and c₀ the same
    way.  Both quotients come off the complement charpoly, so nothing
    is divided.  Report lines "tree sum divisible" and "forest sum
    divisible" each carry the whole witness (ψ-conjugacy, ψ invertible,
    the Q check, the trace tie), and so do the integrality flags of both
    quotients, as in cor1."""
    p = cd.covering
    xl = lift_weights(p, x)
    split = split_cover_charpoly(cd, x, laplacian)
    P_base = split.base
    P_comp = split.complement
    nb = p.base.num_vertices
    nc = p.cover.num_vertices
    b0, b1 = (P_base.coefficient_of("lambda", k) for k in (0, 1))
    k0, k1 = (P_comp.coefficient_of("lambda", k) for k in (0, 1))
    st_cover = _tree_sum(b1 * k0 + b0 * k1, nc)
    st_base = spanning_tree_polynomial(P_base, nb)
    # a failed witness leaves the cover charpoly uncertified: the report
    # says FAIL on the divisibility lines rather than judge Kirchhoff on it
    if x.is_integral() and split.ok:
        # Kirchhoff: integer or indeterminate weights give a sum in ℤ[x]
        for z in (st_cover, st_base):
            if not z.is_integral():
                raise DivisionFailedError(
                    f"c1/n left non-integer coefficients: {z.to_text()}")
    # the cover charpoly is P_base·P_comp and c_0(P_base) = 0, so with
    # s = (−1)^{(d−1)n} the quotients are s·c_0(P_comp)/d and s·P_comp(−1);
    # Z_RSF(cover) = (−1)^N·P_base(−1)·P_comp(−1) = Z_RSF(base)·s·P_comp(−1)
    d = p.degree
    s = -1 if (d - 1) * nb % 2 else 1
    st_q = k0 * Fraction(s, d)
    rsf_q = P_comp.eliminate("lambda", -1) * s
    rsf_base = rooted_forest_polynomial(P_base, nb)
    st = DivisibilityCertificate(st_cover, st_base, st_q,
                                 split.ok and st_q.is_integral(),
                                 x.is_integral())
    rsf = DivisibilityCertificate(rsf_base * rsf_q, rsf_base, rsf_q,
                                  split.ok and rsf_q.is_integral(),
                                  x.is_integral())
    checks = (_coefficient_checks("base", p.base, x,
                                  _subleading(P_base), b0)
              + _coefficient_checks("cover", p.cover, xl,
                                    _subleading(P_base) + _subleading(P_comp),
                                    b0 * k0))
    return TreesResult(st, rsf, tuple(checks), split)


# ---------------------------------------------------------------------------
# dimers under an odd cyclic symmetry


class DimerResult:
    """det_identity is the split's whole witness; det_cover is
    det(K_cover), the product of the split's two constant terms."""

    def __init__(self, det_identity: bool,
                 matching_cert: DivisibilityCertificate,
                 pf_base_squared_ok: bool, pf_cover_squared_ok: bool,
                 z_base: MultiPoly, z_cover: MultiPoly, det_cover: MultiPoly):
        self.det_identity = det_identity
        self.matching_cert = matching_cert
        self.pf_base_squared_ok = pf_base_squared_ok
        self.pf_cover_squared_ok = pf_cover_squared_ok
        self.z_base = z_base
        self.z_cover = z_cover
        self.det_cover = det_cover

    @property
    def ok(self) -> bool:
        return (self.det_identity and self.matching_cert.integrality_ok
                and self.pf_base_squared_ok and self.pf_cover_squared_ok)


def dimer_certificate(g: Graph, rot: RotationSystem,
                      zd_volt: tuple[tuple[int], ...], d: int,
                      x: EdgeWeights) -> DimerResult:
    """Determinant factorization and dimer divisibility for a cover with
    odd cyclic symmetry over a planar quotient, the ℤ/d cover of one
    voltage (b,) per directed edge.  The cover must be planar
    too under the lifted rotation, or the lifted Kasteleyn orientation
    proves nothing: NotPlanarError otherwise, before any charpoly.

    det(K_cover) and det(K_base) are read off split_cover_charpoly with
    the Kasteleyn weights, so "determinant factorizes" is its whole
    witness and no determinant of order d·n is taken: det(K_cover) is
    c₀(base)·c₀(comp), the product of the factors' constant terms, and
    the charpoly product is never formed.  The Pfaffians are checked
    against both.  A planar base with an odd number of vertices
    has no perfect matching, and neither has its cover of odd degree d:
    OddDimensionError, before the cover is built."""
    if d < 1 or d % 2 == 0:
        raise EvenDegreeError(f"cyclic symmetry order must be odd, got {d}")
    fc = faces(g, rot)
    if fc.euler_characteristic != 2:
        raise NotPlanarQuotientError(
            f"quotient embedding has Euler characteristic "
            f"{fc.euler_characteristic}")
    if g.num_vertices % 2:
        raise OddDimensionError(
            f"the base has {g.num_vertices} vertices: an odd vertex count "
            f"has no perfect matching")
    p = edge_voltage_cover(g, zd_volt, (d,))
    cd = coset_data(p)
    # the rotation lifted to the cover: at v·d+s, the edges e·d+s
    lifted = RotationSystem(tuple(tuple(e * d + s for e in rot.orders[v])
                                  for v in range(g.num_vertices)
                                  for s in range(d)))
    chi = faces(p.cover, lifted).euler_characteristic
    if chi != 2:
        raise NotPlanarError(
            f"cover embedding has Euler characteristic {chi}")
    # the Pfaffians refuse past their cap; refuse here, before the split
    check_pfaffian_order(p.cover.num_vertices)
    orient = kasteleyn_orientation(g, rot)
    kw = kasteleyn_weights(g, orient, x)
    split = split_cover_charpoly(cd, kw, twisted_adjacency)
    # K is skew-symmetric, so det K = det(−K) = c_0 of its charpoly
    det_base = split.base.coefficient_of("lambda", 0)
    det_cover = det_base * split.complement.coefficient_of("lambda", 0)

    dom = x.domain
    pd = dom if isinstance(dom, PolyDomain) else PolyDomain(VarRegistry(()), dom)
    z_base = pd.coerce(matching_sum(g, dom, unoriented_values(g, x)))
    z_cover = pd.coerce(matching_sum(p.cover, dom,
                                     unoriented_values(p.cover,
                                                       lift_weights(p, x))))
    cert = _exact_divide(z_cover, z_base, "dimer partition function", x)

    a_base = twisted_adjacency(g, kw, trivial_connection(QQ, g.num_edges))
    pf_b = pd.coerce(pfaffian(a_base))
    pf_c = pd.coerce(pfaffian(split.conjugacy.a_cover))
    # a² = b² exactly when a = ±b, in an integral domain
    pf_base_ok = pf_b * pf_b == det_base and pf_b in (z_base, -z_base)
    pf_cover_ok = pf_c * pf_c == det_cover and pf_c in (z_cover, -z_cover)
    return DimerResult(split.ok, cert, pf_base_ok, pf_cover_ok, z_base,
                       z_cover, det_cover)


# ---------------------------------------------------------------------------
# the torus product identity


class KosResult:
    def __init__(self, lhs: object, rhs: object, factors: tuple, ok: bool):
        self.lhs = lhs
        self.rhs = rhs
        self.factors = factors
        self.ok = ok


def kos_certificate(g: Graph, z2_volt: tuple[tuple[int, int], ...],
                    x: EdgeWeights, m: int, n: int) -> KosResult:
    """det of the m×n torus cover's adjacency against the product of the
    character-twisted base determinants over all pairs (z, w) of m-th
    and n-th roots of unity, each exact in Q(ζ_lcm(m, n)).  The field
    comes first, so that one past its order budget stops the run before
    the cover is built, then the cover determinant, so that its work
    charge refuses a large torus before the m·n factors are formed."""
    if isinstance(x.domain, PolyDomain):
        raise DomainMismatchError("the torus identity is numeric; "
                                  "use rational or unit weights")
    big = lcm(m, n)
    dom = cyclotomic_field(big)
    p = edge_voltage_cover(g, z2_volt, (m, n))
    lhs = det(twisted_adjacency(p.cover, lift_weights(p, x),
                                trivial_connection(QQ, p.cover.num_edges)))
    factors = []
    rhs = 1
    for j in range(m):
        for k in range(n):
            # z = ζ^(j·L/m) and w = ζ^(k·L/n) for ζ = ζ_L, L = lcm(m, n)
            mats = tuple(Matrix(dom, [[dom.coerce(root_of_unity(
                big, a * j * (big // m) + b * k * (big // n)))]])
                for a, b in z2_volt)
            f = det(twisted_adjacency(g, x, Connection(dom, 1, mats)))
            factors.append(f)
            rhs = dom.mul(rhs, f)
    return KosResult(lhs, rhs, tuple(factors), lhs == rhs)
