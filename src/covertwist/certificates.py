"""Certificates tying the operator algebra to the covering machinery.

verify_main checks the paper's identity ψ·M^ρ_cover = M^{ρ#}_base·ψ, ψ
invertible, with an explicitly constructed ψ, for M the twisted
adjacency operator or the twisted Laplacian.  All of it is read off the
d sheets of the cover, the lifts of the base tree: each block of ρ# is
one edge lift, ψ is one m×m block per cover vertex, and both sides of
the identity are formed from the operators' nonzero entries only.

For the trivial twist ρ, ρ# is the permutation representation on the
fiber, which splits as 1 ⊕ ρ_c, so

    charpoly(M_cover) = charpoly(M_base) · charpoly(M_base^{ρ_c}),

and split_cover_charpoly reads the cover charpoly off the identity
instead of expanding a determinant of order d·n.  Its witness has three
parts, each checked exactly:

* ψ and its vertex-block determinants (ψ invertible);
* ψ·M_cover = M_base^{ρ#}·ψ;
* Q = [1 | e_j − e_fixed] with det Q ≠ 0 and ρ#(γ)·Q = Q·(1 ⊕ ρ_c(γ))
  on every generator γ.

A fourth, cheap check ties the product back to the cover operator
itself: its λ^{N−1} coefficient must be −tr(M_cover), N = d·n.

cor1 (M = A) and trees (M = L) take that route at every degree, and so
do cor2 (M = A; full factorization over the irreducibles of a normal
cover's deck group) and dimer (M = K, the Kasteleyn-weighted adjacency;
determinant factorization under an odd cyclic symmetry, det K read off
the charpoly's constant coefficient): each takes its cover-side
quantity from the split, with its whole witness.  kos, the torus product
identity, still takes the cover determinant directly, under an order
budget, and compares it with the product of the character-twisted
base determinants over Q(ζ_lcm(m, n)).  Exact arithmetic throughout:
roots of unity are cyclotomic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
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
    BudgetExceededError,
    CoverNotConnectedError,
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
from .graphs import Graph, RotationSystem, faces, is_connected
from .homotopy import spanning_tree
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
from .oracles import (
    check_matching_budget,
    matching_sum,
)
from .poly import MultiPoly, PolyDomain, VarRegistry
from .representation import (
    Connection,
    Representation,
    InducedRep,
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


PsiBlocks = tuple[tuple[int, Matrix], ...]


@dataclass(frozen=True)
class ConjugacyCertificate:
    """ψ together with the two operators it is claimed to intertwine
    (a_cover and a_base, twisted adjacency or twisted Laplacian) and the
    induced representation ρ# that twists the base one."""

    psi: PsiBlocks
    a_cover: Matrix
    a_base: Matrix
    commutes: bool
    vertex_dets: tuple
    induced: InducedRep

    @property
    def invertible(self) -> bool:
        dom = self.induced.rep.domain
        return all(not dom.is_zero(d) for d in self.vertex_dets)

    @property
    def ok(self) -> bool:
        return self.commutes and self.invertible


def build_psi(p: CoveringMap, cd: CosetData, rho: Representation,
              irho: InducedRep) -> PsiBlocks:
    """ψ: f ↦ (v ↦ Σ_{ṽ over v} ρ#(g_ṽ)(f(ṽ) in the marked sheet's block)),
    as the one nonzero (row block, m×m block) of each cover vertex's
    block column: the marked sheet's block column of ρ#(g_ṽ), read off
    the generators' blocks once per sheet (g_ṽ is its sheet's word) and
    put among the row blocks p(ṽ)·d + j of p(ṽ)."""
    if not is_connected(p.cover):
        raise CoverNotConnectedError("psi needs a connected cover")
    d = p.degree
    columns = [irho.marked_block_column(w) for w in cd.transversal]
    return tuple((p.p_vertex[vt] * d + columns[c][0], columns[c][1])
                 for vt, c in enumerate(cd.sheet))


def psi_vertex_determinants(p: CoveringMap, psi: PsiBlocks, m: int) -> tuple:
    """Determinant of each base vertex's square block of ψ, whose block
    columns are the vertex's lifts.  When their row blocks permute the
    vertex's d row blocks by σ, it is sign(σ)^m times the product of the
    m×m block determinants (at m = 1, the blocks' entries); otherwise
    two columns share a row block, or one leaves the vertex, and it is 0."""
    d = p.degree
    blocks = {id(b): b for _, b in psi}   # the sheets share their blocks
    block_det = {k: b.data[0][0] if m == 1 else det(b)
                 for k, b in blocks.items()}
    dets = []
    for v, lifts in enumerate(p.vertex_fibers):
        rows = [psi[vt][0] - v * d for vt in lifts]
        dom = psi[lifts[0]][1].domain
        if sorted(rows) != list(range(d)):
            dets.append(dom.zero)
            continue
        val = dom.one
        for vt in lifts:
            val = dom.mul(val, block_det[id(psi[vt][1])])
        odd = sum(a > b for i, a in enumerate(rows) for b in rows[i + 1:]) % 2
        dets.append(dom.neg(val) if odd and m % 2 else val)
    return tuple(dets)


def _intertwines(psi: PsiBlocks, m: int, a_cover: Matrix,
                 a_base: Matrix) -> bool:
    """ψ·a_cover = a_base·ψ: both products are sparse maps formed from the
    operators' nonzero entries, compared on the union of their nonzero
    positions, so that every entry is compared."""
    dom = a_cover.domain
    mul, add, is_zero, zero = dom.mul, dom.add, dom.is_zero, dom.zero
    by_col: dict[int, list] = {}   # cover index -> ψ's (row, value) in it
    by_row: dict[int, list] = {}   # base index -> ψ's (column, value) in it
    for vt, (rb, blk) in enumerate(psi):
        for i, row in enumerate(blk.data):
            for j, val in enumerate(row):
                if not blk.domain.is_zero(val):
                    val = dom.coerce(val)
                    by_col.setdefault(vt * m + j, []).append((rb * m + i, val))
                    by_row.setdefault(rb * m + i, []).append((vt * m + j, val))

    def nonzeros(a: Matrix):
        for r, arow in enumerate(a.data):
            # a falsy entry is 0 in every domain; is_zero decides the rest
            for c in compress(range(len(arow)), arow):
                if not is_zero(arow[c]):
                    yield r, c, arow[c]

    def put(out: dict, key, term) -> None:
        out[key] = add(out[key], term) if key in out else term

    lhs: dict = {}
    rhs: dict = {}
    for r, c, val in nonzeros(a_cover):
        for k, pv in by_col.get(r, ()):
            put(lhs, (k, c), mul(pv, val))
    for r, c, val in nonzeros(a_base):
        for k, pv in by_row.get(c, ()):
            put(rhs, (r, k), mul(val, pv))
    return all(dom.eq(lhs.get(key, zero), rhs.get(key, zero))
               for key in lhs.keys() | rhs.keys())


def verify_main(p: CoveringMap, cd: CosetData, rho: Representation,
                x: EdgeWeights,
                operator=twisted_adjacency) -> ConjugacyCertificate:
    """Certify ψ·M^ρ_cover = M^{ρ#}_base·ψ with ψ invertible.

    M is the operator builder, twisted_adjacency or laplacian: the
    cover operator twists by ρ through the cover's own presentation, the
    base operator by the induced representation.  Weights on the cover
    are the base weights lifted."""
    ind = induce(cd, rho)
    conn_cover = connection_from_rep(cd.cover_pres, rho)
    conn_base = connection_from_rep(cd.base_pres, ind.rep)
    a_cover = operator(p.cover, lift_weights(p, x), conn_cover)
    a_base = operator(p.base, x, conn_base)
    psi = build_psi(p, cd, rho, ind)
    dets = psi_vertex_determinants(p, psi, rho.degree)
    return ConjugacyCertificate(psi, a_cover, a_base,
                                _intertwines(psi, rho.degree, a_cover, a_base),
                                dets, ind)


# ---------------------------------------------------------------------------
# the cover charpoly for the trivial twist, through the identity


@dataclass(frozen=True)
class CoverSplit:
    """charpoly(M_cover) = charpoly(M_base)·charpoly(M_base^{ρ_c}) for
    the trivial twist, with its witness.

    conjugacy carries ψ, its vertex-block determinants and the check
    ψ·M_cover = M_base^{ρ#}·ψ; splits says det Q ≠ 0 and
    ρ#(γ)·Q = Q·(1 ⊕ ρ_c(γ)) on every generator γ; trace_matches says
    the product's λ^{N−1} coefficient is −tr(M_cover).  cover is the
    product of the base and complement charpolys, certified only when
    ok."""

    conjugacy: ConjugacyCertificate
    splits: bool
    trace_matches: bool
    base: MultiPoly
    complement: MultiPoly
    cover: MultiPoly

    @property
    def ok(self) -> bool:
        return self.conjugacy.ok and self.splits and self.trace_matches


def split_cover_charpoly(p: CoveringMap, cd: CosetData, x: EdgeWeights,
                         operator) -> CoverSplit:
    """The cover charpoly of M (twisted_adjacency or laplacian, trivial
    twist) as charpoly(M_base)·charpoly(M_base^{ρ_c}), witnessed by ψ
    and Q.  The largest charpoly taken has order (d−1)·n; at d = 1 the
    complement has order 0 and charpoly 1."""
    rho = trivial_representation(QQ, cd.cover_pres.rank)
    conj = verify_main(p, cd, rho, x, operator)
    perm = conj.induced.rep
    fixed = cd.fiber.index(p.cover_base_vertex)
    rho_c = permutation_complement(perm, fixed=fixed)
    q = complement_basis(perm.degree, fixed)
    one = Matrix.identity(QQ, 1)
    splits = (not QQ.is_zero(det(q))
              and all((g * q).eq(q * direct_sum_matrices(one, c))
                      for g, c in zip(perm.gen_mats, rho_c.gen_mats)))
    base = charpoly(operator(p.base, x,
                             trivial_connection(QQ, p.base.num_edges)))
    comp = charpoly(operator(p.base, x,
                             connection_from_rep(cd.base_pres, rho_c)))
    cover = base * comp
    m = conj.a_cover
    trace = m.domain.zero
    for i in range(m.nrows):
        trace = m.domain.add(trace, m.data[i][i])
    top = cover.coefficient_of("lambda", m.nrows - 1)
    trace_matches = top == _as_poly(top.reg, m.domain, m.domain.neg(trace))
    return CoverSplit(conj, splits, trace_matches, base, comp, cover)


# ---------------------------------------------------------------------------
# divisibility certificates


@dataclass(frozen=True)
class DivisibilityCertificate:
    """An exact quotient.  integral says whether its coefficients are
    rational integers; integrality_claimed whether they must be, which
    the paper asserts only for integer or indeterminate weights."""

    dividend: MultiPoly
    divisor: MultiPoly
    quotient: MultiPoly
    integral: bool
    integrality_claimed: bool

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


@dataclass(frozen=True)
class Cor1Result:
    """Untwisted charpoly divisibility along a cover, with the quotient
    identified as the charpoly of the complement representation.

    divisible is the conjugacy part of the witness (ψ·A_cover =
    A_base^{ρ#}·ψ, ψ invertible) with the trace tie of the product to
    A_cover; complement_matches is its Q part.  The quotient is one only
    when the whole witness holds, so quotient_monic and the certificate's
    integral flag each include it."""

    certificate: DivisibilityCertificate
    quotient_monic: bool
    split: CoverSplit

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


def cor1_certificate(p: CoveringMap, x: EdgeWeights,
                     cd: CosetData | None = None) -> Cor1Result:
    """charpoly(A_base) divides charpoly(A_cover), with quotient
    charpoly(A_base^{ρ_c}).

    Both come from split_cover_charpoly: the cover charpoly is the
    product of the base and complement charpolys, so the quotient is the
    complement charpoly itself and no division or cover-order charpoly
    is taken.  Report lines: "charpoly divisible" carries ψ-conjugacy,
    ψ invertible and the trace tie, "quotient matches complement twist"
    the Q check; "quotient integer coefficients" and "quotient monic"
    hold only with the whole witness."""
    if not is_connected(p.cover):
        raise CoverNotConnectedError("divisibility needs a connected cover")
    if cd is None:
        cd = coset_data(p, spanning_tree(p.base, p.base_vertex))
    split = split_cover_charpoly(p, cd, x, twisted_adjacency)
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


@dataclass(frozen=True)
class Cor2Result:
    """The cover charpoly (lhs) against the product of the irreducible
    charpolys (rhs), both exact polynomials."""

    matches: bool
    lhs: MultiPoly
    rhs: MultiPoly
    factor_degrees: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.matches


def cor2_certificate(p: CoveringMap, pres, x: EdgeWeights,
                     irreducibles: list[Representation] | None = None
                     ) -> Cor2Result:
    """charpoly(A_cover) = Π over irreducibles ρ of charpoly(A^ρ)^{deg ρ}.

    Abelian deck groups generate their own character list, over
    Q(ζ_N) for N the group exponent; otherwise the caller supplies the
    irreducibles (as representations of the base loop group, one per
    conjugacy-class worth, Σ deg² = group order).  The cover charpoly is
    split_cover_charpoly's, so the factorization holds only with its
    whole witness; no charpoly of order d·n is taken."""
    normal, galois = is_normal(p, pres)
    if not normal:
        raise NotNormalError("factorization requires a normal cover")
    if irreducibles is None:
        if not galois.is_abelian():
            raise NotAbelianError(
                "supply irreducibles for a non-abelian deck group")
        irreducibles = abelian_characters(galois)
    total = sum(r.degree ** 2 for r in irreducibles)
    if total != galois.order:
        raise IrreducibleCountMismatchError(
            f"sum of squared degrees {total} != group order {galois.order}")
    split = split_cover_charpoly(
        p, coset_data(p, spanning_tree(p.base, p.base_vertex)), x,
        twisted_adjacency)
    prod = None
    for r in irreducibles:
        a = twisted_adjacency(p.base, x, connection_from_rep(pres, r))
        f = charpoly(a) ** r.degree
        prod = f if prod is None else prod * f
    return Cor2Result(split.ok and split.cover == prod, split.cover, prod,
                      tuple(r.degree for r in irreducibles))


# ---------------------------------------------------------------------------
# spanning trees and rooted forests through the Laplacian


@dataclass(frozen=True)
class TreesResult:
    """Tree and forest quotients, read off the complement charpoly of
    split; each is a quotient only when the whole witness holds, so each
    divisibility claim is split.ok."""

    st: DivisibilityCertificate
    rsf: DivisibilityCertificate
    base_charpoly: MultiPoly
    cover_charpoly: MultiPoly
    coefficient_checks: tuple[tuple[str, bool], ...]
    split: CoverSplit

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
    return P.coefficient_of("lambda", 1) * Fraction((-1) ** (n - 1), n)


def rooted_forest_polynomial(P: MultiPoly, n: int) -> MultiPoly:
    """Z_RSF = ±P(−1), with the sign making coefficients positive."""
    val = P.eliminate("lambda", -1)
    return val if n % 2 == 0 else -val


def _as_poly(reg: VarRegistry, dom, value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value.lift(reg) if value.reg.names != reg.names else value
    return MultiPoly.const(reg, value)


def _coefficient_checks(tag: str, g: Graph, x: EdgeWeights,
                        P: MultiPoly) -> list[tuple[str, bool]]:
    n = g.num_vertices
    dom = x.domain
    twice = dom.zero
    for (e, _) in g.unoriented:
        if g.src[e] != g.tgt[e]:
            twice = dom.add(twice, dom.add(x.values[e], x.values[e]))
    cn1 = P.coefficient_of("lambda", n - 1)
    expected = _as_poly(cn1.reg, dom, dom.neg(twice))
    return [
        (f"{tag}: c_{{n-1}} = -2*sum(x)", cn1 == expected),
        (f"{tag}: c_0 = 0", P.coefficient_of("lambda", 0).is_zero),
    ]


def tree_certificates(p: CoveringMap, x: EdgeWeights,
                      cd: CosetData | None = None) -> TreesResult:
    """Divisibility of the spanning-tree and rooted-forest polynomials
    along a connected cover, extracted from Laplacian charpolys.

    The cover charpoly is split_cover_charpoly's product
    charpoly(L_base)·charpoly(L_base^{ρ_c}); Z_ST, Z_RSF and the
    coefficient checks are read off it, and both quotients off the
    complement charpoly, so nothing is divided.  Report lines "tree sum
    divisible" and "forest sum divisible" each carry the whole witness
    (ψ-conjugacy, ψ invertible, the Q check, the trace tie), and so do
    the integrality flags of both quotients, as in cor1."""
    if not is_connected(p.cover):
        raise CoverNotConnectedError("tree counts need a connected cover")
    if not is_connected(p.base):
        raise CoverNotConnectedError("tree counts need a connected base")
    if cd is None:
        cd = coset_data(p, spanning_tree(p.base, p.base_vertex))
    xl = lift_weights(p, x)
    split = split_cover_charpoly(p, cd, x, laplacian)
    P_base = split.base
    P_cover = split.cover
    nb = p.base.num_vertices
    nc = p.cover.num_vertices
    st_cover = spanning_tree_polynomial(P_cover, nc)
    st_base = spanning_tree_polynomial(P_base, nb)
    # a failed witness leaves P_cover uncertified: the report says FAIL
    # on the divisibility lines rather than judge Kirchhoff on it
    if x.is_integral() and split.ok:
        # Kirchhoff: integer or indeterminate weights give a sum in ℤ[x]
        for z in (st_cover, st_base):
            if not z.is_integral():
                raise DivisionFailedError(
                    f"c1/n left non-integer coefficients: {z.to_text()}")
    # P_cover = P_base·P_comp and c_0(P_base) = 0, so with
    # s = (−1)^{(d−1)n} the quotients are s·c_0(P_comp)/d and s·P_comp(−1)
    P_comp = split.complement
    d = p.degree
    s = -1 if (d - 1) * nb % 2 else 1
    st_q = P_comp.coefficient_of("lambda", 0) * Fraction(s, d)
    rsf_q = P_comp.eliminate("lambda", -1) * s
    st = DivisibilityCertificate(st_cover, st_base, st_q,
                                 split.ok and st_q.is_integral(),
                                 x.is_integral())
    rsf = DivisibilityCertificate(rooted_forest_polynomial(P_cover, nc),
                                  rooted_forest_polynomial(P_base, nb), rsf_q,
                                  split.ok and rsf_q.is_integral(),
                                  x.is_integral())
    checks = (_coefficient_checks("base", p.base, x, P_base)
              + _coefficient_checks("cover", p.cover, xl, P_cover))
    return TreesResult(st, rsf, P_base, P_cover, tuple(checks), split)


# ---------------------------------------------------------------------------
# dimers under an odd cyclic symmetry


@dataclass(frozen=True)
class DimerResult:
    """det_identity is the split's whole witness; det_cover is
    det(K_cover), read off the split's cover charpoly."""

    det_identity: bool
    matching_cert: DivisibilityCertificate
    pf_base_squared_ok: bool
    pf_cover_squared_ok: bool
    z_base: MultiPoly
    z_cover: MultiPoly
    det_cover: MultiPoly

    @property
    def ok(self) -> bool:
        return (self.det_identity and self.matching_cert.integrality_ok
                and self.pf_base_squared_ok and self.pf_cover_squared_ok)


def dimer_certificate(g: Graph, rot: RotationSystem,
                      zd_volt: tuple[int, ...], d: int,
                      x: EdgeWeights) -> DimerResult:
    """Determinant factorization and dimer divisibility for a cover with
    odd cyclic symmetry over a planar quotient.  The cover must be planar
    too under the lifted rotation, or the lifted Kasteleyn orientation
    proves nothing: NotPlanarError otherwise, before any charpoly.

    det(K_cover) and det(K_base) are read off split_cover_charpoly with
    the Kasteleyn weights, so "determinant factorizes" is its whole
    witness and no determinant of order d·n is taken; the Pfaffians are
    checked against both.  A planar base with an odd number of vertices
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
    p = edge_voltage_cover(g, tuple((b,) for b in zd_volt), (d,))
    if not is_connected(p.cover):
        raise CoverNotConnectedError("dimer cover is disconnected")
    # the rotation lifted to the cover: at v·d+s, the edges e·d+s
    lifted = RotationSystem(tuple(tuple(e * d + s for e in rot.orders[v])
                                  for v in range(g.num_vertices)
                                  for s in range(d)))
    chi = faces(p.cover, lifted).euler_characteristic
    if chi != 2:
        raise NotPlanarError(
            f"cover embedding has Euler characteristic {chi}")
    # the matching oracle and the Pfaffians refuse past their budgets;
    # refuse here, before the split, in the order they would
    for graph in (g, p.cover):
        check_matching_budget(graph.num_vertices)
    for graph in (g, p.cover):
        check_pfaffian_order(graph.num_vertices)
    orient = kasteleyn_orientation(g, rot)
    kw = kasteleyn_weights(g, orient, x)
    split = split_cover_charpoly(
        p, coset_data(p, spanning_tree(p.base, p.base_vertex)), kw,
        twisted_adjacency)
    # K is skew-symmetric, so det K = det(−K) = c_0 of its charpoly
    det_cover = split.cover.coefficient_of("lambda", 0)
    det_base = split.base.coefficient_of("lambda", 0)

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
    pf_base_ok = (pf_b * pf_b == det_base
                  and pf_b * pf_b == z_base * z_base)
    pf_cover_ok = (pf_c * pf_c == det_cover
                   and pf_c * pf_c == z_cover * z_cover)
    return DimerResult(split.ok, cert, pf_base_ok, pf_cover_ok, z_base,
                       z_cover, det_cover)


# ---------------------------------------------------------------------------
# the torus product identity


# The cover determinant has order m·n·|V|; past this budget kos refuses
# before building the cover.
KOS_ORDER_BUDGET = 400


@dataclass(frozen=True)
class KosResult:
    lhs: object
    rhs: object
    factors: tuple
    ok: bool


def kos_certificate(g: Graph, z2_volt: tuple[tuple[int, int], ...],
                    x: EdgeWeights, m: int, n: int) -> KosResult:
    """det of the m×n torus cover's adjacency against the product of the
    character-twisted base determinants over all pairs (z, w) of m-th
    and n-th roots of unity, each exact in Q(ζ_lcm(m, n)).  The product
    comes first, so that a field past its order budget stops the run
    before the cover determinant."""
    if isinstance(x.domain, PolyDomain):
        raise DomainMismatchError("the torus identity is numeric; "
                                  "use rational or unit weights")
    order = m * n * g.num_vertices
    if order > KOS_ORDER_BUDGET:
        raise BudgetExceededError(
            f"torus cover determinant of order {order} exceeds the "
            f"budget of {KOS_ORDER_BUDGET}")
    big = lcm(m, n)
    dom = cyclotomic_field(big)
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
    p = edge_voltage_cover(g, z2_volt, (m, n))
    lhs = det(twisted_adjacency(p.cover, lift_weights(p, x),
                                trivial_connection(QQ, p.cover.num_edges)))
    return KosResult(lhs, rhs, tuple(factors), lhs == rhs)
