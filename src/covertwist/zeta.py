"""Edge zeta machinery: prime cycles, twisted L-series determinants,
the log-derivative identity, and the four formal axioms (identity,
additivity, inflation, induction) checked on abelian deck groups.

Cycles run on directed edges with the non-backtracking rule enforced
cyclically.  Primes are primitive cycles up to rotation only; a cycle
and its reversal count separately unless they coincide.

The series functions take plain edge weights and a series variable u.
The operator B is built over the weights' domain (unified with the
representation's), and the series determinant is the reversed
characteristic polynomial det(I - u*B) = u^n * chi_B(1/u): scalar
weights with a QQ or QQ(i) representation take the multi-modular
charpoly, polynomial weights or a representation over any other
Q(zeta_N) the division-free Berkowitz charpoly over their own ring.
The log-derivative check likewise takes traces of powers of B over the
weights' domain and attaches u^k only when it sums the two sides.  For
series length L it forms only B, ..., B^h with h = ceil(L/2) and reads
tr(B^k) for h < k <= L as the sum of (B^h)_ij * (B^(k-h))_ji over the
nonzero entries of B^h, so a length-8 check takes 3 matrix products
instead of 7.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import takewhile

from .covering import (
    CosetData,
    coset_data,
    is_normal,
    quotient_by_subgroup,
)
from .errors import (
    BudgetExceededError,
    NotAbelianError,
    NotNormalError,
    RegistryMismatchError,
    charge,
)
from .graphs import Graph, Path
from .homotopy import Pi1Presentation
from .matrix import Matrix, charpoly
from .operators import (
    EdgeWeights,
    lift_weights,
    line_digraph,
    pullback_connection,
    twisted_adjacency,
)
from .poly import MAX_EXP, MultiPoly, PolyDomain, VarRegistry
from .representation import (
    Representation,
    abelian_character_table,
    abelian_characters,
    connection_from_rep,
    direct_sum,
    finite_group_induction,
    monodromy,
    representation,
    table_characters,
    trivial_connection,
    trivial_representation,
)

# ---------------------------------------------------------------------------
# prime cycles


class PrimeCycle:
    """Primitive cyclically non-backtracking closed cycle, stored as the
    lex-least rotation of its directed edge sequence."""

    def __init__(self, edges: tuple[int, ...]):
        self.edges = edges

    @property
    def length(self) -> int:
        return len(self.edges)


def _canonical_rotation(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """The lex-least rotation of a cycle whose first edge is its least,
    so only the rotations that start at that edge are tried."""
    return min(cyc[r:] + cyc[:r] for r in range(len(cyc))
               if cyc[r] == cyc[0])


def _is_primitive(cyc: tuple[int, ...]) -> bool:
    k = len(cyc)
    for d in range(1, k):
        if k % d == 0 and cyc == cyc[d:] + cyc[:d]:
            return False
    return True


def _walk_counts(g: Graph, max_length: int):
    """The numbers of non-backtracking walks of each length 1 to
    max_length: those ending in e are those one shorter ending where e
    starts, less those ending in its reverse."""
    src, tgt, inv = g.src, g.tgt, g.inv
    walks = [1] * g.num_edges
    for _ in range(max_length):
        yield sum(walks)
        into = [0] * g.num_vertices
        for e, c in enumerate(walks):
            into[tgt[e]] += c
        walks = [into[src[e]] - walks[inv[e]] for e in range(g.num_edges)]


def prime_cycles(g: Graph, max_length: int) -> list[PrimeCycle]:
    """All primes of length up to max_length, each once (lex-least
    rotation), in sorted order.  Before the search, the work meter is
    charged the entries the walk count touches, 3 per edge and 1 per
    vertex at each length, and then each length's non-backtracking walks
    (more than the paths searched).  The search runs on an explicit
    stack, one edge iterator per edge of the path, from each edge through
    edges no lower; a closed path of length k is charged k units per
    rotation its canonical form tries before it is formed."""
    if max_length < 1:
        return []
    charge(max_length * (3 * g.num_edges + g.num_vertices), "prime_cycles")
    for walks in takewhile(bool, _walk_counts(g, max_length)):
        charge(walks, "prime_cycles")   # none of a length: none longer
    src, tgt, inv = g.src, g.tgt, g.inv
    out_edges = g.out_edges
    found: set[tuple[int, ...]] = set()
    for first in range(g.num_edges):
        path: list[int] = []
        nexts = [iter((first,))]   # the choices for path[i] at nexts[i]
        while nexts:
            e = next(nexts[-1], None)
            if e is None:
                nexts.pop()
                if path:
                    path.pop()
                continue
            path.append(e)
            if tgt[e] == src[first] and inv[first] != e:
                charge(len(path) * path.count(first), "prime_cycles")
                found.add(_canonical_rotation(tuple(path)))
            if len(path) == max_length:
                path.pop()
            else:
                nexts.append(iter([e2 for e2 in out_edges[tgt[e]]
                                   if e2 >= first and e2 != inv[e]]))
    return [PrimeCycle(c) for c in sorted(found) if _is_primitive(c)]


def cycle_weight(x: EdgeWeights, cyc: PrimeCycle):
    dom = x.domain
    out = dom.one
    for e in cyc.edges:
        out = dom.mul(out, x.values[e])
    return out


# ---------------------------------------------------------------------------
# L-series through the edge operator


def _series_domain(dom, series_var: str) -> PolyDomain:
    """dom with the series variable adjoined, refused when the variable
    already names a weight."""
    if isinstance(dom, PolyDomain):
        if series_var in dom.reg.names:
            raise RegistryMismatchError(
                f"series variable {series_var!r} collides with a weight")
        return PolyDomain(dom.reg.with_var(series_var), dom.coeff)
    return PolyDomain(VarRegistry((series_var,)), dom)


def _det_one_minus(b: Matrix) -> MultiPoly:
    """det(I - u*b) as the reversed characteristic polynomial
    u^n * det(I/u - b), so it takes charpoly's route for b's domain."""
    reg = _series_domain(b.domain, "u").reg
    cp = charpoly(b, "u")
    at = reg.index("u")
    n = b.nrows
    terms = {}
    for key, c in cp.terms.items():
        exps = list(reg.unpack(key))
        exps[at] = n - exps[at]
        terms[reg.pack(exps)] = c
    return MultiPoly(reg, terms)


def l_series_inverse(g: Graph, x: EdgeWeights, rho: Representation,
                     pres: Pi1Presentation):
    """det(I - u*B) for the twisted non-backtracking edge operator B with
    weights x; the reciprocal of the weighted L-series, as a polynomial
    in the series variable u over the weights' ring.

    det(I - u*B) = u^n * chi_B(1/u) for the characteristic polynomial
    chi_B of the n x n operator, so the series determinant is chi_B with
    every exponent e of u flipped to n - e.  QQ and QQ(i) operators (scalar
    weights with a rational or Gaussian representation) thereby take the
    multi-modular charpoly; polynomial weights take the division-free
    Berkowitz charpoly over the weight ring, with u adjoined at the end."""
    conn = connection_from_rep(pres, rho)
    ld = line_digraph(g, x)
    b = twisted_adjacency(ld.digraph, ld.weights, pullback_connection(ld, conn))
    return _det_one_minus(b)


def untwisted_l_series_inverse(g: Graph, x: EdgeWeights):
    """det(I - u*B) for the plain non-backtracking edge operator B; see
    l_series_inverse."""
    ld = line_digraph(g, x)
    b = twisted_adjacency(ld.digraph, ld.weights,
                          trivial_connection(QQ_of(x), ld.digraph.num_edges))
    return _det_one_minus(b)


# ---------------------------------------------------------------------------
# the log-derivative identity, coefficientwise


class AmitsurResult:
    def __init__(self, lhs: MultiPoly, rhs: MultiPoly, matches: bool,
                 max_length: int, prime_count: int):
        self.lhs = lhs
        self.rhs = rhs
        self.matches = matches
        self.max_length = max_length
        self.prime_count = prime_count

    @property
    def ok(self) -> bool:
        return self.matches


def amitsur_check(g: Graph, x: EdgeWeights, rho: Representation,
                  pres: Pi1Presentation, max_length: int = 8,
                  series_var: str = "u") -> AmitsurResult:
    """Σ_k tr(B^k)·u^k/k against Σ over primes γ and powers j of
    w(γ)^j·tr(ρ(γ)^j)·u^(j·|γ|)/j, as exact polynomials in the series
    variable u.

    Traces and cycle weights are taken over the weights' own domain; each
    term is multiplied by its power of u only when the two sides are
    summed, so degrees up to max_length are complete without truncation
    bookkeeping.  Only the powers B, ..., B^h with h = ceil(max_length/2)
    are formed; tr(B^k) for h < k <= max_length is read off them as
    tr(B^h * B^(k-h)).  The primes come first, so that their charge to
    the work meter refuses a long series before any power is formed."""
    if max_length < 1:
        raise ValueError("series length must be positive")
    if max_length > MAX_EXP:   # no term holds u^max_length
        raise BudgetExceededError(f"series length past {MAX_EXP}")
    primes = prime_cycles(g, max_length)
    conn = connection_from_rep(pres, rho)
    ld = line_digraph(g, x)
    b = twisted_adjacency(ld.digraph, ld.weights, pullback_connection(ld, conn))
    pd = _series_domain(b.domain, series_var)
    u = MultiPoly.variable(pd.reg, series_var)

    def term(c, k: int) -> MultiPoly:
        return pd.coerce(c) * u ** k

    half = (max_length + 1) // 2
    charge(64 * half * (b.nrows + 1), "amitsur_check")   # bytes of rows kept
    powers = [b]   # B^1, ..., B^half
    while len(powers) < half:
        powers.append(powers[-1] * b)
    lhs = pd.zero
    for k in range(1, max_length + 1):
        if k <= half:
            tr = powers[k - 1].trace()
        else:
            tr = _trace_of_product(powers[half - 1], powers[k - half - 1])
        if tr:   # a zero trace adds nothing: no u^k is formed for it
            lhs = lhs + term(tr * Fraction(1, k), k)

    rhs = pd.zero
    for pc in primes:
        mono = monodromy(g, conn, Path(src_of_cycle(g, pc), pc.edges))
        w = cycle_weight(x, pc)
        acc_m, acc_w, j = mono, w, 1
        while j * pc.length <= max_length:
            c = acc_w * acc_m.trace()
            if c:
                rhs = rhs + term(c * Fraction(1, j), j * pc.length)
            j += 1
            acc_m = acc_m * mono
            acc_w = acc_w * w
    return AmitsurResult(lhs, rhs, lhs == rhs, max_length, len(primes))


def _trace_of_product(a: Matrix, b: Matrix):
    """tr(a*b) = sum of a_ij * b_ji over the stored entries a_ij whose
    b_ji is stored too, with no product matrix formed."""
    dom = a.domain
    add, mul = dom.add, dom.mul
    b_at = [dict(row) for row in b.rows]
    acc = dom.zero
    for i, row in enumerate(a.rows):
        for j, x in row:
            y = b_at[j].get(i)
            if y is not None:
                acc = add(acc, mul(x, y))
    return acc


def src_of_cycle(g: Graph, pc: PrimeCycle) -> int:
    return g.src[pc.edges[0]]


# ---------------------------------------------------------------------------
# the four formal axioms over an abelian deck group


class ArtinResult:
    def __init__(self, identity_axiom: bool, additivity_axiom: bool,
                 inflation_axiom: bool, induction_axiom: bool,
                 group_order: int, subgroup_order: int):
        self.identity_axiom = identity_axiom
        self.additivity_axiom = additivity_axiom
        self.inflation_axiom = inflation_axiom
        self.induction_axiom = induction_axiom
        self.group_order = group_order
        self.subgroup_order = subgroup_order

    @property
    def ok(self) -> bool:
        return (self.identity_axiom and self.additivity_axiom
                and self.inflation_axiom and self.induction_axiom)


def _char_charpoly(graph: Graph, x: EdgeWeights, pres: Pi1Presentation,
                   rep: Representation) -> MultiPoly:
    return charpoly(twisted_adjacency(graph, x,
                                      connection_from_rep(pres, rep)))


def _descend_perm(sigma, to_mid, mid_size: int):
    out = [-1] * mid_size
    for a, b in enumerate(sigma):
        i, j = to_mid[a], to_mid[b]
        if out[i] == -1:
            out[i] = j
        elif out[i] != j:
            raise NotNormalError("deck permutation does not descend")
    return tuple(out)


def artin_axioms(cd: CosetData, subgroup: tuple[tuple[int, ...], ...],
                 x: EdgeWeights) -> ArtinResult:
    """Identity, additivity, inflation and induction for the characters
    attached to a normal abelian cover and a chosen deck subgroup.

    Every comparison happens between characteristic polynomials of
    twisted vertex operators, which carry the same factorization data
    as the corresponding L-series.  The tower's two new covers, the
    quotient over the base and the cover over the quotient, enter
    through their own coset data, whose fiber groups are read off their
    sheets."""
    p = cd.covering
    pres = cd.base_pres
    normal, galois = is_normal(cd)
    if not normal:
        raise NotNormalError("axiom checks need a normal cover")
    if not galois.abelian:
        raise NotAbelianError("axiom checks run on abelian deck groups")
    chars = abelian_characters(galois)

    # identity: the trivial character twists to the plain operator
    a_plain = twisted_adjacency(p.base, x,
                                trivial_connection(QQ_of(x), p.base.num_edges))
    triv = trivial_representation(QQ_of(x), pres.rank)
    a_triv = twisted_adjacency(p.base, x, connection_from_rep(pres, triv))
    ax1 = a_triv.eq(a_plain) and charpoly(a_triv) == charpoly(a_plain)

    # additivity: direct sums multiply characteristic polynomials
    char_cp = [_char_charpoly(p.base, x, pres, r) for r in chars]
    ax2 = True
    for i in range(len(chars)):
        for j in range(i, len(chars)):
            cp = _char_charpoly(p.base, x, pres, direct_sum(chars[i], chars[j]))
            if cp != char_cp[i] * char_cp[j]:
                ax2 = False

    # quotient by the subgroup; both remaining axioms live on the tower
    qd = quotient_by_subgroup(p, galois, subgroup)
    mid = qd.mid_over_base
    mid_graph = mid.cover
    normal_mid, galois_mid = is_normal(coset_data(mid))
    if not normal_mid:
        raise NotNormalError("quotient cover is not normal")
    table_mid = abelian_character_table(galois_mid)

    # inflation: a quotient character pulled back through the full deck
    # group twists the same operator as the quotient cover's own action
    midpos = {vt: i for i, vt in enumerate(galois_mid.fiber)}
    to_mid = [midpos[qd.cover_over_mid.p_vertex[vt]] for vt in galois.fiber]
    proj_gens = tuple(_descend_perm(gp, to_mid, len(galois_mid.fiber))
                      for gp in galois.gen_perms)
    ax3 = True
    for rep_a, rep_b in zip(table_characters(table_mid, proj_gens),
                            table_characters(table_mid, table_mid.gens)):
        if (_char_charpoly(p.base, x, pres, rep_a)
                != _char_charpoly(p.base, x, pres, rep_b)):
            ax3 = False

    # induction: a subgroup character induced to the full group twists
    # the base the way the character itself twists the quotient graph
    com = qd.cover_over_mid
    cd_h = coset_data(com)
    mid_pres = cd_h.base_pres
    normal_h, galois_h = is_normal(cd_h)
    if not normal_h:
        raise NotNormalError("cover over quotient is not normal")
    fiber_h = com.vertex_fibers[com.base_vertex]
    pos_h = {vt: i for i, vt in enumerate(fiber_h)}
    pos_cover = galois.position
    fiber_cover = galois.fiber

    def restrict(h):
        return tuple(pos_h[fiber_cover[h[pos_cover[vt]]]] for vt in fiber_h)

    table_h = abelian_character_table(galois_h)
    dom_h = table_h.domain
    xm = lift_weights(mid, x)
    ax4 = True
    for rep_sub, rep_mid in zip(
            table_characters(table_h, tuple(map(restrict, qd.subgroup))),
            table_characters(table_h, table_h.gens)):
        cp_mid = _char_charpoly(mid_graph, xm, mid_pres, rep_mid)
        rho_vals = dict(zip(qd.subgroup, rep_sub.gen_mats))
        matrix_at, _ = finite_group_induction(galois.elements, qd.subgroup,
                                              rho_vals, dom_h, 1)
        rep_ind = representation(dom_h, [matrix_at(gp)
                                         for gp in galois.gen_perms])
        cp_base = _char_charpoly(p.base, x, pres, rep_ind)
        if cp_mid != cp_base:
            ax4 = False

    return ArtinResult(ax1, ax2, ax3, ax4, galois.order, len(qd.subgroup))


def QQ_of(x: EdgeWeights):
    """Scalar domain usable for untwisted connections alongside x."""
    dom = x.domain
    return dom.coeff if isinstance(dom, PolyDomain) else dom
