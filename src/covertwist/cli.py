"""Command line driver: one subcommand, one input document, one report.

Exit codes: 0 all checks pass, 1 a verified identity failed, 2 the
input is malformed or the construction does not apply to it, 3 the
command's work budget (one for a whole suite) or a hard size cap was
exceeded.  The report goes to stdout; errors go to stderr.  Reports are
byte-stable (timing lines only appear behind --timing).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from functools import cache
from math import gcd

from .certificates import (
    cor1_certificate,
    cor2_certificate,
    dimer_certificate,
    kos_certificate,
    tree_certificates,
    unoriented_values,
    verify_main,
)
from .covering import (
    CosetData,
    build_cover,
    coset_data,
    edge_voltage_cover,
    identity_cover,
    is_normal,
    validate_covering,
)
from .docio import (
    InputDocument,
    Report,
    document_weights,
    parse_input,
    render_report,
    serialize_input,
)
from .domains import QQ, cyclotomic_field
from .errors import (
    WORK_LIMIT,
    BudgetExceededError,
    CovertwistError,
    DivisionFailedError,
    SemanticError,
    work_limit,
)
from .graphs import default_rotation, is_connected
from .homotopy import fundamental_presentation
from .oracles import (
    matching_sum,
    pairwise_sum,
    rooted_forest_sum_by_components,
    tree_sum,
)
from .randinst import random_cover_instance
from .representation import Representation, trivial_representation
from .zeta import (
    amitsur_check,
    artin_axioms,
    l_series_inverse,
    prime_cycles,
    untwisted_l_series_inverse,
)


# ---------------------------------------------------------------------------
# shared construction steps


def _covering_from_doc(doc: InputDocument, r: Report,
                       characters: bool = False) -> CosetData:
    """The coset data of the document's cover: explicit voltage first,
    then cyclic voltages, then the identity cover as a last resort.
    coset_data refuses a disconnected cover, whatever its voltage kind.
    With characters, a connected ℤ/N cover's character field Q(ζ_N) is
    checked against its budget before the cover is built."""
    g = doc.graph
    if not is_connected(g):
        raise SemanticError("the graph is not connected")
    if doc.voltage is not None:
        volt = doc.voltage
        pres = fundamental_presentation(g, 0)
        if len(volt.perms) != pres.rank:
            raise SemanticError(
                f"voltage lists {len(volt.perms)} generators, the loop "
                f"rank is {pres.rank}")
        p = build_cover(pres, volt)
    elif doc.moduli is not None:
        (n,) = doc.moduli
        volts = doc.abelian_voltages
        if characters and _cyclic_cover_connected(g, volts, n):
            cyclotomic_field(n)
        p = edge_voltage_cover(g, volts, doc.moduli)
    else:
        r.notes.append("no voltage section; using the identity cover")
        p = identity_cover(g)
    return coset_data(p)


def _cyclic_cover_connected(g, voltages, n: int) -> bool:
    """Whether the ℤ/n cover of the connected graph g with one voltage
    (b,) per directed edge is connected: the closed walks' voltages must
    generate ℤ/n, and the cycles closed by each edge over a search tree
    generate them, so the test is gcd(n, cycle voltages) = 1."""
    height = {0: 0}   # the voltage of the tree path from vertex 0
    queue = [0]
    for v in queue:
        for e in g.out_edges[v]:
            if g.tgt[e] not in height:
                height[g.tgt[e]] = height[v] + voltages[e][0]
                queue.append(g.tgt[e])
    return gcd(n, *(height[g.src[e]] + voltages[e][0] - height[g.tgt[e]]
                    for e in range(g.num_edges))) == 1


def _pick_rep(doc: InputDocument, rank: int, what: str) -> Representation | None:
    reps = doc.representations
    if not reps:
        return None
    if len(reps) == 1:
        name, rho = next(iter(reps.items()))
    elif "rho" in reps:
        name, rho = "rho", reps["rho"]
    else:
        raise SemanticError("several representations given; name the one "
                            "to use `rho`")
    if rho.rank != rank:
        raise SemanticError(
            f"representation {name!r} has {rho.rank} generators, "
            f"{what} needs {rank}")
    return rho


def _integrality_check(r: Report, name: str, cert) -> None:
    """The integrality check where the weights make it a claim, else a
    note saying why it is left out."""
    if cert.integrality_claimed:
        r.check(name, cert.integral)
    else:
        r.notes.append(f"{name}: not claimed for non-integer weights")


# ---------------------------------------------------------------------------
# command handlers


def _cmd_validate(args, doc: InputDocument) -> Report:
    r = Report("validate")
    g = doc.graph
    r.datum("vertices", g.num_vertices)
    r.datum("directed edges", g.num_edges)
    r.datum("unoriented edges", g.num_unoriented)
    connected = is_connected(g)
    if connected:
        r.datum("loop rank", g.num_unoriented - g.num_vertices + 1)
    r.check("graph well formed", True)
    r.check("graph connected", connected)
    once = serialize_input(doc)
    r.check("serialization stable", serialize_input(parse_input(once)) == once)
    return r


def _cmd_cover(args, doc: InputDocument) -> Report:
    r = Report("cover")
    if doc.voltage is None and doc.moduli is None:
        raise SemanticError("cover needs a voltage or zdvoltage section")
    cd = _covering_from_doc(doc, r)
    p = cd.covering
    r.datum("degree", p.degree)
    r.datum("cover vertices", p.cover.num_vertices)
    r.datum("cover edges", p.cover.num_edges)
    rep = validate_covering(p)
    r.check("covering consistent", rep.ok)
    for prob in rep.problems:
        r.notes.append(prob)
    r.check("cover connected", True)   # or coset_data would have refused it
    normal, galois = is_normal(cd)
    r.datum("normal", "yes" if normal else "no")
    if normal:
        r.datum("deck group order", galois.order)
        r.datum("deck group abelian", "yes" if galois.abelian else "no")
    return r


def _suite_report(name: str, args, run_one) -> Report:
    r = Report(name)
    rng = random.Random(args.seed)
    r.notes.append(f"randomized suite: seed={args.seed} count={args.count}")
    for i in range(args.count):
        r.check(f"instance {i}", run_one(rng))
    return r


def _cmd_verify_main(args, doc: InputDocument | None) -> Report:
    if doc is None:
        def one(rng):
            inst = random_cover_instance(rng, max_degree=args.degree or 4)
            return verify_main(inst.coset, inst.rho, inst.weights).ok
        return _suite_report("verify-main", args, one)
    r = Report("verify-main")
    cd = _covering_from_doc(doc, r)
    rho = _pick_rep(doc, cd.cover_pres.rank, "the cover loop group")
    if rho is None:
        rho = trivial_representation(QQ, cd.cover_pres.rank)
        r.notes.append("no representation section; using the trivial one")
    x = document_weights(doc)
    cert = verify_main(cd, rho, x)
    r.datum("degree", cd.covering.degree)
    r.datum("representation degree", rho.degree)
    for v, d in enumerate(cert.vertex_dets):
        r.datum(f"intertwiner block det at {v}", d)
    r.check("operators intertwine", cert.commutes)
    r.check("intertwiner invertible", cert.invertible)
    return r


def _cmd_cor1(args, doc: InputDocument | None) -> Report:
    if doc is None:
        def one(rng):
            inst = random_cover_instance(rng, max_vertices=4, max_edges=6,
                                         max_degree=args.degree or 4,
                                         cover_vertex_cap=16)
            return cor1_certificate(inst.coset, inst.weights).ok
        return _suite_report("cor1", args, one)
    r = Report("cor1")
    cd = _covering_from_doc(doc, r)
    x = document_weights(doc)
    res = cor1_certificate(cd, x)
    cert = res.certificate
    r.datum("cover charpoly", cert.dividend)
    r.datum("base charpoly", cert.divisor)
    r.datum("quotient", cert.quotient)
    r.check("charpoly divisible", res.divisible)
    _integrality_check(r, "quotient integer coefficients", cert)
    r.check("quotient monic", res.quotient_monic)
    r.check("quotient matches complement twist", res.complement_matches)
    return r


def _cmd_cor2(args, doc: InputDocument) -> Report:
    r = Report("cor2")
    cd = _covering_from_doc(doc, r, characters=not doc.irreducibles)
    irr = None
    if doc.irreducibles:
        irr = []
        for name, mult in doc.irreducibles:
            irr.extend([doc.representations[name]] * mult)
    x = document_weights(doc)
    res = cor2_certificate(cd, x, irreducibles=irr)
    r.datum("factor degrees", " ".join(str(d) for d in res.factor_degrees))
    r.datum("cover charpoly", res.lhs)
    r.datum("factor product", res.rhs)
    r.check("factorization exact", res.matches)
    return r


def _cmd_trees(args, doc: InputDocument | None) -> Report:
    if doc is None:
        def one(rng):
            inst = random_cover_instance(rng, max_vertices=4, max_edges=5,
                                         max_degree=args.degree or 3,
                                         cover_vertex_cap=12)
            return tree_certificates(inst.coset, inst.weights).ok
        return _suite_report("trees", args, one)
    r = Report("trees")
    cd = _covering_from_doc(doc, r)
    x = document_weights(doc)
    res = tree_certificates(cd, x)
    r.datum("base tree sum", res.st.divisor)
    r.datum("cover tree sum", res.st.dividend)
    r.datum("tree quotient", res.st.quotient)
    r.datum("forest quotient", res.rsf.quotient)
    r.check("tree sum divisible", res.tree_divisible)
    _integrality_check(r, "tree quotient integer coefficients", res.st)
    r.check("forest sum divisible", res.forest_divisible)
    _integrality_check(r, "forest quotient integer coefficients", res.rsf)
    for tag, flag in res.coefficient_checks:
        r.check(tag, flag)
    return r


def _cmd_dimer(args, doc: InputDocument) -> Report:
    r = Report("dimer")
    if doc.moduli is None:
        raise SemanticError("dimer needs a zdvoltage section")
    (d,) = doc.moduli
    g = doc.graph
    rot = doc.rotation if doc.rotation is not None else default_rotation(g)
    if doc.rotation is None:
        r.notes.append("no rotation section; using the default rotation")
    x = document_weights(doc)
    res = dimer_certificate(g, rot, doc.abelian_voltages, d, x)
    r.datum("degree", d)
    r.datum("base matching sum", res.z_base)
    r.datum("cover matching sum", res.z_cover)
    r.datum("matching quotient", res.matching_cert.quotient)
    r.check("determinant factorizes", res.det_identity)
    r.check("matching sum divisible", res.matching_cert.check_product())
    _integrality_check(r, "matching quotient integer coefficients",
                       res.matching_cert)
    r.check("base pfaffian squared", res.pf_base_squared_ok)
    r.check("cover pfaffian squared", res.pf_cover_squared_ok)
    return r


def _cmd_kos(args, doc: InputDocument) -> Report:
    r = Report("kos")
    if doc.abelian_voltages is None or doc.moduli is not None:
        raise SemanticError("kos needs a z2voltage section")
    x = document_weights(doc)
    res = kos_certificate(doc.graph, doc.abelian_voltages, x, args.m,
                          args.n)
    r.datum("torus", f"{args.m} x {args.n}")
    r.datum("cover determinant", res.lhs)
    r.datum("character product", res.rhs)
    r.check("torus determinant factorizes", res.ok)
    return r


def _cmd_zeta_lseries(args, doc: InputDocument) -> Report:
    r = Report("zeta-lseries")
    g = doc.graph
    if not is_connected(g):
        raise SemanticError("the graph is not connected")
    pres = fundamental_presentation(g, 0)
    rho = _pick_rep(doc, pres.rank, "the base loop group")
    x = document_weights(doc)
    if rho is None:
        out = untwisted_l_series_inverse(g, x)
    else:
        out = l_series_inverse(g, x, rho, pres)
    r.datum("reciprocal series", out)
    r.datum("primes through length " + str(args.max_length),
            len(prime_cycles(g, args.max_length)))
    r.check("constant term is one", out.constant_value() == 1)
    return r


def _cmd_zeta_amitsur(args, doc: InputDocument) -> Report:
    r = Report("zeta-amitsur")
    g = doc.graph
    if not is_connected(g):
        raise SemanticError("the graph is not connected")
    pres = fundamental_presentation(g, 0)
    rho = _pick_rep(doc, pres.rank, "the base loop group")
    if rho is None:
        rho = trivial_representation(QQ, pres.rank)
        r.notes.append("no representation section; using the trivial one")
    x = document_weights(doc)
    res = amitsur_check(g, x, rho, pres, max_length=args.max_length)
    r.datum("series length", res.max_length)
    r.datum("prime count", res.prime_count)
    r.datum("trace side", res.lhs)
    r.check("log derivative matches prime sum", res.matches)
    return r


def _cmd_artin(args, doc: InputDocument) -> Report:
    r = Report("artin-axioms")
    if doc.voltage is None:
        raise SemanticError("artin-axioms needs a voltage section")
    if doc.subgroup is None:
        raise SemanticError("artin-axioms needs a subgroup section")
    cd = _covering_from_doc(doc, r)
    d = cd.covering.degree
    if len(doc.subgroup[0]) != d:
        raise SemanticError(
            f"subgroup permutations act on {len(doc.subgroup[0])} points, "
            f"the fiber has {d}")
    x = document_weights(doc)
    res = artin_axioms(cd, doc.subgroup, x)
    r.datum("deck group order", res.group_order)
    r.datum("subgroup order", res.subgroup_order)
    r.check("identity axiom", res.identity_axiom)
    r.check("additivity axiom", res.additivity_axiom)
    r.check("inflation axiom", res.inflation_axiom)
    r.check("induction axiom", res.induction_axiom)
    return r


def _oracle_report(name: str, doc: InputDocument):
    r = Report(name)
    g = doc.graph
    x = document_weights(doc)
    vals = unoriented_values(g, x)
    return r, g, x.domain, vals


def _cmd_oracle_trees(args, doc: InputDocument) -> Report:
    r, g, dom, vals = _oracle_report("oracle-trees", doc)
    r.datum("spanning trees", tree_sum(g, QQ, [1] * len(vals)))
    r.datum("tree sum", tree_sum(g, dom, vals))
    return r


def _cmd_oracle_forests(args, doc: InputDocument) -> Report:
    r, g, dom, vals = _oracle_report("oracle-forests", doc)
    by_k = rooted_forest_sum_by_components(g, dom, vals)
    r.datum("spanning forests", by_k.forests)
    r.datum("rooted forest sum", pairwise_sum(dom, list(by_k.values())))
    for k, v in sorted(by_k.items()):
        r.datum(f"rooted forest sum, {k} components", v)
    return r


def _cmd_oracle_matchings(args, doc: InputDocument) -> Report:
    r, g, dom, vals = _oracle_report("oracle-matchings", doc)
    r.datum("perfect matchings", matching_sum(g, QQ, [1] * len(vals)))
    r.datum("matching sum", matching_sum(g, dom, vals))
    return r


_HANDLERS = {
    "validate": _cmd_validate,
    "cover": _cmd_cover,
    "verify-main": _cmd_verify_main,
    "cor1": _cmd_cor1,
    "cor2": _cmd_cor2,
    "trees": _cmd_trees,
    "dimer": _cmd_dimer,
    "kos": _cmd_kos,
    "zeta-lseries": _cmd_zeta_lseries,
    "zeta-amitsur": _cmd_zeta_amitsur,
    "artin-axioms": _cmd_artin,
    "oracle-trees": _cmd_oracle_trees,
    "oracle-forests": _cmd_oracle_forests,
    "oracle-matchings": _cmd_oracle_matchings,
}

_SUITE_COMMANDS = ("verify-main", "cor1", "trees")


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    """argparse type for sizes and counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main call and kept for
    the process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="covertwist",
        description="Twisted adjacency operators on graph coverings: "
                    "conjugation, divisibility and series certificates.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name, help_, *, seed=False, length=False, torus=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", metavar="PATH",
                       help="problem document to read")
        p.add_argument("--timing", action="store_true",
                       help="append elapsed time to the report")
        if seed:
            p.add_argument("--seed", type=int,
                           help="run a randomized suite instead of a file")
            p.add_argument("--count", type=_positive_int, default=10,
                           help="suite size (default 10)")
            p.add_argument("--degree", type=_positive_int,
                           help="cover degree bound of the suite")
        if length:
            p.add_argument("--max-length", type=_positive_int, default=6,
                           dest="max_length",
                           help="cycle length horizon (default 6)")
        if torus:
            p.add_argument("--m", type=_positive_int, default=2,
                           help="torus rows (default 2)")
            p.add_argument("--n", type=_positive_int, default=2,
                           help="torus columns (default 2)")
        return p

    cmd("validate", "parse a document and confirm it is well formed")
    cmd("cover", "build the cover described by a voltage and summarize it")
    cmd("verify-main", "certify the intertwining of cover and base "
                       "operators", seed=True)
    cmd("cor1", "untwisted charpoly divisibility along a cover", seed=True)
    cmd("cor2", "charpoly factorization over the deck group characters")
    cmd("trees", "spanning tree and rooted forest divisibility", seed=True)
    cmd("dimer", "dimer determinant factorization for odd cyclic covers")
    cmd("kos", "torus determinant against the character product",
        torus=True)
    cmd("zeta-lseries", "reciprocal L-series determinant", length=True)
    cmd("zeta-amitsur", "log derivative against the prime cycle sum",
        length=True)
    cmd("artin-axioms", "character formalism on a normal abelian tower")
    cmd("oracle-trees", "brute force spanning tree enumeration")
    cmd("oracle-forests", "brute force rooted forest enumeration")
    cmd("oracle-matchings", "brute force perfect matching enumeration")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    handler = _HANDLERS[args.command]
    try:
        doc = None
        if args.input:
            try:
                with open(args.input, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"error: cannot read {args.input}: {exc}",
                      file=sys.stderr)
                return 2
            doc = parse_input(text)
        elif getattr(args, "seed", None) is None:   # only suites have one
            hint = (" (or --seed for a randomized suite)"
                    if args.command in _SUITE_COMMANDS else "")
            print(f"error: --input is required{hint}", file=sys.stderr)
            return 2
        with work_limit(WORK_LIMIT):   # one budget, a whole suite included
            report = handler(args, doc)
    except (BudgetExceededError, MemoryError, RecursionError) as exc:
        # a backstop: no resource failure reads as falsified
        print(f"error: budget exceeded: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 3
    except DivisionFailedError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:   # int's limit on the digits of its text
        if "integer string conversion" not in str(exc):
            raise
        print("error: budget exceeded: a report value has more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 3
    except CovertwistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed = time.perf_counter() - t0
    sys.stdout.write(render_report(report, show_timing=args.timing))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
