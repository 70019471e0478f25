"""Output checkers: each compares one report with computations made
apart from the program (see reference.py), or with a property the
method must have.  None compares with stored output.

A checker returns a list of problems; an empty list means the report is
correct.  Whether the command passed its own checks is decided apart
from this, by `failed`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref

POINTS = 2          # evaluation points per polynomial identity
SPAN = 10 ** 4      # point coordinates are drawn from [-SPAN, SPAN]


def parse_report(stdout: str):
    """(command, checks {name: passed}, data {key: value}, result line)."""
    lines = stdout.splitlines()
    checks = {}
    data = {}
    command = lines[0].partition("command: ")[2] if lines else ""
    for line in lines:
        if line.startswith("check "):
            name, _, verdict = line[6:].rpartition(": ")
            checks[name] = verdict == "pass"
        elif line.startswith("  ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            data[key] = value
    result = lines[-1] if lines else ""
    return command, checks, data, result


def failed(code: int, stdout: str) -> bool:
    """An operation fails on a non-zero exit or on any FAIL check."""
    return code != 0 or any(line.startswith("check ") and line.endswith(": FAIL")
                            for line in stdout.splitlines())


def _point(rng: random.Random, inst, extra=()):
    """Random integer values for the edge variables (symbolic weights)
    and the named extra variables, plus the weight per base edge."""
    pt = {name: rng.randint(-SPAN, SPAN) for name in extra}
    if inst.weights == "symbolic":
        w = [rng.randint(1, SPAN) for _ in inst.pairs]
        pt.update({f"x_{k}": v for k, v in enumerate(w)})
    else:
        w = list(inst.weights)
    return pt, w


def _poly(data, key):
    return ref.parse_poly(data[key])


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: program {got}, reference {want}")


def _cover(inst, invert=False):
    return ref.permutation_cover(inst.n, inst.pairs, inst.degree, inst.perms,
                                 invert)


def check_cor1(inst, data, rng, invert=False) -> list:
    problems = []
    cover_cp = _poly(data, "cover charpoly")
    base_cp = _poly(data, "base charpoly")
    quot = _poly(data, "quotient")
    nv, edges = _cover(inst, invert)
    base = ref.base_edges(inst.pairs)
    for _ in range(POINTS):
        pt, w = _point(rng, inst, ("lambda",))
        lam = pt["lambda"]
        want_c = ref.charpoly_at(nv, edges, w, lam)
        want_b = ref.charpoly_at(inst.n, base, w, lam)
        _expect(problems, f"cover charpoly at {lam}",
                ref.evaluate(cover_cp, pt), want_c)
        _expect(problems, f"base charpoly at {lam}",
                ref.evaluate(base_cp, pt), want_b)
        _expect(problems, f"quotient times base at {lam}",
                ref.evaluate(quot, pt) * want_b, want_c)
    if not ref.is_monic_in(quot, "lambda", (inst.degree - 1) * inst.n):
        problems.append("quotient is not monic of lambda-degree (d-1)*n")
    return problems


def check_trees(inst, data, rng) -> list:
    problems = []
    nv, edges = _cover(inst)
    base = ref.base_edges(inst.pairs)
    polys = {k: _poly(data, k) for k in ("base tree sum", "cover tree sum",
                                         "tree quotient", "forest quotient")}
    for _ in range(POINTS):
        pt, w = _point(rng, inst)
        tb = ref.kirchhoff(inst.n, base, w)
        tc = ref.kirchhoff(nv, edges, w)
        _expect(problems, "base tree sum",
                ref.evaluate(polys["base tree sum"], pt), tb)
        _expect(problems, "cover tree sum",
                ref.evaluate(polys["cover tree sum"], pt), tc)
        _expect(problems, "tree quotient times base",
                ref.evaluate(polys["tree quotient"], pt) * tb, tc)
        fb = ref.forest_polynomial_at(inst.n, base, w, 1)
        fc = ref.forest_polynomial_at(nv, edges, w, 1)
        _expect(problems, "forest quotient",
                ref.evaluate(polys["forest quotient"], pt), fc / fb)
    return problems


def check_verify_main(inst, data, rng) -> list:
    problems = []
    _expect(problems, "degree", data.get("degree"), str(inst.degree))
    _expect(problems, "representation degree",
            data.get("representation degree"), str(len(inst.reps[0])))
    dets = [data.get(f"intertwiner block det at {v}") for v in range(inst.n)]
    for v, d in enumerate(dets):
        if d not in ("1", "-1"):
            problems.append(f"intertwiner block det at {v} is {d}, not +-1")
    if f"intertwiner block det at {inst.n}" in data:
        problems.append("more block determinants than base vertices")
    return problems


def _nb_operator(inst, w=None):
    """The weighted, twisted operator for weights w; with w None, the
    untwisted operator with unit weights."""
    if w is None:
        mats = [[[1]]] * (2 * len(inst.pairs))
        w = [1] * len(inst.pairs)
    else:
        mats = ref.connection(inst.n, inst.pairs, inst.reps)
    return ref.nonbacktracking(inst.n, inst.pairs, w, mats)


def _prime_total(inst, length: int) -> int:
    size, _, rows = _nb_operator(inst)
    return ref.prime_count(ref.nb_traces(size, rows, length))


def check_zeta_lseries(inst, data, rng, length: int) -> list:
    problems = []
    series = _poly(data, "reciprocal series")
    for _ in range(POINTS):
        pt, w = _point(rng, inst)
        pt["u"] = u = rng.choice([v for v in range(-50, 51) if v])
        size, _, rows = _nb_operator(inst, w)
        _expect(problems, f"det(I - uB) at u={u}",
                ref.evaluate(series, pt), ref.nb_det_at(size, rows, u))
    _expect(problems, f"primes through length {length}",
            data.get(f"primes through length {length}"),
            str(_prime_total(inst, length)))
    return problems


def check_zeta_amitsur(inst, data, rng, length: int) -> list:
    problems = []
    _expect(problems, "series length", data.get("series length"), str(length))
    _expect(problems, "prime count", data.get("prime count"),
            str(_prime_total(inst, length)))
    pt, w = _point(rng, inst)
    size, _, rows = _nb_operator(inst, w)
    traces = ref.nb_traces(size, rows, length)
    want = {k: Fraction(t) / k for k, t in enumerate(traces, start=1) if t}
    got = ref.coefficients_in(_poly(data, "trace side"), "u", pt)
    _expect(problems, "trace side coefficients tr(B^k)/k", got, want)
    return problems


def check_dimer(inst, data, rng) -> list:
    problems = []
    mod, volts = inst.zd
    _expect(problems, "degree", data.get("degree"), str(mod))
    nv, edges = ref.cyclic_cover(inst.n, inst.pairs, mod, volts)
    base = ref.base_edges(inst.pairs)
    polys = {k: _poly(data, k) for k in ("base matching sum",
                                         "cover matching sum",
                                         "matching quotient")}
    for _ in range(POINTS):
        pt, w = _point(rng, inst)
        zb = ref.matching_sum(inst.n, base, w)
        zc = ref.matching_sum(nv, edges, w)
        _expect(problems, "base matching sum",
                ref.evaluate(polys["base matching sum"], pt), zb)
        _expect(problems, "cover matching sum",
                ref.evaluate(polys["cover matching sum"], pt), zc)
        _expect(problems, "matching quotient times base",
                ref.evaluate(polys["matching quotient"], pt) * zb, zc)
    return problems


def check_oracle_trees(inst, data, rng) -> list:
    problems = []
    base = ref.base_edges(inst.pairs)
    ones = [1] * len(inst.pairs)
    _expect(problems, "spanning trees", data.get("spanning trees"),
            str(ref.kirchhoff(inst.n, base, ones)))
    pt, w = _point(rng, inst)
    _expect(problems, "tree sum", ref.evaluate(_poly(data, "tree sum"), pt),
            ref.kirchhoff(inst.n, base, w))
    return problems


def check_oracle_forests(inst, data, rng) -> list:
    problems = []
    base = ref.base_edges(inst.pairs)
    _expect(problems, "spanning forests", data.get("spanning forests"),
            str(ref.forest_count(inst.n, base)))
    pt, w = _point(rng, inst)
    _expect(problems, "rooted forest sum",
            ref.evaluate(_poly(data, "rooted forest sum"), pt),
            ref.forest_polynomial_at(inst.n, base, w, 1))
    parts = {}
    for k in range(1, inst.n + 1):
        key = f"rooted forest sum, {k} components"
        if key in data:
            parts[k] = ref.evaluate(_poly(data, key), pt)
    for t in (1, rng.randint(2, 99)):
        _expect(problems, f"forest sums by components at t={t}",
                sum(v * t ** k for k, v in parts.items()),
                ref.forest_polynomial_at(inst.n, base, w, t))
    return problems


def check_oracle_matchings(inst, data, rng) -> list:
    problems = []
    base = ref.base_edges(inst.pairs)
    _expect(problems, "perfect matchings", data.get("perfect matchings"),
            str(ref.matching_sum(inst.n, base, [1] * len(inst.pairs))))
    pt, w = _point(rng, inst)
    _expect(problems, "matching sum",
            ref.evaluate(_poly(data, "matching sum"), pt),
            ref.matching_sum(inst.n, base, w))
    return problems


def check_validate(inst, data, rng) -> list:
    problems = []
    e = len(inst.pairs)
    for key, want in (("vertices", inst.n), ("directed edges", 2 * e),
                      ("unoriented edges", e), ("loop rank", e - inst.n + 1)):
        _expect(problems, key, data.get(key), str(want))
    return problems


def check_cover(inst, data, rng) -> list:
    problems = []
    d = inst.degree
    e = len(inst.pairs)
    for key, want in (("degree", d), ("cover vertices", inst.n * d),
                      ("cover edges", 2 * e * d)):
        _expect(problems, key, data.get(key), str(want))
    group = ref.permutation_group(inst.perms, d)
    normal = len(group) == d
    _expect(problems, "normal", data.get("normal"), "yes" if normal else "no")
    if normal:
        _expect(problems, "deck group order", data.get("deck group order"),
                str(d))
        abelian = all(tuple(a[b[i]] for i in range(d))
                      == tuple(b[a[i]] for i in range(d))
                      for a in inst.perms for b in inst.perms)
        _expect(problems, "deck group abelian",
                data.get("deck group abelian"), "yes" if abelian else "no")
    return problems


CHECKERS = {
    "cor1": check_cor1,
    "trees": check_trees,
    "verify-main": check_verify_main,
    "dimer": check_dimer,
    "oracle-trees": check_oracle_trees,
    "oracle-forests": check_oracle_forests,
    "oracle-matchings": check_oracle_matchings,
    "validate": check_validate,
    "cover": check_cover,
}


def check_operation(op, stdout: str, rng: random.Random) -> list:
    """Problems with one operation's report, [] when it is correct."""
    command, _, data, result = parse_report(stdout)
    if command != op.command or not result.startswith("result: "):
        return [f"no complete {op.command} report on stdout"]
    try:
        if op.command == "zeta-lseries":
            return check_zeta_lseries(op.inst, data, rng, int(op.args[1]))
        if op.command == "zeta-amitsur":
            return check_zeta_amitsur(op.inst, data, rng, int(op.args[1]))
        return CHECKERS[op.command](op.inst, data, rng)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable report: {exc!r}"]
