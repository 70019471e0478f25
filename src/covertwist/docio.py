"""Input documents and report serialization for batch runs.

The input format is a plain-text file of sections.  A section starts
with a header line ending in a colon and owns the indented or unindented
lines until the next header.  `#` starts a comment anywhere.  Example:

    graph:
      vertices = 3
      edge 0 1
      edge 1 2
      edge 2 0
    weights:
      kind = symbolic
    voltage:
      degree = 2
      generator 0 = (0 1)

Graphs may also be given as explicit `directed src tgt inv` triples.
Numbers are exact: integers, fractions `p/q`, decimals `2.5` and `1e-3`
(read as the fractions they name), gaussian values `a+b*i` (or `a+b*j`)
and cyclotomic values `1/2*zeta_5^2-zeta_5^3`, sums of rational
multiples of the roots of unity zeta_N = e^(2*pi*i/N).  Serialization
normalizes every section, and parsing its own output reproduces the
document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .covering import VoltageAssignment
from .domains import (QQ, GaussianRational, _norm_rat, domain_of,
                      format_gaussian, root_of_unity)
from .errors import InvalidRotationError, ParseError, SemanticError
from .graphs import (
    DirectedGraph,
    Graph,
    RotationSystem,
    build_graph,
    validate_graph,
    validate_rotation,
)
from .matrix import Matrix
from .operators import EdgeWeights, symbolic_weights, weights_from_unoriented
from .poly import MultiPoly
from .representation import Representation, representation

WEIGHT_KINDS = ("symbolic", "rational", "complex", "unit")


@dataclass
class InputDocument:
    """Parsed problem statement: one graph plus optional twist data."""

    graph: Graph
    weights_kind: str = "symbolic"
    weight_values: tuple | None = None
    rotation: RotationSystem | None = None
    voltage: VoltageAssignment | None = None
    z2_voltages: tuple[tuple[int, int], ...] | None = None
    zd_modulus: int | None = None
    zd_voltages: tuple[int, ...] | None = None
    representations: dict[str, Representation] = field(default_factory=dict)
    irreducibles: list[tuple[str, int]] = field(default_factory=list)
    subgroup: tuple[tuple[int, ...], ...] | None = None


def document_weights(doc: InputDocument) -> EdgeWeights:
    g = doc.graph
    if doc.weights_kind == "symbolic":
        return symbolic_weights(g)
    if doc.weights_kind == "unit":
        return weights_from_unoriented(g, QQ, [Fraction(1)] * g.num_unoriented)
    vals = list(doc.weight_values)
    return weights_from_unoriented(g, domain_of(vals), vals)


# ---------------------------------------------------------------------------
# scalar lexing


# Decimal exponents are bounded like int's own digit limit, so that no
# literal of a few bytes asks for an integer of gigabytes.
MAX_DECIMAL_EXPONENT = 4300


def parse_scalar(tok: str, line: int):
    """An exact scalar: int, Fraction, GaussianRational or Cyclotomic.

    Accepted forms: `3`, `-3/2`, `2.5`, `1e-3`, `3+1/2*i`, `2-i`,
    `1.5+0.5*j` (j reads as i), `1/2*zeta_5^2-zeta_5^3`: a sum of terms,
    each a rational or a rational times i, j or zeta_N^k.  nan and inf
    are not numbers here.
    """
    s = tok.replace(" ", "")
    if not s:
        raise ParseError(line, "empty number")
    try:
        try:
            return _parse_rational(s)
        except ValueError:
            pass
        total = 0
        start = 0
        for k in range(1, len(s) + 1):
            if k == len(s) or s[k] in "+-" and s[k - 1] not in "eE*/^":
                total = total + _parse_term(s[start:k])
                start = k
        return total
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(line, f"bad number {tok!r}: {exc}") from None


def _parse_rational(s: str):
    if "/" in s:
        num, den = s.split("/", 1)
        f = Fraction(int(num), int(den))
        return int(f) if f.denominator == 1 else f
    return int(s)


def _parse_term(t: str):
    """One signed term: q, q*i, q*j or q*zeta_N^k, where the rational q
    before a unit may be left out."""
    sign = -1 if t[0] == "-" else 1
    if t[0] in "+-":
        t = t[1:]
    if t.endswith(("i", "j")):
        coef, unit = t[:-1], GaussianRational(0, 1)
    elif "zeta_" in t:
        coef, _, atom = t.partition("zeta_")
        order, hat, power = atom.partition("^")
        unit = root_of_unity(int(order), int(power) if hat else 1)
    else:
        return sign * _parse_decimal(t)
    if coef.endswith("*"):
        coef = coef[:-1]
        if not coef:
            raise ValueError("* without a coefficient")
    return sign * (_parse_decimal(coef) if coef else 1) * unit


def _parse_decimal(t: str):
    """A rational written p/q or as a decimal, exactly."""
    _, e, exponent = t.upper().partition("E")
    if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_DECIMAL_EXPONENT}")
    return _norm_rat(Fraction(t))


def format_scalar(v) -> str:
    """Text that parse_scalar reads back as v, with no spaces."""
    if isinstance(v, GaussianRational):
        s = format_gaussian(v)
        return s[1:-1] if s.startswith("(") else s
    return str(v)   # int, Fraction and Cyclotomic print without spaces


# ---------------------------------------------------------------------------
# permutations in cycle notation


def parse_cycles(text: str, degree: int, line: int) -> tuple[int, ...]:
    """`(0 1)(2 3)` to a one-line permutation tuple; `()` is identity."""
    s = text.strip()
    if not s:
        raise ParseError(line, "empty permutation")
    out = list(range(degree))
    used: set[int] = set()
    depth_open = False
    cycles: list[list[int]] = []
    cur: list[int] = []
    tok = ""

    def flush_tok():
        nonlocal tok
        if tok:
            cur.append(int(tok))
            tok = ""

    for ch in s:
        if ch == "(":
            if depth_open:
                raise ParseError(line, "nested parenthesis in permutation")
            depth_open = True
            cur = []
        elif ch == ")":
            if not depth_open:
                raise ParseError(line, "unbalanced parenthesis")
            flush_tok()
            cycles.append(cur)
            depth_open = False
        elif ch in " ,":
            flush_tok()
        elif ch.isdigit():
            tok += ch
        else:
            raise ParseError(line, f"unexpected character {ch!r} in permutation")
    if depth_open:
        raise ParseError(line, "unclosed parenthesis")
    if tok:
        raise ParseError(line, "digits outside parentheses")
    for cyc in cycles:
        for p in cyc:
            if p < 0 or p >= degree:
                raise SemanticError(
                    f"line {line}: point {p} outside 0..{degree - 1}")
            if p in used:
                raise SemanticError(
                    f"line {line}: point {p} appears in two cycles")
            used.add(p)
        for i, p in enumerate(cyc):
            out[p] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def format_cycles(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        at = perm[start]
        while at != start:
            cyc.append(at)
            seen[at] = True
            at = perm[at]
        parts.append("(" + " ".join(str(p) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# section scanner


def _scan_sections(text: str) -> list[tuple[int, str, list[tuple[int, str]]]]:
    sections = []
    current: list[tuple[int, str]] | None = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if not raw[0].isspace() and stripped.endswith(":"):
            header = stripped[:-1].strip()
            if not header:
                raise ParseError(num, "empty section header")
            current = []
            sections.append((num, header, current))
        else:
            if current is None:
                raise ParseError(num, "content before the first section")
            current.append((num, stripped))
    return sections


def _kv(body: list[tuple[int, str]], key: str, *, required=False,
        where="section"):
    for num, line in body:
        if "=" in line:
            k, v = line.split("=", 1)
            if k.strip() == key:
                return num, v.strip()
    if required:
        first = body[0][0] if body else 0
        raise ParseError(first, f"{where} is missing `{key} = ...`")
    return None, None


def _directive_lines(body: list[tuple[int, str]], word: str):
    for num, line in body:
        parts = line.split()
        if parts and parts[0] == word:
            yield num, line[len(word):].strip()


# ---------------------------------------------------------------------------
# section parsers


def _parse_graph(num: int, body: list[tuple[int, str]]) -> Graph:
    vline, vval = _kv(body, "vertices", required=True, where="graph section")
    try:
        nv = int(vval)
    except ValueError:
        raise ParseError(vline, f"vertices must be an integer, got {vval!r}")
    pairs = []
    triples = []
    for lnum, rest in _directive_lines(body, "edge"):
        parts = rest.split()
        if len(parts) != 2:
            raise ParseError(lnum, "edge lines take two endpoints")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(lnum, "edge endpoints must be integers")
    for lnum, rest in _directive_lines(body, "directed"):
        parts = rest.split()
        if len(parts) != 3:
            raise ParseError(lnum, "directed lines take src tgt inv")
        try:
            triples.append((lnum, int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise ParseError(lnum, "directed entries must be integers")
    if pairs and triples:
        raise ParseError(num, "mix of edge and directed lines")
    if triples:
        src = tuple(t[1] for t in triples)
        tgt = tuple(t[2] for t in triples)
        inv = tuple(t[3] for t in triples)
        for lnum, _, _, ebar in triples:
            if not 0 <= ebar < len(triples):
                raise ParseError(lnum, f"inverse index {ebar} out of range")
        try:
            g = Graph(DirectedGraph(nv, src, tgt), inv)
        except ValueError as exc:
            raise SemanticError(str(exc))
        report = validate_graph(g)
        if not report.ok:
            raise SemanticError("; ".join(report.problems))
        return g
    try:
        return build_graph(nv, pairs)
    except ValueError as exc:
        raise SemanticError(str(exc))


def _per_unoriented(body, g: Graph, word: str, what: str) -> list[tuple[int, str]]:
    vals: dict[int, tuple[int, str]] = {}
    for lnum, rest in _directive_lines(body, word):
        if "=" not in rest:
            raise ParseError(lnum, f"{word} lines look like `{word} k = ...`")
        k, v = rest.split("=", 1)
        try:
            idx = int(k)
        except ValueError:
            raise ParseError(lnum, f"{word} index must be an integer")
        if not 0 <= idx < g.num_unoriented:
            raise SemanticError(
                f"line {lnum}: {what} index {idx} outside the "
                f"{g.num_unoriented} unoriented edges")
        if idx in vals:
            raise SemanticError(f"line {lnum}: duplicate {what} for edge {idx}")
        vals[idx] = (lnum, v.strip())
    missing = [str(i) for i in range(g.num_unoriented) if i not in vals]
    if missing:
        raise SemanticError(f"{what} missing for edges {', '.join(missing)}")
    return [vals[i] for i in range(g.num_unoriented)]


def parse_input(text: str) -> InputDocument:
    sections = _scan_sections(text)
    if not sections:
        raise ParseError(1, "no sections found")
    graph: Graph | None = None
    doc_fields: dict = {}
    reps: dict[str, Representation] = {}
    irreducibles: list[tuple[str, int]] = []
    seen_headers: set[str] = set()

    for num, header, body in sections:
        words = header.split()
        name = words[0]
        if name not in ("representation",) and header in seen_headers:
            raise ParseError(num, f"duplicate section {header!r}")
        seen_headers.add(header)
        if name == "graph":
            graph = _parse_graph(num, body)
        elif name in ("weights", "rotation", "voltage", "z2voltage",
                      "zdvoltage", "representation", "irreducibles",
                      "subgroup"):
            if graph is None:
                raise ParseError(num, "graph section must come first")
            if name == "weights":
                _parse_weights(num, body, graph, doc_fields)
            elif name == "rotation":
                doc_fields["rotation"] = _parse_rotation(num, body, graph)
            elif name == "voltage":
                doc_fields["voltage"] = _parse_voltage(num, body)
            elif name == "z2voltage":
                doc_fields["z2_voltages"] = _parse_z2(num, body, graph)
            elif name == "zdvoltage":
                mod, volts = _parse_zd(num, body, graph)
                doc_fields["zd_modulus"] = mod
                doc_fields["zd_voltages"] = volts
            elif name == "representation":
                if len(words) != 2:
                    raise ParseError(num, "representation sections are "
                                          "named: `representation rho:`")
                if words[1] in reps:
                    raise ParseError(num, f"representation {words[1]!r} "
                                          "defined twice")
                reps[words[1]] = _parse_representation(num, body)
            elif name == "irreducibles":
                irreducibles.extend(_parse_irreducibles(body))
            elif name == "subgroup":
                doc_fields["subgroup"] = _parse_subgroup(body)
        else:
            raise ParseError(num, f"unknown section {name!r}")
    if graph is None:
        raise ParseError(sections[0][0], "no graph section")
    doc = InputDocument(graph=graph, representations=reps,
                        irreducibles=irreducibles, **doc_fields)
    for rep_name, _ in doc.irreducibles:
        if rep_name not in reps:
            raise SemanticError(
                f"irreducibles reference unknown representation {rep_name!r}")
    return doc


def _parse_weights(num, body, g: Graph, out: dict) -> None:
    kline, kind = _kv(body, "kind", required=True, where="weights section")
    if kind not in WEIGHT_KINDS:
        raise ParseError(kline, f"weight kind {kind!r} not one of "
                                f"{'/'.join(WEIGHT_KINDS)}")
    out["weights_kind"] = kind
    if kind in ("symbolic", "unit"):
        return
    entries = _per_unoriented(body, g, "value", "weight value")
    vals = tuple(parse_scalar(v, lnum) for lnum, v in entries)
    if kind == "rational" and domain_of(vals) is not QQ:
        raise SemanticError("rational weights contain non-rational values")
    out["weight_values"] = vals


def _parse_rotation(num, body, g: Graph) -> RotationSystem:
    orders: dict[int, tuple[int, ...]] = {}
    for lnum, rest in _directive_lines(body, "at"):
        if "=" not in rest:
            raise ParseError(lnum, "rotation lines look like `at v = e ...`")
        k, v = rest.split("=", 1)
        try:
            vertex = int(k)
            edges = tuple(int(t) for t in v.split())
        except ValueError:
            raise ParseError(lnum, "rotation entries must be integers")
        if vertex in orders:
            raise SemanticError(f"line {lnum}: duplicate rotation at {vertex}")
        orders[vertex] = edges
    missing = [str(v) for v in range(g.num_vertices) if v not in orders]
    if missing:
        raise SemanticError(f"rotation missing at vertices {', '.join(missing)}")
    rot = RotationSystem(tuple(orders[v] for v in range(g.num_vertices)))
    try:
        validate_rotation(g, rot)
    except InvalidRotationError as exc:
        raise SemanticError(str(exc))
    return rot


def _parse_voltage(num, body) -> VoltageAssignment:
    dline, dval = _kv(body, "degree", required=True, where="voltage section")
    try:
        degree = int(dval)
    except ValueError:
        raise ParseError(dline, f"degree must be an integer, got {dval!r}")
    if degree < 1:
        raise SemanticError(f"line {dline}: degree must be positive")
    perms: dict[int, tuple[int, ...]] = {}
    for lnum, rest in _directive_lines(body, "generator"):
        if "=" not in rest:
            raise ParseError(lnum, "generator lines look like "
                                   "`generator k = (cycles)`")
        k, v = rest.split("=", 1)
        try:
            idx = int(k)
        except ValueError:
            raise ParseError(lnum, "generator index must be an integer")
        if idx in perms:
            raise SemanticError(f"line {lnum}: generator {idx} defined twice")
        perms[idx] = parse_cycles(v.strip(), degree, lnum)
    missing = [str(i) for i in range(len(perms)) if i not in perms]
    if missing:
        raise SemanticError(f"voltage generators not contiguous from 0: "
                            f"missing {', '.join(missing)}")
    return VoltageAssignment(degree,
                             tuple(perms[i] for i in range(len(perms))))


def _parse_z2(num, body, g: Graph) -> tuple[tuple[int, int], ...]:
    entries = _per_unoriented(body, g, "edge", "torus voltage")
    per_directed = [(0, 0)] * g.num_edges
    for u, (lnum, v) in enumerate(entries):
        parts = v.split()
        if len(parts) != 2:
            raise ParseError(lnum, "torus voltages take two integers")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lnum, "torus voltages must be integers")
        e, ebar = g.unoriented[u]
        per_directed[e] = (a, b)
        per_directed[ebar] = (-a, -b)
    return tuple(per_directed)


def _parse_zd(num, body, g: Graph) -> tuple[int, tuple[int, ...]]:
    mline, mval = _kv(body, "modulus", required=True, where="zdvoltage section")
    try:
        mod = int(mval)
    except ValueError:
        raise ParseError(mline, f"modulus must be an integer, got {mval!r}")
    if mod < 1:
        raise SemanticError(f"line {mline}: modulus must be positive")
    entries = _per_unoriented(body, g, "edge", "cyclic voltage")
    per_directed = [0] * g.num_edges
    for u, (lnum, v) in enumerate(entries):
        try:
            b = int(v) % mod
        except ValueError:
            raise ParseError(lnum, "cyclic voltages must be integers")
        e, ebar = g.unoriented[u]
        per_directed[e] = b
        per_directed[ebar] = (-b) % mod
    return mod, tuple(per_directed)


def _parse_matrix(rows_text: str, line: int):
    rows = []
    width = None
    for row_text in rows_text.split(";"):
        entries = [parse_scalar(t, line) for t in row_text.split()]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError(line, "matrix rows have unequal lengths")
        rows.append(entries)
    if not rows or width == 0:
        raise ParseError(line, "empty matrix")
    return rows


def _parse_representation(num, body) -> Representation:
    mats: dict[int, tuple[int, list]] = {}
    for lnum, rest in _directive_lines(body, "generator"):
        if "=" not in rest:
            raise ParseError(lnum, "generator lines look like "
                                   "`generator k = a b; c d`")
        k, v = rest.split("=", 1)
        try:
            idx = int(k)
        except ValueError:
            raise ParseError(lnum, "generator index must be an integer")
        if idx in mats:
            raise SemanticError(f"line {lnum}: generator {idx} defined twice")
        mats[idx] = (lnum, _parse_matrix(v.strip(), lnum))
    if not mats:
        raise ParseError(num, "representation has no generator lines")
    missing = [str(i) for i in range(len(mats)) if i not in mats]
    if missing:
        raise SemanticError(f"representation generators not contiguous: "
                            f"missing {', '.join(missing)}")
    all_rows = [mats[i][1] for i in range(len(mats))]
    degree = len(all_rows[0])
    for i, rows in enumerate(all_rows):
        if len(rows) != degree or len(rows[0]) != degree:
            raise SemanticError(
                f"line {mats[i][0]}: generator matrices must all be "
                f"square of one size")
    dom = domain_of([v for rows in all_rows for row in rows for v in row])
    try:
        return representation(
            dom, [Matrix(dom, [[dom.coerce(v) for v in row] for row in rows])
                  for rows in all_rows])
    except (ValueError, ZeroDivisionError) as exc:
        raise SemanticError(f"representation is not invertible: {exc}")


def _parse_irreducibles(body) -> list[tuple[str, int]]:
    out = []
    for lnum, rest in _directive_lines(body, "use"):
        parts = rest.split()
        if len(parts) == 1:
            out.append((parts[0], 1))
        elif len(parts) == 3 and parts[1] == "x":
            try:
                mult = int(parts[2])
            except ValueError:
                raise ParseError(lnum, "multiplicity must be an integer")
            if mult < 1:
                raise SemanticError(f"line {lnum}: multiplicity must be >= 1")
            out.append((parts[0], mult))
        else:
            raise ParseError(lnum, "irreducible lines look like "
                                   "`use rho` or `use rho x 2`")
    return out


def _parse_subgroup(body) -> tuple[tuple[int, ...], ...]:
    elements = []
    degree = None
    for lnum, rest in _directive_lines(body, "element"):
        text = rest[1:].strip() if rest.startswith("=") else rest
        if degree is None:
            dline, dval = _kv(body, "degree", required=True,
                              where="subgroup section")
            try:
                degree = int(dval)
            except ValueError:
                raise ParseError(dline, "subgroup degree must be an integer")
        elements.append(parse_cycles(text, degree, lnum))
    if not elements:
        raise SemanticError("subgroup section lists no elements")
    ident = tuple(range(degree))
    if ident not in elements:
        elements.insert(0, ident)
    return tuple(elements)


# ---------------------------------------------------------------------------
# serialization (the normalization pass)


def serialize_input(doc: InputDocument) -> str:
    g = doc.graph
    out = ["graph:", f"  vertices = {g.num_vertices}"]
    for e in range(g.num_edges):
        out.append(f"  directed {g.src[e]} {g.tgt[e]} {g.inv[e]}")
    out.append("weights:")
    out.append(f"  kind = {doc.weights_kind}")
    if doc.weight_values is not None:
        for i, v in enumerate(doc.weight_values):
            out.append(f"  value {i} = {format_scalar(v)}")
    if doc.rotation is not None:
        out.append("rotation:")
        for v, order in enumerate(doc.rotation.orders):
            out.append(f"  at {v} = " + " ".join(str(e) for e in order))
    if doc.voltage is not None:
        out.append("voltage:")
        out.append(f"  degree = {doc.voltage.degree}")
        for k, p in enumerate(doc.voltage.perms):
            out.append(f"  generator {k} = {format_cycles(p)}")
    if doc.z2_voltages is not None:
        out.append("z2voltage:")
        for u, (e, _) in enumerate(g.unoriented):
            a, b = doc.z2_voltages[e]
            out.append(f"  edge {u} = {a} {b}")
    if doc.zd_voltages is not None:
        out.append("zdvoltage:")
        out.append(f"  modulus = {doc.zd_modulus}")
        for u, (e, _) in enumerate(g.unoriented):
            out.append(f"  edge {u} = {doc.zd_voltages[e]}")
    for name in sorted(doc.representations):
        rep = doc.representations[name]
        out.append(f"representation {name}:")
        for k, m in enumerate(rep.gen_mats):
            rows = "; ".join(" ".join(format_scalar(m[i, j])
                                      for j in range(m.ncols))
                             for i in range(m.nrows))
            out.append(f"  generator {k} = {rows}")
    if doc.irreducibles:
        out.append("irreducibles:")
        for name, mult in doc.irreducibles:
            out.append(f"  use {name}" + (f" x {mult}" if mult != 1 else ""))
    if doc.subgroup is not None:
        out.append("subgroup:")
        out.append(f"  degree = {len(doc.subgroup[0])}")
        for el in doc.subgroup:
            out.append(f"  element {format_cycles(el)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    """Rendered outcome of one command: named checks, data lines, and an
    overall flag.  Byte-stable for exact runs; timing is opt-in."""

    command: str
    checks: list[tuple[str, bool]] = field(default_factory=list)
    data: list[tuple[str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed: float | None = None

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.checks)

    def check(self, name: str, flag: bool) -> None:
        self.checks.append((name, flag))

    def datum(self, key: str, value) -> None:
        if isinstance(value, MultiPoly):
            value = value.to_text()
        self.data.append((key, str(value)))


def render_report(r: Report, show_timing: bool = False) -> str:
    out = [f"command: {r.command}"]
    for note in r.notes:
        out.append(f"note: {note}")
    for name, flag in r.checks:
        out.append(f"check {name}: {'pass' if flag else 'FAIL'}")
    if r.data:
        out.append("data:")
        for k, v in r.data:
            out.append(f"  {k} = {v}")
    if show_timing and r.elapsed is not None:
        out.append(f"elapsed: {r.elapsed:.3f}s")
    out.append(f"result: {'pass' if r.ok else 'FAIL'}")
    return "\n".join(out) + "\n"
