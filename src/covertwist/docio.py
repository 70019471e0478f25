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
(read as the fractions they name), and cyclotomic values, sums of
rational multiples of the roots of unity zeta_N = e^(2*pi*i/N):
`1/2*zeta_5^2-zeta_5^3`, or for N = 4 the gaussian `a+b*i` (or `a+b*j`),
which is also how they print.  Serialization normalizes every section,
and parsing its own output reproduces the document.
"""

from __future__ import annotations

from fractions import Fraction

from .covering import VoltageAssignment
from .domains import QQ, _norm_rat, domain_of, root_of_unity
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


class InputDocument:
    """Parsed problem statement: one graph plus optional twist data.

    An abelian voltage section (`z2voltage` or `zdvoltage`, at most one)
    is kept in the form edge_voltage_cover takes: abelian_voltages holds
    one integer vector per directed edge, and moduli is (N,) for
    `zdvoltage` and None for `z2voltage`, whose torus the command line
    gives."""

    def __init__(self, graph: Graph, weights_kind: str = "symbolic",
                 weight_values: tuple | None = None,
                 rotation: RotationSystem | None = None,
                 voltage: VoltageAssignment | None = None,
                 abelian_voltages: tuple[tuple[int, ...], ...] | None = None,
                 moduli: tuple[int, ...] | None = None,
                 representations: dict[str, Representation] | None = None,
                 irreducibles: list[tuple[str, int]] | None = None,
                 subgroup: tuple[tuple[int, ...], ...] | None = None):
        self.graph = graph
        self.weights_kind = weights_kind
        self.weight_values = weight_values
        self.rotation = rotation
        self.voltage = voltage
        self.abelian_voltages = abelian_voltages
        self.moduli = moduli
        self.representations = ({} if representations is None
                                else representations)
        self.irreducibles = [] if irreducibles is None else irreducibles
        self.subgroup = subgroup


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
    """An exact scalar: int, Fraction or Cyclotomic.

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
        coef, unit = t[:-1], root_of_unity(4)
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


class _Body(list):
    """The (line number, text) pairs of one section's content lines, and
    the numbers of the lines that its parser has read (`used`): _kv
    marks the first line of its key, _directive_lines every line of its
    word."""

    def __init__(self):
        super().__init__()
        self.used: set[int] = set()


def _check_consumed(header: str, body: _Body) -> None:
    """Every content line of a section must have been read by its
    parser: a misspelt directive, a stray value or a repeated key would
    otherwise be dropped without a word."""
    for num, line in body:
        if num not in body.used:
            raise ParseError(num, f"unrecognized line in the {header} "
                                  f"section: {line!r}")


def _scan_sections(text: str) -> list[tuple[int, str, _Body]]:
    sections = []
    current: _Body | None = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if not raw[0].isspace() and stripped.endswith(":"):
            header = stripped[:-1].strip()
            if not header:
                raise ParseError(num, "empty section header")
            current = _Body()
            sections.append((num, header, current))
        else:
            if current is None:
                raise ParseError(num, "content before the first section")
            current.append((num, stripped))
    return sections


def _kv(body: _Body, key: str, *, required=False, where="section"):
    for num, line in body:
        if "=" in line:
            k, v = line.split("=", 1)
            if k.strip() == key:
                body.used.add(num)
                return num, v.strip()
    if required:
        first = body[0][0] if body else 0
        raise ParseError(first, f"{where} is missing `{key} = ...`")
    return None, None


def _directive_lines(body: _Body, word: str):
    for num, line in body:
        parts = line.split()
        if parts and parts[0] == word:
            body.used.add(num)
            yield num, line[len(word):].strip()


def _positive(body: _Body, key: str, where: str) -> int:
    """The value of the required `key = n` line: a positive integer."""
    line, text = _kv(body, key, required=True, where=where)
    try:
        value = int(text)
    except ValueError:
        raise ParseError(line, f"{key} must be an integer, got {text!r}")
    if value < 1:
        raise SemanticError(f"line {line}: {key} must be positive")
    return value


def _indexed_lines(body: _Body, word: str,
                   count: int | None = None) -> list[tuple[int, str]]:
    """The (line number, text) of each `word k = text` line, in index
    order: every k an integer, given once, and together 0..count-1, or
    without a count contiguous from 0.  A missing index is named by the
    least one."""
    found: dict[int, tuple[int, str]] = {}
    for lnum, rest in _directive_lines(body, word):
        k, eq, text = rest.partition("=")
        if not eq:
            raise ParseError(lnum, f"{word} lines look like `{word} k = ...`")
        try:
            idx = int(k)
        except ValueError:
            raise ParseError(lnum, f"{word} index must be an integer")
        if idx in found:
            raise SemanticError(f"line {lnum}: {word} index {idx} given twice")
        found[idx] = (lnum, text.strip())
    n = len(found) if count is None else count
    for idx, (lnum, _) in found.items():
        if not 0 <= idx < n:
            raise SemanticError(
                f"line {lnum}: {word} index {idx} outside 0..{n - 1}")
    if len(found) < n:
        # the least missing index is at most len(found): no walk over a
        # count of 10^12 vertices
        k = next(i for i in range(n) if i not in found)
        raise SemanticError(f"no `{word} k = ...` line for k = {k}")
    return [found[i] for i in range(n)]


# ---------------------------------------------------------------------------
# section parsers


def _parse_graph(num: int, body: _Body) -> Graph:
    nv = _positive(body, "vertices", "graph section")
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
                _parse_weights(body, graph, doc_fields)
            elif name == "rotation":
                doc_fields["rotation"] = _parse_rotation(body, graph)
            elif name == "voltage":
                doc_fields["voltage"] = _parse_voltage(body)
            elif name in ("z2voltage", "zdvoltage"):
                if "abelian_voltages" in doc_fields:
                    raise ParseError(num, "a document takes one abelian "
                                          "voltage section, z2voltage or "
                                          "zdvoltage")
                (doc_fields["abelian_voltages"],
                 doc_fields["moduli"]) = _parse_abelian(name, body, graph)
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
        _check_consumed(header, body)
    if graph is None:
        raise ParseError(sections[0][0], "no graph section")
    doc = InputDocument(graph=graph, representations=reps,
                        irreducibles=irreducibles, **doc_fields)
    for rep_name, _ in doc.irreducibles:
        if rep_name not in reps:
            raise SemanticError(
                f"irreducibles reference unknown representation {rep_name!r}")
    return doc


def _parse_weights(body, g: Graph, out: dict) -> None:
    kline, kind = _kv(body, "kind", required=True, where="weights section")
    if kind not in WEIGHT_KINDS:
        raise ParseError(kline, f"weight kind {kind!r} not one of "
                                f"{'/'.join(WEIGHT_KINDS)}")
    out["weights_kind"] = kind
    if kind in ("symbolic", "unit"):
        return
    vals = tuple(parse_scalar(v, lnum) for lnum, v
                 in _indexed_lines(body, "value", g.num_unoriented))
    if kind == "rational" and domain_of(vals) is not QQ:
        raise SemanticError("rational weights contain non-rational values")
    out["weight_values"] = vals


def _parse_rotation(body, g: Graph) -> RotationSystem:
    orders = []
    for lnum, v in _indexed_lines(body, "at", g.num_vertices):
        try:
            orders.append(tuple(int(t) for t in v.split()))
        except ValueError:
            raise ParseError(lnum, "rotation entries must be integers")
    rot = RotationSystem(tuple(orders))
    try:
        validate_rotation(g, rot)
    except InvalidRotationError as exc:
        raise SemanticError(str(exc))
    return rot


def _parse_voltage(body) -> VoltageAssignment:
    degree = _positive(body, "degree", "voltage section")
    return VoltageAssignment(degree, tuple(
        parse_cycles(v, degree, lnum)
        for lnum, v in _indexed_lines(body, "generator")))


def _parse_abelian(name: str, body, g: Graph
                   ) -> tuple[tuple[tuple[int, ...], ...], tuple[int] | None]:
    """(one voltage vector per directed edge, moduli) of a `zdvoltage`
    section, whose `modulus = N` gives moduli (N,) and whose voltages
    are read mod N, or of a `z2voltage` section, two integers per edge
    and moduli None.  Reverse edges get the negated vector."""
    if name == "zdvoltage":
        moduli = (_positive(body, "modulus", "zdvoltage section"),)
        arity, form = 1, "one integer"
    else:
        moduli, arity, form = None, 2, "two integers"

    def reduced(vec):
        if moduli is None:
            return vec
        return tuple(a % m for a, m in zip(vec, moduli))

    per_directed: list[tuple[int, ...]] = [()] * g.num_edges
    for u, (lnum, v) in enumerate(_indexed_lines(body, "edge",
                                                 g.num_unoriented)):
        try:
            vec = tuple(int(t) for t in v.split())
        except ValueError:
            vec = ()
        if len(vec) != arity:
            raise ParseError(lnum, f"a {name} voltage is {form}")
        e, ebar = g.unoriented[u]
        per_directed[e] = reduced(vec)
        per_directed[ebar] = reduced(tuple(-a for a in vec))
    return tuple(per_directed), moduli


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
    entries = _indexed_lines(body, "generator")
    if not entries:
        raise ParseError(num, "representation has no generator lines")
    all_rows = [_parse_matrix(v, lnum) for lnum, v in entries]
    degree = len(all_rows[0])
    for (lnum, _), rows in zip(entries, all_rows):
        if len(rows) != degree or len(rows[0]) != degree:
            raise SemanticError(
                f"line {lnum}: generator matrices must all be "
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
    lines = list(_directive_lines(body, "element"))
    if not lines:
        raise SemanticError("subgroup section lists no elements")
    degree = _positive(body, "degree", "subgroup section")
    elements = [parse_cycles(rest[1:].strip() if rest.startswith("=")
                             else rest, degree, lnum)
                for lnum, rest in lines]
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
    if doc.abelian_voltages is not None:
        if doc.moduli is None:
            out.append("z2voltage:")
        else:
            out += ["zdvoltage:", f"  modulus = {doc.moduli[0]}"]
        for u, (e, _) in enumerate(g.unoriented):
            out.append(f"  edge {u} = "
                       + " ".join(str(a) for a in doc.abelian_voltages[e]))
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


class Report:
    """Rendered outcome of one command: named checks, data lines, and an
    overall flag.  Byte-stable for exact runs; timing is opt-in."""

    def __init__(self, command: str,
                 checks: list[tuple[str, bool]] | None = None,
                 data: list[tuple[str, str]] | None = None,
                 notes: list[str] | None = None, elapsed: float | None = None):
        self.command = command
        self.checks = [] if checks is None else checks
        self.data = [] if data is None else data
        self.notes = [] if notes is None else notes
        self.elapsed = elapsed

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
