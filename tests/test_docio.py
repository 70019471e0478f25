"""Input document parsing, serialization and report rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertwist.docio import (
    WEIGHT_KINDS,
    InputDocument,
    Report,
    format_cycles,
    format_scalar,
    parse_cycles,
    parse_input,
    parse_scalar,
    render_report,
    serialize_input,
)
from covertwist.domains import root_of_unity
from covertwist.errors import ParseError, SemanticError
from covertwist.graphs import build_graph
from covertwist.poly import MultiPoly, VarRegistry

from builders import gaussian

C3_DOC = """\
graph:
  vertices = 3
  edge 0 1
  edge 1 2
  edge 2 0

weights:
  kind = symbolic
"""


def test_parse_minimal_graph():
    doc = parse_input(C3_DOC)
    assert doc.graph.num_vertices == 3
    assert doc.graph.num_unoriented == 3
    assert doc.weights_kind == "symbolic"


def test_serialize_round_trip():
    doc = parse_input(C3_DOC)
    text = serialize_input(doc)
    again = serialize_input(parse_input(text))
    assert text == again


def test_directed_triple_form():
    doc = parse_input("""\
graph:
  vertices = 2
  directed 0 1 1
  directed 1 0 0

weights:
  kind = unit
""")
    assert doc.graph.num_edges == 2
    assert doc.graph.inv == (1, 0)


def test_mixed_edge_forms_rejected():
    with pytest.raises(ParseError):
        parse_input("""\
graph:
  vertices = 2
  edge 0 1
  directed 0 1 3
""")


def test_involution_typo_rejected():
    # a self-paired directed edge is a semantic error, not a crash
    with pytest.raises(SemanticError):
        parse_input("""\
graph:
  vertices = 2
  directed 0 1 0
  directed 1 0 1

weights:
  kind = unit
""")


def test_content_before_first_section():
    with pytest.raises(ParseError):
        parse_input("vertices = 3\ngraph:\n")


def test_duplicate_section_rejected():
    with pytest.raises(ParseError):
        parse_input(C3_DOC + "\nweights:\n  kind = unit\n")


def test_rational_weight_values():
    doc = parse_input("""\
graph:
  vertices = 2
  edge 0 1

weights:
  kind = rational
  value 0 = -3/7
""")
    assert doc.weight_values == (Fraction(-3, 7),)


def test_missing_weight_value_rejected():
    with pytest.raises(SemanticError):
        parse_input("""\
graph:
  vertices = 2
  edge 0 1
  edge 0 1

weights:
  kind = rational
  value 0 = 1
""")


def test_voltage_section():
    doc = parse_input(C3_DOC + """
voltage:
  degree = 2
  generator 0 = (0 1)
""")
    assert doc.voltage.degree == 2
    assert doc.voltage.perms == ((1, 0),)


def test_z2_voltage_antisymmetrized():
    doc = parse_input("""\
graph:
  vertices = 1
  edge 0 0
  edge 0 0

weights:
  kind = unit

z2voltage:
  edge 0 = 1 0
  edge 1 = 0 1
""")
    assert doc.abelian_voltages == ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert doc.moduli is None


def test_zd_voltage_negates_mod_d():
    doc = parse_input("""\
graph:
  vertices = 2
  edge 0 1

weights:
  kind = unit

zdvoltage:
  modulus = 3
  edge 0 = 1
""")
    assert doc.moduli == (3,)
    assert doc.abelian_voltages == ((1,), (2,))


def test_representation_gaussian_entries():
    doc = parse_input(C3_DOC + """
representation rho:
  generator 0 = 0 -i; i 0
""")
    rho = doc.representations["rho"]
    assert rho.degree == 2
    m = rho.gen_mats[0]
    assert m[0, 1] == gaussian(0, -1)


def test_representation_must_be_invertible():
    with pytest.raises(SemanticError):
        parse_input(C3_DOC + """
representation rho:
  generator 0 = 1 1; 1 1
""")


def test_subgroup_section():
    doc = parse_input(C3_DOC + """
voltage:
  degree = 4
  generator 0 = (0 1 2 3)

subgroup:
  degree = 4
  element (0 2)(1 3)
""")
    assert len(doc.subgroup) == 2  # the identity is implied
    assert (2, 3, 0, 1) in doc.subgroup


RATIONAL_TEXTS = ("1", "-1", "2", "-3/2", "0.5", "1e-3", "7/3")
COMPLEX_TEXTS = ("i", "-2+i", "1/2*zeta_5^2-zeta_5^3", "zeta_3", "1.5-0.5j")


def shuffled(draw, lines):
    """The lines in a drawn order: indexed lines may come in any."""
    return [lines[k] for k in draw(st.permutations(range(len(lines))))]


@st.composite
def documents(draw):
    """(text, voltage degree and permutations, abelian voltages per
    directed edge, moduli) of a document with every section kind."""
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=5))
    g = build_graph(n, pairs)
    m = len(pairs)
    lines = ["graph:", f"  vertices = {n}"]
    lines += [f"  edge {a} {b}" for a, b in pairs]
    kind = draw(st.sampled_from(WEIGHT_KINDS))
    lines += ["weights:", f"  kind = {kind}"]
    if kind in ("rational", "complex"):
        pool = RATIONAL_TEXTS + (COMPLEX_TEXTS if kind == "complex" else ())
        lines += shuffled(draw, [f"  value {k} = {draw(st.sampled_from(pool))}"
                                 for k in range(m)])
    lines.append("rotation:")
    lines += shuffled(draw, [
        f"  at {v} = " + " ".join(map(str, draw(st.permutations(
            g.out_edges[v])))) for v in range(n)])

    degree = draw(st.integers(1, 4))
    perms = tuple(tuple(p) for p in draw(
        st.lists(st.permutations(range(degree)), max_size=3)))
    lines += ["voltage:", f"  degree = {degree}"]
    lines += shuffled(draw, [f"  generator {k} = {format_cycles(p)}"
                             for k, p in enumerate(perms)])

    voltages = [()] * g.num_edges
    if draw(st.booleans()):
        moduli = (draw(st.integers(1, 6)),)
        lines += ["zdvoltage:", f"  modulus = {moduli[0]}"]
        arity = 1
    else:
        moduli = None
        lines.append("z2voltage:")
        arity = 2
    edge_lines = []
    for u, (e, ebar) in enumerate(g.unoriented):
        vec = tuple(draw(st.lists(st.integers(-20, 20), min_size=arity,
                                  max_size=arity)))
        edge_lines.append(f"  edge {u} = " + " ".join(map(str, vec)))
        back = tuple(-a for a in vec)
        if moduli is not None:
            vec = tuple(a % moduli[0] for a in vec)
            back = tuple(a % moduli[0] for a in back)
        voltages[e], voltages[ebar] = vec, back
    lines += shuffled(draw, edge_lines)

    names = draw(st.lists(st.sampled_from(("rho", "sigma", "tau")),
                          min_size=1, max_size=3, unique=True))
    for name in names:
        size = draw(st.integers(1, 2))
        lines.append(f"representation {name}:")
        gens = []
        for k in range(draw(st.integers(1, 2))):
            # a monomial matrix: invertible, over QQ or a cyclotomic field
            cols = draw(st.permutations(range(size)))
            rows = [" ".join(draw(st.sampled_from(RATIONAL_TEXTS[:5]
                                                  + COMPLEX_TEXTS))
                             if j == cols[i] else "0" for j in range(size))
                    for i in range(size)]
            gens.append(f"  generator {k} = " + "; ".join(rows))
        lines += shuffled(draw, gens)
    lines.append("irreducibles:")
    for name in names:
        mult = draw(st.integers(1, 3))
        lines.append(f"  use {name}" + (f" x {mult}" if mult > 1 else ""))

    sub_degree = draw(st.integers(1, 4))
    lines += ["subgroup:", f"  degree = {sub_degree}"]
    lines += [f"  element {format_cycles(tuple(p))}" for p in draw(
        st.lists(st.permutations(range(sub_degree)), min_size=1,
                 max_size=3))]
    return ("\n".join(lines) + "\n", (degree, perms), tuple(voltages),
            moduli)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(documents())
def test_serialization_round_trips(case):
    text, voltage, voltages, moduli = case
    doc = parse_input(text)
    once = serialize_input(doc)
    again = parse_input(once)
    assert serialize_input(again) == once
    for d in (doc, again):
        assert (d.voltage.degree, d.voltage.perms) == voltage
        assert (d.abelian_voltages, d.moduli) == (voltages, moduli)


def test_one_abelian_voltage_section():
    # a zdvoltage and a z2voltage in one document: the second is refused
    # at its header
    text = C3_DOC + """zdvoltage:
  modulus = 3
  edge 0 = 1
  edge 1 = 0
  edge 2 = 0
z2voltage:
  edge 0 = 1 0
  edge 1 = 0 1
  edge 2 = 0 0
"""
    with pytest.raises(ParseError) as exc:
        parse_input(text)
    assert exc.value.line == 14


# ---------------------------------------------------------------------------
# scalars


def test_parse_scalar_table():
    assert parse_scalar("5", 1) == 5
    assert parse_scalar("-2/3", 1) == Fraction(-2, 3)
    assert parse_scalar("1+2i", 1) == gaussian(1, 2)
    assert parse_scalar("-i", 1) == gaussian(0, -1)
    assert parse_scalar("1/2-1/3i", 1) == gaussian(Fraction(1, 2),
                                                   Fraction(-1, 3))
    # decimals read exactly, and j reads as i
    assert parse_scalar("2.5+0.5j", 1) == gaussian(Fraction(5, 2),
                                                   Fraction(1, 2))
    assert parse_scalar("0.1", 1) == Fraction(1, 10)
    assert parse_scalar("1e999", 1) == 10 ** 999
    assert parse_scalar("-2.5E-1", 1) == Fraction(-1, 4)
    z5 = root_of_unity(5)
    assert parse_scalar("1/2*zeta_5^2-zeta_5^3", 1) == (
        Fraction(1, 2) * z5 ** 2 - z5 ** 3)
    assert parse_scalar("zeta_5^-1", 1) == z5 ** 4
    assert parse_scalar("zeta_6^3", 1) == -1
    assert parse_scalar("zeta_4", 1) == gaussian(0, 1)
    assert parse_scalar("1+i+zeta_3", 1) == 1 + gaussian(0, 1) + (
        root_of_unity(3))


def test_parse_scalar_rejects_garbage():
    with pytest.raises(ParseError):
        parse_scalar("spam", 3)
    with pytest.raises(ParseError):
        parse_scalar("1/0", 3)
    for text in ("nan", "inf", "-inf", "nanj", "1+infj", "Infinity",
                 "1e5000", "*i", "zeta_0", "zeta_5^", "2*-zeta_5"):
        with pytest.raises(ParseError):
            parse_scalar(text, 3)


def test_format_scalar_round_trips():
    z = root_of_unity(12)
    for v in (5, Fraction(-2, 3), gaussian(1, -1),
              gaussian(0, 1), gaussian(Fraction(1, 2), 3),
              root_of_unity(5), -Fraction(1, 3) * z ** 3 + 2 * z - 7,
              root_of_unity(7, 3) - Fraction(5, 2)):
        text = format_scalar(v)
        assert " " not in text   # matrix entries split at spaces
        assert parse_scalar(text, 1) == v


# The QQ(i) text of every report: no golden report holds a nonreal
# value, so this table is what pins it.  Each row is (re, im, text).
GAUSSIAN_TEXT = [
    (0, 1, "i"), (0, -1, "-i"), (0, Fraction(1, 2), "1/2i"),
    (0, Fraction(-1, 2), "-1/2i"), (0, 2, "2i"),
    (1, 1, "1+i"), (1, -1, "1-i"), (1, Fraction(1, 2), "1+1/2i"),
    (1, Fraction(-1, 2), "1-1/2i"), (1, 2, "1+2i"),
    (-1, 1, "-1+i"), (-1, -1, "-1-i"), (-1, Fraction(1, 2), "-1+1/2i"),
    (-1, Fraction(-1, 2), "-1-1/2i"), (-1, 2, "-1+2i"),
    (Fraction(1, 2), 1, "1/2+i"), (Fraction(1, 2), -1, "1/2-i"),
    (Fraction(1, 2), Fraction(1, 2), "1/2+1/2i"),
    (Fraction(1, 2), Fraction(-1, 2), "1/2-1/2i"),
    (Fraction(1, 2), 2, "1/2+2i"),
    (3, 1, "3+i"), (3, -1, "3-i"), (3, Fraction(1, 2), "3+1/2i"),
    (3, Fraction(-1, 2), "3-1/2i"), (3, 2, "3+2i"),
]


def test_gaussian_text_table():
    reg = VarRegistry(("x",))
    x = MultiPoly.variable(reg, "x")
    values = [gaussian(re, im) for re, im, _ in GAUSSIAN_TEXT]
    for v, (_, _, text) in zip(values, GAUSSIAN_TEXT):
        assert str(v) == text
        assert format_scalar(v) == text
        # polynomial text parenthesizes every nonreal coefficient
        assert MultiPoly.const(reg, v).to_text() == f"({text})"
        assert (v * x).to_text() == f"({text})*x"
    # a real value of QQ(i) is a rational, and prints as one
    assert format_scalar(gaussian(2, 0)) == "2"
    assert MultiPoly.const(reg, gaussian(2, 0)).to_text() == "2"
    # the normalized document writes each weight as its text, and
    # parse_scalar reads it back
    doc = InputDocument(build_graph(2, [(0, 1)] * len(values)),
                        weights_kind="complex", weight_values=tuple(values))
    lines = [line for line in serialize_input(doc).splitlines()
             if line.startswith("  value ")]
    assert lines == [f"  value {k} = {text}"
                     for k, (_, _, text) in enumerate(GAUSSIAN_TEXT)]
    for line, v in zip(lines, values):
        assert parse_scalar(line.split(" = ")[1], 1) == v


# ---------------------------------------------------------------------------
# cycle notation


def test_parse_cycles():
    assert parse_cycles("(0 1)(2 3)", 4, 1) == (1, 0, 3, 2)
    assert parse_cycles("()", 3, 1) == (0, 1, 2)
    assert parse_cycles("(1 2 0)", 3, 1) == (1, 2, 0)


def test_parse_cycles_reused_point():
    with pytest.raises(SemanticError):
        parse_cycles("(0 1)(1 2)", 3, 1)


def test_parse_cycles_out_of_range():
    with pytest.raises(SemanticError):
        parse_cycles("(0 5)", 3, 1)


def test_format_cycles_round_trips():
    for p in ((1, 0, 3, 2), (0, 1, 2), (2, 0, 1), (1, 2, 3, 0)):
        assert parse_cycles(format_cycles(p), len(p), 1) == p


# ---------------------------------------------------------------------------
# reports


def test_report_rendering():
    r = Report("demo")
    r.check("first law", True)
    r.check("second law", False)
    r.datum("count", 3)
    out = render_report(r)
    assert "command: demo" in out
    assert "first law: pass" in out
    assert "second law: FAIL" in out
    assert "count = 3" in out
    assert out.strip().endswith("result: FAIL")
    assert not r.ok


def test_report_timing_line_optional():
    r = Report("demo")
    r.check("law", True)
    assert "elapsed" not in render_report(r)
    r.elapsed = 0.25
    assert "elapsed" in render_report(r, show_timing=True)
