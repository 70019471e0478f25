"""Input document parsing, serialization and report rendering."""

from fractions import Fraction

import pytest

from covertwist.docio import (
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
    a = doc.z2_voltages
    assert a[0] == (1, 0)
    assert a[1] == (-1, 0)
    assert a[2] == (0, 1)
    assert a[3] == (0, -1)


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
    assert doc.zd_modulus == 3
    assert doc.zd_voltages == (1, 2)


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
