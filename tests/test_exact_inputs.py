"""Every scalar a document holds is exact.

Decimals and exponents read as the fractions they name, j reads as i,
and zeta_N terms name cyclotomic numbers.  nan and inf are not numbers:
each of the 14 subcommands rejects them, as weights and as
representation entries, with exit 2 and a message.  Inputs that once
took a floating branch now certify exactly, and the inputs that would
start an unbounded computation stop at a budget with exit 3.
"""

import time

import pytest

from covertwist import certificates, cli
from covertwist.cli import main

COMMANDS = sorted(cli._HANDLERS)
NON_NUMBERS = ("nan", "inf", "-inf", "nanj", "1+infj")

# a triangle with a ℤ/3 voltage, whose characters take Q(ζ_3), and a
# representation of its rank-1 loop group
TRIANGLE = """graph:
  vertices = 3
  edge 0 1
  edge 1 2
  edge 2 0
weights:
  kind = {kind}
  value 0 = {w0}
  value 1 = {w1}
  value 2 = {w2}
voltage:
  degree = 3
  generator 0 = (0 1 2)
representation rho:
  generator 0 = {entry}
"""


def run(tmp_path, capsys, text, *argv):
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    code = main([argv[0], "--input", str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def triangle(kind="rational", w0="1", w1="2", w2="3", entry="zeta_3"):
    return TRIANGLE.format(kind=kind, w0=w0, w1=w1, w2=w2, entry=entry)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("where", ["weight", "entry"])
@pytest.mark.parametrize("text", NON_NUMBERS)
def test_non_numbers_are_rejected_by_every_command(tmp_path, capsys,
                                                   command, where, text):
    doc = (triangle(kind="complex", w1=text) if where == "weight"
           else triangle(entry=text))
    code, out, err = run(tmp_path, capsys, doc, command)
    assert code == 2
    assert out == ""
    assert f"bad number {text!r}" in err


def double_cover(doc: str) -> str:
    return doc.replace("degree = 3\n  generator 0 = (0 1 2)",
                       "degree = 2\n  generator 0 = (0 1)")


@pytest.mark.parametrize("command", ["cor1", "trees"])
def test_decimals_certify_exactly(tmp_path, capsys, command):
    # the same report as with the fractions written out
    code, out, _ = run(tmp_path, capsys,
                       double_cover(triangle(w0="1e999", w1="0.1")), command)
    assert code == 0 and "result: pass" in out
    code, want, _ = run(tmp_path, capsys, double_cover(
        triangle(w0="1" + "0" * 999, w1="1/10")), command)
    assert code == 0 and out == want


def test_report_values_past_the_digit_limit_exceed_a_budget(tmp_path,
                                                            capsys):
    code, out, err = run(tmp_path, capsys,
                         triangle(w0="1e999", w1="1e999", w2="1e999"),
                         "cor1")
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err


@pytest.mark.parametrize("command", ["cor2", "zeta-lseries", "zeta-amitsur"])
def test_complex_weights_certify_exactly(tmp_path, capsys, command):
    doc = triangle(kind="complex", w0="2.5+0.5j", w2="-0.5j")
    code, out, _ = run(tmp_path, capsys, doc, command)
    assert code == 0 and "result: pass" in out
    code, want, _ = run(tmp_path, capsys,
                        triangle(kind="complex", w0="5/2+1/2*i", w2="-1/2*i"),
                        command)
    assert out == want


def test_rational_weights_accept_decimals(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, triangle(w0="2.5"), "validate")
    assert code == 0 and "result: pass" in out
    code, out, err = run(tmp_path, capsys, triangle(w0="2.5+i"), "validate")
    assert code == 2 and "non-rational" in err


def test_cyclotomic_entries_round_trip(tmp_path, capsys):
    doc = triangle(entry="1/2*zeta_5^2-zeta_5^3")
    code, out, _ = run(tmp_path, capsys, doc, "validate")
    assert code == 0 and "check serialization stable: pass" in out
    # an entry must be invertible: 1 - zeta_6 is, 0 is not
    code, _, _ = run(tmp_path, capsys, triangle(entry="1-zeta_6"),
                     "zeta-lseries")
    assert code == 0
    code, _, err = run(tmp_path, capsys, triangle(entry="zeta_3-zeta_3"),
                       "zeta-lseries")
    assert code == 2 and "not invertible" in err


def test_cyclotomic_orders_past_the_budget_exit_three(tmp_path, capsys):
    t0 = time.perf_counter()
    code, _, err = run(tmp_path, capsys,
                       triangle(entry="zeta_97+zeta_89"), "validate")
    assert code == 3 and "budget" in err
    assert time.perf_counter() - t0 < 1.0


KOS = "sample_inputs/kos_b2.txt"


def test_kos_order_budget_fires_before_the_cover(capsys, monkeypatch):
    # the order-3600 cover determinant is charged before its kernel runs,
    # and before any of the 3600 character-twisted factors over Q(ζ_60)
    monkeypatch.setattr(certificates, "root_of_unity",
                        lambda *a: pytest.fail("a factor was formed"))
    t0 = time.perf_counter()
    code = main(["kos", "--input", KOS, "--m", "60", "--n", "60"])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("error: budget exceeded: work budget exceeded "
                            "in charpoly_multimodular\n")
    monkeypatch.undo()
    # Q(ζ_380) is past the cyclotomic order budget: that stops the run
    # before any factor, and before the cover is built
    t0 = time.perf_counter()
    assert main(["kos", "--input", KOS, "--m", "19", "--n", "20"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "budget" in capsys.readouterr().err
    assert main(["kos", "--input", KOS, "--m", "3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "cover determinant = 64" in out
    assert "character product = 64" in out
