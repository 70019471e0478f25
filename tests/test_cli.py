"""Exit codes and report stability for the command line driver."""

import os
import subprocess
import sys

import pytest

import covertwist
from covertwist import cli
from covertwist.cli import main

SAMPLES = "sample_inputs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(capsys):
    code, out, err = run(capsys, "validate", "--input", f"{SAMPLES}/c3.txt")
    assert code == 0
    assert "result: pass" in out
    assert err == ""


def test_missing_file(capsys):
    code, out, err = run(capsys, "validate", "--input", "no/such/file.txt")
    assert code == 2
    assert err != ""


def test_missing_input_flag(capsys):
    code, out, err = run(capsys, "validate")
    assert code == 2


def test_intransitive_cover_is_input_error(capsys):
    code, out, err = run(capsys, "cover", "--input",
                         f"{SAMPLES}/intransitive.txt")
    assert code == 2
    assert "disconnected" in err


def test_verify_main_identity_cover(capsys):
    code, out, _ = run(capsys, "verify-main", "--input",
                       f"{SAMPLES}/identity_cover.txt")
    assert code == 0
    assert "result: pass" in out


def test_verify_main_c3(capsys):
    code, out, _ = run(capsys, "verify-main", "--input", f"{SAMPLES}/c3.txt")
    assert code == 0


def test_trees_c3(capsys):
    code, out, _ = run(capsys, "trees", "--input", f"{SAMPLES}/c3.txt")
    assert code == 0
    assert "quotient" in out


def test_cor1_c3(capsys):
    code, out, _ = run(capsys, "cor1", "--input", f"{SAMPLES}/c3.txt")
    assert code == 0


def test_cor2_c3(capsys):
    code, out, _ = run(capsys, "cor2", "--input", f"{SAMPLES}/c3.txt")
    assert code == 0


def test_dimer_fixture(capsys):
    code, out, _ = run(capsys, "dimer", "--input", f"{SAMPLES}/dimer_c4.txt")
    assert code == 0


def test_kos_fixture(capsys):
    code, out, _ = run(capsys, "kos", "--input", f"{SAMPLES}/kos_b2.txt",
                       "--m", "3", "--n", "3")
    assert code == 0


def test_artin_fixture(capsys):
    code, out, _ = run(capsys, "artin-axioms", "--input",
                       f"{SAMPLES}/artin_b2.txt")
    assert code == 0
    assert "induction" in out


def test_zeta_lseries(capsys):
    code, out, _ = run(capsys, "zeta-lseries", "--input", f"{SAMPLES}/c3.txt")
    assert code == 0


def test_zeta_amitsur_budget(capsys):
    code, out, err = run(capsys, "zeta-amitsur", "--input",
                         f"{SAMPLES}/c3.txt", "--max-length", "13")
    assert code == 3


def test_zeta_amitsur_pass(capsys):
    code, out, _ = run(capsys, "zeta-amitsur", "--input", f"{SAMPLES}/c3.txt",
                       "--max-length", "4")
    assert code == 0
    assert "prime count = 2" in out


def test_oracle_commands(capsys):
    for cmd in ("oracle-trees", "oracle-forests", "oracle-matchings"):
        code, out, _ = run(capsys, cmd, "--input", f"{SAMPLES}/dimer_c4.txt")
        assert code == 0, cmd


def test_suite_mode_runs_without_input(capsys):
    code, out, _ = run(capsys, "verify-main", "--seed", "7", "--count", "3")
    assert code == 0
    assert "randomized suite" in out


def test_trees_suite_mode(capsys):
    code, out, _ = run(capsys, "trees", "--seed", "3", "--count", "2")
    assert code == 0


def test_report_bytes_stable(capsys):
    a = run(capsys, "trees", "--input", f"{SAMPLES}/c3.txt")
    b = run(capsys, "trees", "--input", f"{SAMPLES}/c3.txt")
    assert a == b


def test_falsification_exits_one(tmp_path, capsys):
    # two copies of the trivial character cannot factor a double cover
    doc = (open(f"{SAMPLES}/c3.txt").read()
           + "\nrepresentation one:\n  generator 0 = 1\n"
           + "\nirreducibles:\n  use one x 2\n")
    path = tmp_path / "bad_irreducibles.txt"
    path.write_text(doc)
    code, out, _ = run(capsys, "cor2", "--input", str(path))
    assert code == 1
    assert "FAIL" in out


def test_timing_flag_adds_elapsed(capsys):
    code, out, _ = run(capsys, "validate", "--input", f"{SAMPLES}/c3.txt",
                       "--timing")
    assert code == 0
    assert "elapsed" in out


CHORD_TRIANGLE = """graph:
  vertices = 3
  edge 0 1
  edge 1 2
  edge 2 0
  edge 0 2
weights:
  kind = rational
{values}voltage:
  degree = 2
  generator 0 = (0 1)
  generator 1 = ()
"""


@pytest.mark.parametrize("weights", [("1/2", "3", "2", "1"),
                                     ("1/2",) * 4])
@pytest.mark.parametrize("command", ["cor1", "trees"])
def test_non_integer_weights_claim_no_integrality(tmp_path, capsys,
                                                  weights, command):
    values = "".join(f"  value {i} = {w}\n" for i, w in enumerate(weights))
    path = tmp_path / "chord_triangle.txt"
    path.write_text(CHORD_TRIANGLE.format(values=values))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, err) == (0, "")
    assert "FAIL" not in out
    assert "integer coefficients: not claimed for non-integer weights" in out
    if command == "cor1" and weights[1] == "3":
        assert "quotient = lambda^3 - 73/4*lambda + 9" in out


def test_zeta_lseries_untwisted_off_a_cycle(tmp_path, capsys):
    # a 4-cycle with chord 0 2: the line digraph has 10 vertices, 16 arcs
    doc = ("graph:\n  vertices = 4\n  edge 0 1\n  edge 1 2\n  edge 2 3\n"
           "  edge 3 0\n  edge 0 2\nweights:\n  kind = unit\n")
    plain = tmp_path / "theta.txt"
    plain.write_text(doc)
    trivial = tmp_path / "theta_trivial.txt"
    trivial.write_text(doc + "representation rho:\n  generator 0 = 1\n"
                             "  generator 1 = 1\n")
    code, out, err = run(capsys, "zeta-lseries", "--input", str(plain))
    assert (code, err) == (0, "")
    code_t, out_t, _ = run(capsys, "zeta-lseries", "--input", str(trivial))
    assert code_t == 0
    assert out == out_t
    assert "reciprocal series = -4*u^10 + u^8 + 4*u^7" in out


@pytest.mark.parametrize("kind", ["symbolic", "unit"])
def test_zeta_amitsur_gaussian_generator(tmp_path, capsys, kind):
    # the trace side has QQ(i) coefficients with imaginary part 0
    path = tmp_path / "triangle_i.txt"
    path.write_text("graph:\n  vertices = 3\n  edge 0 1\n  edge 1 2\n"
                    f"  edge 2 0\nweights:\n  kind = {kind}\n"
                    "representation rho:\n  generator 0 = i\n")
    code, out, err = run(capsys, "zeta-amitsur", "--input", str(path),
                         "--max-length", "6")
    assert (code, err) == (0, "")
    assert "result: pass" in out


# usage errors (exit 2 from argparse) sit between ordinary commands
ONE_PROCESS = [
    ("validate", "--input", f"{SAMPLES}/c3.txt"),
    ("cor1", "--input", f"{SAMPLES}/c3.txt"),
    ("cor1", "--no-such-flag"),
    ("trees", "--input", f"{SAMPLES}/c3.txt"),
    ("no-such-command",),
    ("verify-main", "--seed", "3", "--count", "2"),
    ("cover", "--input", f"{SAMPLES}/c3.txt"),
]


def test_parser_built_once_per_process(capsys):
    in_process = []
    for argv in ONE_PROCESS:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    assert cli._build_parser() is cli._build_parser()
    src = os.path.dirname(os.path.dirname(covertwist.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, got in zip(ONE_PROCESS, in_process):
        fresh = subprocess.run([sys.executable, "-m", "covertwist.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert got == (fresh.returncode, fresh.stdout), argv
    assert [code for code, _ in in_process] == [0, 0, 2, 0, 2, 0, 0]


@pytest.mark.parametrize("argv", [
    ("kos", "--input", f"{SAMPLES}/kos_b2.txt", "--m", "0"),
    ("kos", "--input", f"{SAMPLES}/kos_b2.txt", "--m", "-1"),
    ("kos", "--input", f"{SAMPLES}/kos_b2.txt", "--n", "two"),
    ("zeta-amitsur", "--input", f"{SAMPLES}/c3.txt", "--max-length", "0"),
    ("verify-main", "--seed", "1", "--degree", "0"),
    ("cor1", "--seed", "1", "--count", "-2"),
])
def test_bad_numeric_argument_is_rejected(capsys, argv):
    # once a division by zero, a ValueError, a vacuous pass or a silent
    # default: now an argument error, exit 2, before any work
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {argv[-2]}:" in captured.err
    assert "Traceback" not in captured.err
