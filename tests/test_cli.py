"""Exit codes and report stability for the command line driver."""

import importlib
import os
import resource
import subprocess
import sys
import time

import pytest

import covertwist
from covertwist import certificates, cli, covering, graphs, zeta
from covertwist.cli import main
from covertwist.representation import representation

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


def test_artin_reads_characters_off_the_table(monkeypatch, capsys):
    # the degree-1 characters take their values and inverse values from
    # their tables; only the induced representations, of degree
    # [G:H] = 3 on the Z/6 bouquet, are built by inverting matrices
    degrees = []

    def recording(domain, mats):
        rep = representation(domain, mats)
        degrees.append(rep.degree)
        return rep

    monkeypatch.setattr(zeta, "representation", recording)
    code, out, _ = run(capsys, "artin-axioms", "--input",
                       f"{SAMPLES}/z6_bouquet.txt")
    assert code == 0 and "result: pass" in out
    assert degrees and set(degrees) == {3}


def test_zeta_lseries(capsys):
    code, out, _ = run(capsys, "zeta-lseries", "--input", f"{SAMPLES}/c3.txt")
    assert code == 0


def test_zeta_amitsur_pass(capsys):
    code, out, _ = run(capsys, "zeta-amitsur", "--input", f"{SAMPLES}/c3.txt",
                       "--max-length", "4")
    assert code == 0
    assert "prime count = 2" in out


THETA_DIMER = """graph:
  vertices = 2
  edge 0 1
  edge 0 1
  edge 0 1
weights:
  kind = symbolic
rotation:
  at 0 = 0 2 4
  at 1 = 5 3 1
zdvoltage:
  modulus = {d}
  edge 0 = 0
  edge 1 = 1
  edge 2 = 0
"""


def cycle_document(n: int) -> str:
    """An n-cycle with unit weights."""
    edges = "".join(f"  edge {v} {(v + 1) % n}\n" for v in range(n))
    return (f"graph:\n  vertices = {n}\n{edges}"
            "weights:\n  kind = unit\n")


# the Z/n cover of the two-loop bouquet, one loop lifted to an n-cycle
BOUQUET = """graph:
  vertices = 1
  edge 0 0
  edge 0 0
weights:
  kind = unit
zdvoltage:
  modulus = {n}
  edge 0 = 1
  edge 1 = 0
"""

# (id, argv after the input, the document or a sample, what stderr names)
OVERSIZED = [
    ("bouquet-z101", ("cor2",), BOUQUET.format(n=101),
     "Q(zeta_101) exceeds the cyclotomic order budget of 100"),
    ("bouquet-z2000", ("cor2",), BOUQUET.format(n=2000),
     "Q(zeta_2000) exceeds the cyclotomic order budget of 100"),
    ("bouquet-z100000", ("cor2",), BOUQUET.format(n=100000),
     "Q(zeta_100000) exceeds the cyclotomic order budget of 100"),
    ("kos-21x20", ("kos", "--m", "21", "--n", "20"), "kos_b2.txt",
     "torus cover determinant of order 420 exceeds the budget of 400"),
    ("trees-25-edges", ("oracle-trees",), cycle_document(25),
     "25 edges exceeds the 24-edge tree budget"),
    ("forests-21-edges", ("oracle-forests",), cycle_document(21),
     "21 edges exceeds the 20-edge forest budget"),
    ("matchings-22-vertices", ("oracle-matchings",), cycle_document(22),
     "22 vertices exceeds the 20-vertex matching budget"),
    ("dimer-theta-z9", ("dimer",), THETA_DIMER.format(d=9),
     "exact pfaffian capped at 16x16"),
    ("dimer-theta-z21", ("dimer",), THETA_DIMER.format(d=21),
     "42 vertices exceeds the 20-vertex matching budget"),
    ("amitsur-length-13", ("zeta-amitsur", "--max-length", "13"), "c3.txt",
     "series length 13 exceeds 12"),
]


@pytest.mark.parametrize("argv, document, message",
                         [row[1:] for row in OVERSIZED],
                         ids=[row[0] for row in OVERSIZED])
def test_budgets_fire_before_the_work(tmp_path, capsys, argv, document,
                                      message):
    # every oversized input stops at its budget, exit 3 with no report,
    # before the work the budget guards: the Q(zeta_101), Q(zeta_2000)
    # and Q(zeta_100000) characters (no deck group closed on the way,
    # and for a connected cyclic cover not even the cover built), the
    # order-420 torus determinant, the oracle walks, and for the odd
    # cyclic covers of the 3-edge theta graph (18 and 42 vertices) the
    # split, as soon as the cover is built
    if document.endswith(".txt"):
        path = f"{SAMPLES}/{document}"
    else:
        path = tmp_path / "oversized.txt"
        path.write_text(document)
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert message in err


# the two-loop bouquet claiming more vertices than its two edges can join
def too_many_vertices(n: int) -> str:
    return BOUQUET.format(n=7).replace("vertices = 1", f"vertices = {n}")


@pytest.mark.parametrize("vertices", [3, 10000000, 999999999999])
def test_validate_refutes_connectivity_before_any_allocation(
        tmp_path, capsys, vertices):
    # more vertices than unoriented edges + 1: not connected, which is
    # known before anything per vertex is built, and a true FAIL (exit 1)
    path = tmp_path / "sparse.txt"
    path.write_text(too_many_vertices(vertices))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and err == ""
    assert "check graph connected: FAIL" in out
    assert "loop rank" not in out


@pytest.mark.parametrize("vertices", [3, 999999999999])
def test_disconnected_graph_has_no_spanning_tree(tmp_path, capsys, vertices):
    # the spanning walk refutes connectivity before anything per vertex
    # is built: zero trees and a zero sum, exit 0
    path = tmp_path / "sparse.txt"
    path.write_text(too_many_vertices(vertices))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "oracle-trees", "--input", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == ""
    assert "  spanning trees = 0\n  tree sum = 0\n" in out


def test_star_with_its_centre_numbered_last_keeps_a_narrow_frontier(
        tmp_path, capsys):
    # in index order every leaf would wait on the frontier for the centre,
    # 2^24 states; the breadth-first order meets the centre second
    edges = "".join(f"  edge {v} 24\n" for v in range(24))
    path = tmp_path / "star.txt"
    path.write_text(f"graph:\n  vertices = 25\n{edges}"
                    "weights:\n  kind = unit\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "oracle-trees", "--input", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == ""
    assert "  spanning trees = 1\n  tree sum = 1\n" in out


@pytest.mark.parametrize("vertices", [3, 999999999999])
def test_a_missing_rotation_line_is_named_without_a_walk_over_the_vertices(
        tmp_path, capsys, vertices):
    # the check finds the least vertex with no `at` line, not the list of
    # all of them
    path = tmp_path / "sparse.txt"
    path.write_text(too_many_vertices(vertices)
                    + "rotation:\n  at 0 = 0 1 2 3\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == "error: no `at k = ...` line for k = 1\n"


def test_memory_error_is_over_budget_not_falsified(tmp_path):
    # the forest oracle allocates per vertex before any check: in a child
    # limited to 1 GB of address space that is a MemoryError, which ends
    # in exit 3 and one line, not a traceback and exit 1
    path = tmp_path / "sparse.txt"
    path.write_text(too_many_vertices(999999999999))
    src = os.path.dirname(os.path.dirname(covertwist.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "covertwist.cli", "oracle-forests", "--input",
         str(path)], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=limit_address_space)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: budget exceeded: MemoryError\n"


def test_recursion_error_is_over_budget(monkeypatch, capsys):
    def too_deep(args, doc):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._HANDLERS, "validate", too_deep)
    code, out, err = run(capsys, "validate", "--input", f"{SAMPLES}/c3.txt")
    assert (code, out) == (3, "")
    assert err == ("error: budget exceeded: maximum recursion depth "
                   "exceeded\n")


# the one refusal of a disconnected cover, whatever the command and the
# voltage kind: coset_data's
DISCONNECTED = "error: the cover is disconnected\n"


@pytest.mark.parametrize("n, voltage", [(4, 2), (200, 2), (200, 10)])
def test_disconnected_cyclic_cover_is_rejected_before_any_budget(
        tmp_path, capsys, n, voltage):
    # gcd(n, voltage) > 1: the cover is disconnected and has no character
    # field, so even past the field budget cor2 rejects it (exit 2)
    path = tmp_path / "bouquet.txt"
    path.write_text(BOUQUET.format(n=n).replace("edge 0 = 1",
                                                f"edge 0 = {voltage}"))
    code, out, err = run(capsys, "cor2", "--input", str(path))
    assert code == 2 and out == ""
    assert err == DISCONNECTED


@pytest.mark.parametrize("command", ["cover", "cor2"])
@pytest.mark.parametrize("document", ["z6_bouquet.txt", BOUQUET.format(n=7)],
                         ids=["voltage-z6", "zdvoltage-z7"])
def test_abelian_deck_groups_are_never_closed(monkeypatch, tmp_path, capsys,
                                              command, document):
    # a transitive abelian fiber group is regular: normality, the deck
    # group order and the characters come without listing its elements
    def no_closure(*args, **kwargs):
        raise AssertionError("permutation_closure reached")

    monkeypatch.setattr(covering, "permutation_closure", no_closure)
    if document.endswith(".txt"):
        path = f"{SAMPLES}/{document}"
    else:
        path = tmp_path / "bouquet.txt"
        path.write_text(document)
    code, out, _ = run(capsys, command, "--input", str(path))
    assert code == 0 and "result: pass" in out


# the 4-cycle of dimer_c4.txt with every Z/3 voltage 0: three disjoint
# copies of the base, a cover that no command certifies
DISCONNECTED_COVER = """graph:
  vertices = 4
  edge 0 1
  edge 1 2
  edge 2 3
  edge 3 0
weights:
  kind = symbolic
zdvoltage:
  modulus = 3
  edge 0 = 0
  edge 1 = 0
  edge 2 = 0
  edge 3 = 0
"""


COVER_COMMANDS = ["cover", "verify-main", "cor1", "trees", "cor2"]


@pytest.mark.parametrize("document, command", [
    pytest.param(document, command, id=f"{name}-{command}")
    for name, document, commands in [
        ("zdvoltage-z3", DISCONNECTED_COVER, [*COVER_COMMANDS, "dimer"]),
        ("intransitive", None, COVER_COMMANDS)]
    for command in commands])
def test_disconnected_cover_is_refused(tmp_path, capsys, document, command):
    # an input error, not a falsification: exit 2, nothing on stdout
    path = f"{SAMPLES}/intransitive.txt"
    if document is not None:
        path = tmp_path / "disconnected.txt"
        path.write_text(document)
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and out == ""
    assert err == DISCONNECTED


# a triangle with a degree-2 voltage on its one generator, and the same
# triangle with a cyclic voltage: every content line is read by its parser
TRIANGLE = """graph:
  vertices = 3
  edge 0 1
  edge 1 2
  edge 2 0
weights:
  kind = unit
voltage:
  degree = 2
  generator 0 = (0 1)
"""
TRIANGLE_ZD = """graph:
  vertices = 3
  edge 0 1
  edge 1 2
  edge 2 0
weights:
  kind = unit
zdvoltage:
  modulus = 3
  edge 0 = 1
  edge 1 = 0
  edge 2 = 0
"""


def insert_after(document, anchor, line):
    head, _, tail = document.partition(anchor + "\n")
    return head + anchor + "\n" + line + "\n" + tail


# the 4-cycle of sample_inputs/dimer_c4.txt with its default rotation
DIMER_C4 = """graph:
  vertices = 4
  edge 0 1
  edge 1 2
  edge 2 3
  edge 3 0
weights:
  kind = symbolic
rotation:
  at 0 = 0 7
  at 1 = 1 2
  at 2 = 3 4
  at 3 = 5 6
zdvoltage:
  modulus = 3
  edge 0 = 1
  edge 1 = 0
  edge 2 = 0
  edge 3 = 0
"""

# (id, document, the stray line, its line number)
STRAY_LINES = [
    ("misspelt edge", insert_after(TRIANGLE, "  edge 2 0", "  Edge 0 2"),
     "Edge 0 2", 6),
    ("bare number", insert_after(TRIANGLE, "  edge 2 0", "  3"), "3", 6),
    ("repeated key", insert_after(TRIANGLE, "  vertices = 3",
                                  "  vertices = 4"), "vertices = 4", 3),
    ("unknown weight key", insert_after(TRIANGLE, "  kind = unit",
                                        "  colour = red"), "colour = red", 8),
    ("misspelt generator", insert_after(TRIANGLE, "  generator 0 = (0 1)",
                                        "  generatr 1 = (0 1)"),
     "generatr 1 = (0 1)", 11),
    ("zdvoltage vertices", insert_after(TRIANGLE_ZD, "  modulus = 3",
                                        "  vertices = 7"), "vertices = 7", 10),
]


@pytest.mark.parametrize("document", [TRIANGLE, TRIANGLE_ZD, DIMER_C4],
                         ids=["voltage", "zdvoltage", "rotation"])
def test_every_line_of_a_clean_document_is_read(tmp_path, capsys, document):
    path = tmp_path / "clean.txt"
    path.write_text(document)
    assert run(capsys, "validate", "--input", str(path))[0] == 0
    assert run(capsys, "cover", "--input", str(path))[0] == 0


@pytest.mark.parametrize("document, line, number",
                         [case[1:] for case in STRAY_LINES],
                         ids=[case[0] for case in STRAY_LINES])
@pytest.mark.parametrize("command", ["validate", "cover"])
def test_a_line_no_parser_reads_is_rejected(tmp_path, capsys, document, line,
                                            number, command):
    path = tmp_path / "stray.txt"
    path.write_text(document)
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {number}: unrecognized line in the ")
    assert repr(line) in err


def test_the_dropped_lines_document_is_rejected_at_its_first_stray_line(
        tmp_path, capsys):
    # the fourth edge, the bare 3, colour = red and generatr 1 = (0 1)
    # were each dropped without a word; the first of them stops the parse
    document = TRIANGLE.replace("  edge 2 0\n", "  edge 2 0\n  Edge 0 2\n  3\n")
    document = document.replace("  kind = unit\n",
                                "  kind = unit\n  colour = red\n")
    document += "  generatr 1 = (0 1)\n"
    path = tmp_path / "dropped.txt"
    path.write_text(document)
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: line 6: unrecognized line in the graph section: "
                   "'Edge 0 2'\n")


# (id, document, its line numbered past the section's count, that number):
# indexed lines name a vertex or an edge, and one that names none is an
# input error, not a line to drop
OUT_OF_RANGE_LINES = [
    ("rotation at 9", insert_after(DIMER_C4, "  at 3 = 5 6",
                                   "  at 9 = 1 2 3"), 14),
    ("rotation at -1", insert_after(DIMER_C4, "  at 3 = 5 6",
                                    "  at -1 = 0"), 14),
]


@pytest.mark.parametrize("document, number",
                         [case[1:] for case in OUT_OF_RANGE_LINES],
                         ids=[case[0] for case in OUT_OF_RANGE_LINES])
@pytest.mark.parametrize("command", ["validate", "dimer"])
def test_an_index_outside_the_count_is_rejected(tmp_path, capsys, document,
                                                number, command):
    path = tmp_path / "out_of_range.txt"
    path.write_text(document)
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {number}: at index ")


@pytest.mark.parametrize("vertices", [0, -1])
@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_a_vertex_count_below_one_is_rejected_at_parse(tmp_path, capsys,
                                                      command, vertices):
    # an edgeless graph on no vertices, or on -1, is no graph: every
    # command stops at the count's line
    path = tmp_path / "no_vertices.txt"
    path.write_text(f"graph:\n  vertices = {vertices}\n"
                    "weights:\n  kind = unit\n")
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2: vertices must be positive\n"


def test_cover_reports_a_disconnected_cover(tmp_path, capsys):
    # cover refuses a disconnected cover as every other command does,
    # with no report: its normality data are defined for connected
    # covers only
    path = tmp_path / "disconnected.txt"
    path.write_text(DISCONNECTED_COVER)
    code, out, err = run(capsys, "cover", "--input", str(path))
    assert code == 2 and out == ""
    assert err == DISCONNECTED


@pytest.mark.parametrize("command, sample, sizes", [
    pytest.param(command, sample, sizes, id=command)
    for command, sample, sizes in [
        ("cover", "c3.txt", [3, 6]),   # the triangle once, its hexagon once
        ("cor1", "c3.txt", [3, 6]),
        ("trees", "c3.txt", [3, 6]),
        ("verify-main", "c3.txt", [3, 6]),
        ("cor2", "c3.txt", [3, 6]),
        ("dimer", "dimer_c4.txt", [12]),   # the square's 12-vertex cover
    ]])
def test_cover_connectivity_is_tested_once(monkeypatch, capsys, command,
                                           sample, sizes):
    # coset_data refuses a disconnected cover, and every later step of
    # these commands takes its coset data as the proof of connectivity
    seen = []

    def recording(g):
        seen.append(g.num_vertices)
        return graphs.is_connected(g)

    for module in (cli, certificates, covering):
        monkeypatch.setattr(module, "is_connected", recording, raising=False)
    code, _, _ = run(capsys, command, "--input", f"{SAMPLES}/{sample}")
    assert code == 0
    assert sorted(seen) == sizes


@pytest.mark.parametrize("command, sample, sizes", [
    pytest.param(command, sample, sizes, id=f"{command}-{sample[:-4]}")
    for command, sample, sizes in [
        ("cover", "c3.txt", [6]),
        ("verify-main", "c3.txt", [6]),
        ("cor1", "c3.txt", [6]),
        ("trees", "c3.txt", [6]),
        ("cor2", "c3.txt", [6]),
        ("dimer", "dimer_c4.txt", [12]),
        # the 6-vertex cover, its 3-vertex quotient by the order-2
        # subgroup and the cover over that quotient
        ("artin-axioms", "z6_bouquet.txt", [6, 3, 6]),
        ("artin-axioms", "artin_b2.txt", [4, 2, 4]),
    ]])
def test_each_cover_enters_through_coset_data_once(monkeypatch, capsys,
                                                    command, sample, sizes):
    # coset data carry connectivity, the presentations and the fiber
    # group, so no cover needs a second pass over its sheets
    seen = []
    real = covering.coset_data

    def recording(p):
        seen.append(p.cover.num_vertices)
        return real(p)

    for name, module in list(sys.modules.items()):
        if (name.startswith("covertwist")
                and getattr(module, "coset_data", None) is real):
            monkeypatch.setattr(module, "coset_data", recording)
    code, _, _ = run(capsys, command, "--input", f"{SAMPLES}/{sample}")
    assert code == 0
    assert seen == sizes


@pytest.mark.parametrize("command, sample, calls", [
    ("cor2", "z6_bouquet.txt", 1),
    ("artin-axioms", "z6_bouquet.txt", 3),
    ("artin-axioms", "artin_b2.txt", 3),
])
def test_commutation_is_tested_once_per_group(monkeypatch, capsys, command,
                                              sample, calls):
    # the fiber group caches its commutation test, and its character
    # table reads the cached answer: one test per group, and artin-axioms
    # meets three groups (the cover's, the quotient's, the subgroup's)
    seen = []
    real = covering.perms_commute

    def counting(perms):
        seen.append(len(perms))
        return real(perms)

    # covertwist.representation as an attribute is the re-exported
    # function of that name, not the module
    for module in (covering, importlib.import_module(
            "covertwist.representation")):
        monkeypatch.setattr(module, "perms_commute", counting, raising=False)
    code, _, _ = run(capsys, command, "--input", f"{SAMPLES}/{sample}")
    assert code == 0
    assert len(seen) == calls


ODD_DIMER = """graph:
  vertices = 3
  edge 0 1
  edge 1 2
  edge 2 0
weights:
  kind = symbolic
rotation:
  at 0 = 0 5
  at 1 = 1 2
  at 2 = 3 4
zdvoltage:
  modulus = 3
  edge 0 = 1
  edge 1 = 0
  edge 2 = 0
"""


def test_dimer_odd_base_is_refused_before_the_split(tmp_path, capsys,
                                                     monkeypatch):
    # a triangle has no perfect matching, and neither has its 9-vertex
    # cover: refused before any cover or charpoly, not by a division by
    # the zero matching sum after the split
    def no_split(*args, **kwargs):
        raise AssertionError("split_cover_charpoly reached")

    monkeypatch.setattr(certificates, "split_cover_charpoly", no_split)
    path = tmp_path / "triangle.txt"
    path.write_text(ODD_DIMER)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "dimer", "--input", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "an odd vertex count has no perfect matching" in err
    assert "division by zero" not in err


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
