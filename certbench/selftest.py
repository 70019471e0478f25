"""Fast self-test of the benchmark's checkers.

    python3 certbench/selftest.py

It shows that the checkers accept the program's reports on the sample
inputs, accept a hand-computed value, and reject reports that a wrong
cover convention or a corrupted number would give.  Exit code 0 when
every case behaves.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import Instance, Operation, cover_instance, document  # noqa: E402

SAMPLES = os.path.join(run.ROOT, "sample_inputs")
WORK = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")

TRIANGLE = [(0, 1), (1, 2), (2, 0)]
C3 = Instance(3, TRIANGLE, "symbolic", 2, [(1, 0)], reps=[[[0, -1], [1, 0]]])
DIMER_C4 = Instance(4, [(0, 1), (1, 2), (2, 3), (3, 0)], "symbolic",
                    zd=(3, [1, 0, 0, 0]))
IDENTITY = Instance(3, TRIANGLE,
                    [Fraction(2), Fraction(-1, 2), Fraction(3, 4)], 1, [(0,)],
                    reps=[[[1, 1], [0, 1]]])

# (sample file, instance, command, extra arguments)
SAMPLE_CASES = [
    ("c3.txt", C3, cmd, ()) for cmd in
    ("validate", "cover", "verify-main", "cor1", "trees",
     "oracle-trees", "oracle-forests", "oracle-matchings")
] + [
    ("c3.txt", C3, cmd, ("--max-length", "6"))
    for cmd in ("zeta-lseries", "zeta-amitsur")
] + [
    ("dimer_c4.txt", DIMER_C4, "dimer", ()),
    ("identity_cover.txt", IDENTITY, "verify-main", ()),
    ("identity_cover.txt", IDENTITY, "validate", ()),
]


def program_report(main, cmd, path, extra=()):
    code, _, out, err = run.run_op(main, [cmd, "--input", path, *extra])
    if code != 0:
        raise AssertionError(f"{cmd} on {path} exited {code}: {err.strip()}")
    return out


def write_doc(op) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "doc.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(op.text)
    return path


def expand(roots) -> str:
    """Text of prod (lambda - r) for integer roots r, in report form."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    deg = len(roots)
    terms = []
    for i, c in enumerate(coeffs):
        k = deg - i
        if not c:
            continue
        mono = "lambda" if k == 1 else f"lambda^{k}" if k else ""
        mag = abs(c)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else str(mag))
        terms.append(("-" if c < 0 else "+", body))
    head = terms[0][1] if terms[0][0] == "+" else "-" + terms[0][1]
    return head + "".join(f" {s} {b}" for s, b in terms[1:])


def case_samples(main) -> list:
    failures = []
    for fname, inst, cmd, extra in SAMPLE_CASES:
        out = program_report(main, cmd, os.path.join(SAMPLES, fname), extra)
        op = Operation(cmd, inst, extra)
        found = checks.check_operation(op, out, random.Random(fname + cmd))
        if found:
            failures.append(f"{fname} {cmd}: rejected correct output: {found}")
    return failures


def case_hand_value(main) -> list:
    """c3 at unit weights: the hexagon's charpoly is
    (l-2)(l+2)(l-1)^2(l+1)^2 and the triangle's is (l-2)(l+1)^2."""
    failures = []
    inst = Instance(3, TRIANGLE, [Fraction(1)] * 3, 2, [(1, 0)])
    hand = {"cover charpoly": expand([2, -2, 1, 1, -1, -1]),
            "base charpoly": expand([2, -1, -1]),
            "quotient": expand([-2, 1, 1])}
    found = checks.check_cor1(inst, hand, random.Random(1))
    if found:
        failures.append(f"hand-known charpolys rejected: {found}")
    op = Operation("cor1", inst, text=document(inst))
    out = program_report(main, "cor1", write_doc(op))
    _, _, data, _ = checks.parse_report(out)
    if ref.parse_poly(data["cover charpoly"]) != ref.parse_poly(hand["cover charpoly"]):
        failures.append("program's hexagon charpoly differs from the hand value")
    wrong = dict(hand, quotient=expand([-2, 1, 2]))
    if not checks.check_cor1(inst, wrong, random.Random(2)):
        failures.append("a wrong quotient was accepted")
    return failures


def case_inverted_voltages(main) -> list:
    """A degree-4 cover whose charpoly changes when every voltage is
    inverted: the program's report must pass with the right convention
    and fail with the inverted one."""
    rng = random.Random("inverted voltages")
    for _ in range(100):
        inst = cover_instance(rng, 3, 2, 4, "integer")
        right = ref.permutation_cover(inst.n, inst.pairs, 4, inst.perms)
        wrong = ref.permutation_cover(inst.n, inst.pairs, 4, inst.perms, True)
        lam = 7
        if (ref.charpoly_at(*right, inst.weights, lam)
                != ref.charpoly_at(*wrong, inst.weights, lam)):
            break
    else:
        return ["no instance where inverting the voltages matters"]
    op = Operation("cor1", inst, text=document(inst))
    out = program_report(main, "cor1", write_doc(op))
    _, _, data, _ = checks.parse_report(out)
    failures = []
    if checks.check_cor1(inst, data, random.Random(3)):
        failures.append("correct cor1 report rejected")
    if not checks.check_cor1(inst, data, random.Random(3), invert=True):
        failures.append("cover with inverted voltages was accepted")
    return failures


def case_corrupted_reports(main) -> list:
    """Changing one printed number must be caught, command by command."""
    failures = []
    for fname, inst, cmd, extra in SAMPLE_CASES:
        out = program_report(main, cmd, os.path.join(SAMPLES, fname), extra)
        bad = _corrupt(out)
        if bad is None:
            continue
        op = Operation(cmd, inst, extra)
        if not checks.check_operation(op, bad, random.Random(fname)):
            failures.append(f"{fname} {cmd}: corrupted report accepted")
    return failures


def _corrupt(report: str):
    """Add 1 to the first number printed on a data line."""
    lines = report.splitlines()
    for i, line in enumerate(lines):
        key, sep, value = line.partition(" = ")
        if line.startswith("  ") and sep and re.search(r"\d", value):
            value = re.sub(r"\d+", lambda m: str(int(m.group()) + 1), value,
                           count=1)
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n"
    return None


def main() -> int:
    program = run.import_program()
    failures = []
    try:
        for case in (case_samples, case_hand_value, case_inverted_voltages,
                     case_corrupted_reports):
            found = case(program)
            print(f"{case.__name__}: {'ok' if not found else 'FAILED'}")
            for text in found:
                print(f"  {text[:300]}")
            failures += found
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
