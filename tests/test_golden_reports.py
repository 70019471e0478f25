"""Golden reports: stdout and exit code of every subcommand on every
sample input, and of the seeded suites, pinned byte for byte.

A report with a floating data line (the kos determinants, verify-main's
max deficit) pins only its exit code and its check lines, since the last
digits of a float move with the order of its arithmetic.  After a
deliberate report change, regenerate from the repository root with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff of tests/golden/.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from covertwist.cli import _HANDLERS, _SUITE_COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SAMPLES = sorted((ROOT / "sample_inputs").glob("*.txt"))
FLOATING_DATA = ("  cover determinant = ", "  character product = ",
                 "  max deficit = ")


def cases() -> dict[str, list[str]]:
    out = {}
    for command in sorted(_HANDLERS):
        for path in SAMPLES:
            out[f"{command}--{path.stem}"] = [
                command, "--input", str(path.relative_to(ROOT))]
    for command in _SUITE_COMMANDS:
        for seed in ("3", "5"):
            out[f"{command}--seed{seed}"] = [
                command, "--seed", seed, "--count", "4"]
    return out


def pinned(code: int, out: str) -> str:
    """The exit code, then the report, or only its check lines when a
    data line is floating."""
    lines = out.splitlines(keepends=True)
    if any(line.startswith(FLOATING_DATA) for line in lines):
        out = "".join(line for line in lines if line.startswith("check "))
    return f"exit {code}\n{out}"


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(CASES[name])
    got = pinned(code, capsys.readouterr().out)
    assert got == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def regenerate() -> None:
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        (GOLDEN / f"{name}.txt").write_text(pinned(code, buf.getvalue()),
                                            encoding="utf-8")


if __name__ == "__main__":
    regenerate()
