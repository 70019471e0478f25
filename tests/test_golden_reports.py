"""Golden reports: stdout and exit code of every subcommand on every
sample input, and of the seeded suites, pinned byte for byte.

Every value in a report is exact, so every report is pinned in full.
After a deliberate report change, regenerate from the repository root
with

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
    """The exit code, then the report."""
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
