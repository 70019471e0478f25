"""The benchmark's checkers still accept this program's reports, and its
traced runs still find every function they wrap."""

import importlib.util
import os
import subprocess
import sys

import pytest

import covertwist
import covertwist.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELFTEST = os.path.join(ROOT, "certbench", "selftest.py")
LAYERS = os.path.join(ROOT, "certbench", "layers.py")
SAMPLE = os.path.join(ROOT, "sample_inputs", "c3.txt")
DIMER_SAMPLE = os.path.join(ROOT, "sample_inputs", "dimer_c4.txt")


@pytest.mark.skipif(not os.path.isfile(SELFTEST),
                    reason="certbench/ is not part of this checkout")
def test_certbench_selftest():
    proc = subprocess.run([sys.executable, SELFTEST], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def traced_run(capsys, argv):
    """(untraced, traced) (exit code, stdout) of one command, and the
    traced run's span call counts."""
    assert os.path.abspath(covertwist.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep)
    spec = importlib.util.spec_from_file_location("certbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracing = layers.Tracing(layers.Recorder())
    untraced = covertwist.cli.main(argv), capsys.readouterr().out
    main = covertwist.cli.main
    with tracing:
        assert covertwist.cli.main is not main
        traced = covertwist.cli.main(argv), capsys.readouterr().out
    assert covertwist.cli.main is main
    return untraced, traced, tracing.recorder.calls


@pytest.mark.skipif(not os.path.isfile(LAYERS),
                    reason="certbench/ is not part of this checkout")
def test_certbench_tracing_finds_every_span(capsys):
    # a traced benchmark run looks up every function SPANS names, by
    # name, before its first operation: a deleted or renamed one ends
    # the run there
    untraced, traced, calls = traced_run(capsys, ["cor1", "--input", SAMPLE])
    assert traced == untraced and untraced[0] == 0
    assert calls["cli"] == 1 and calls["matrix.charpoly"] >= 1


@pytest.mark.skipif(not os.path.isfile(LAYERS),
                    reason="certbench/ is not part of this checkout")
@pytest.mark.parametrize("command", ["oracle-trees", "oracle-forests",
                                     "oracle-matchings", "dimer"])
def test_certbench_tracing_reaches_the_oracles(capsys, command):
    # the oracle spans are looked up by name, and the objects counter
    # takes len() of every enum_* result; trees and matchings are summed
    # without a listing, so only oracle-forests reaches an enum_*
    untraced, traced, calls = traced_run(
        capsys, [command, "--input", DIMER_SAMPLE])
    assert traced == untraced and untraced[0] == 0
    assert calls["oracles.sum"] >= 1
    if command == "oracle-forests":
        assert calls["oracles.enum"] >= 1
