"""The benchmark's checkers still accept this program's reports."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELFTEST = os.path.join(ROOT, "certbench", "selftest.py")


@pytest.mark.skipif(not os.path.isfile(SELFTEST),
                    reason="certbench/ is not part of this checkout")
def test_certbench_selftest():
    proc = subprocess.run([sys.executable, SELFTEST], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
