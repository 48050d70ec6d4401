"""The benchmark's own output checks pass against the package in this
checkout, so that a change of layout or API that breaks them shows up here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/selftest.py", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-2000:]
