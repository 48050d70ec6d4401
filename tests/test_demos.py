"""Every demo script runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussfock

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# self_check.py runs `verify`, which TestSelfCheck covers in-process
SCRIPTS = sorted(p.name for p in DEMOS.glob("*.py")
                 if p.name != "self_check.py")


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_exits_cleanly(script):
    src = str(Path(gaussfock.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    res = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
