"""The README walkthroughs in demos/ still run against the current API.

Each script runs from a copy of demos/, so the CSV files it writes to
demos/out land in the test's temporary directory, not in the checkout.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (REPO / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would leave the parametrized test below with nothing to run
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(tmp_path, script):
    demos = tmp_path / "demos"
    shutil.copytree(REPO / "demos", demos, ignore=shutil.ignore_patterns("out"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, script], capture_output=True, text=True,
                         cwd=demos, env=env)
    assert res.returncode == 0, res.stderr
