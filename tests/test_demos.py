"""Every script in ``demos/``, and README's Quick start, runs to completion against the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Quick start\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README has no Quick start python block"
    proc = run_python(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr
    # it prints the fidelity of a git estimate of noisy GHZ at n = 3 (0.980 with seed 1)
    assert 0.95 < float(proc.stdout) <= 1.0
