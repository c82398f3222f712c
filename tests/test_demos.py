"""Every demo script runs to completion against the package in src/, and
the README's library tour names only exported functions."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import struvebounds

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_readme_tour_uses_exported_names():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    names = set(re.findall(r"\bsb\.(\w+)", tour))
    assert names and names <= set(struvebounds.__all__), names - set(struvebounds.__all__)
