"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs(tmp_path):
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        result = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, f"{demo.name}: {result.stderr}"
