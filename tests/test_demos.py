"""The walkthrough demos run to completion; each checks itself as it goes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["01_gradients.py", "02_model_walkthrough.py", "03_synthetic_training.py", "04_cli_pipeline.py"],
)
def test_demo_exits_zero(demo, tmp_path):
    # demo 04 works in a fresh temporary directory; keep it under pytest's
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
