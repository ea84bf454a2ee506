"""Smoke test of the demo scripts: each runs to the end without a warning.

The scripts run as subprocesses with RuntimeWarning turned into an error,
as the suite does for its own tests. ``04_train_fuse_evaluate.py`` is left
out: it trains for about 20 s and repeats what the CLI demo test covers.
"""

import os
import subprocess
import sys

import pytest

import ivfuse

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ivfuse.__file__)))


@pytest.mark.parametrize("script", [
    "01_tensors_and_gradients.py",
    "02_architecture_walkthrough.py",
    "03_loss_anatomy.py",
    "05_quality_metrics.py",
])
def test_demo_runs_cleanly(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         os.path.join(ROOT, "demos", script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
