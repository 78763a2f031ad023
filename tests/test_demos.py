"""Smoke runs of the demo scripts: each exits cleanly and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("pairwise_fusion_tour.py", [], "estimate a: diag(3, 1), estimate b: diag(1, 4)"),
    ("bound_convergence.py", ["--mc", "1"], "1 runs, sample sizes [1, 10, 50, 200]"),
    ("tracking_walkthrough.py", ["--mc", "1"],
     "scenario tracking_desk: 4 agents, 4 targets, 24-d state, 1 runs"),
])
def test_demo_runs(script, args, header):
    src = str(ROOT / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
