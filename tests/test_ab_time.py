"""The in-process parent-against-change timing runs end to end on one small call."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_head_against_itself_reports_every_figure():
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("the timing extracts a commit, and this tree is not a git checkout")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_time.py"), "HEAD",
                           "--rounds", "2", "--call", "fuse-sdp"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert list(report) == ["fuse-sdp"]
    assert set(report["fuse-sdp"]) == {"parent_min_s", "change_min_s", "min_ratio",
                                       "median_pair_ratio", "wins", "rounds"}
    assert report["fuse-sdp"]["rounds"] == 2
