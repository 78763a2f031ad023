"""The parent-against-change output comparison runs end to end on one small case."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_head_against_itself_reports_identical_outputs():
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("the comparison checks out a commit, and this tree is not a git checkout")
    worktrees = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                               capture_output=True, text=True, check=True).stdout
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "same_outputs.py"), "HEAD",
                           "--case", "fuse-CI-2d"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "outputs: 1 identical, 0 differing, 0 not allowed"
    # the parent's worktree is gone again
    assert subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                          capture_output=True, text=True, check=True).stdout == worktrees
