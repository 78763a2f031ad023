"""The in-process parent-against-change timing runs end to end on one small call."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _against_head(*args) -> dict:
    """The report of ``tools/ab_time.py HEAD`` with ``args``; skips outside a git checkout."""
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("the timing extracts a commit, and this tree is not a git checkout")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_time.py"), "HEAD", *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_head_against_itself_reports_every_figure():
    report = _against_head("--rounds", "2", "--call", "fuse-sdp")
    assert list(report) == ["fuse-sdp"]
    assert set(report["fuse-sdp"]) == {"parent_min_s", "change_min_s", "min_ratio",
                                       "median_pair_ratio", "wins", "rounds"}
    assert report["fuse-sdp"]["rounds"] == 2


def _files():
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*")
            if p.is_file() and ".git" not in p.relative_to(ROOT).parts}


LAYER_FIGURES = {"parent_min_s", "change_min_s", "min_ratio", "median_pair_ratio", "wins",
                 "rounds", "calls", "bitwise_equal", "max_rel_diff"}


def test_head_against_itself_replays_each_layers_calls_bitwise():
    before = _files()
    report = _against_head("--layer", "fusion._ci", "--layer", "sim._block_metrics",
                           "--call", "track-tiny", "--rounds", "2")
    assert list(report) == ["fusion._ci", "sim._block_metrics"]
    for figures in report.values():
        assert set(figures) == LAYER_FIGURES
        assert figures["rounds"] == 2 and figures["calls"] > 0
        assert figures["bitwise_equal"] is True and figures["max_rel_diff"] is None
    # the parent's tree and every output live under a temporary directory
    assert _files() == before


def test_head_against_itself_replays_the_solvers_batches_bitwise():
    # the batches return solutions whose status is an Enum member, whose
    # vars hold its class; the comparison reads the member's value
    figures = _against_head("--layer", "sdp._solve_batch", "--call", "compare-3",
                            "--rounds", "2")["sdp._solve_batch"]
    assert set(figures) == LAYER_FIGURES
    assert figures["calls"] > 0
    assert figures["bitwise_equal"] is True and figures["max_rel_diff"] is None
