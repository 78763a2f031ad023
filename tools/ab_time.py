#!/usr/bin/env python3
"""Time named calls of a parent commit and of this tree side by side, in one process.

    python tools/ab_time.py PARENT [--rounds K] [--call NAME ...]

PARENT is any commit git can name.  The script extracts the parent's
``src/`` with ``git archive`` under a temporary directory and imports
both packages at once, each under its own module name: the parent's and
this working tree's (uncommitted edits included).  Each named call is a
``cofusion.cli.main`` call, or a short list of them, with its outputs
written under the temporary directory:

- ``track-desk``: ``track`` on tracking_desk with 4 runs;
- ``track-full-6``: ``track`` on tracking_full cut to 6 steps, 1 run;
- ``compare-3``: ``compare`` on comparison_2d with 3 runs;
- ``fuse-sdp``: ``fuse --method SDP`` on the three SDP pairs of the
  benchmark's fuse-mix workload (``perfbench/workloads.py``).

Configurations are passed as file paths, since a preset name resolves
through the ``cofusion`` package name: each tree reads its own presets,
and both read the 6-step scenario written from this tree's.  After one
untimed call of each, every round times each call once per tree, the
order of the two trees alternating from round to round.  The last line
of standard output is one JSON object: per call, each side's minimum
time, the ratio of the minimum times (change over parent), the median of
the per-round ratios, and the rounds the change was faster.  BLAS runs
one thread, as in the benchmark.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = ("track-desk", "track-full-6", "compare-3", "fuse-sdp")


def _extract(commit: str, at: Path) -> Path:
    """The ``src/`` of ``commit``, written under ``at``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.10.12 and later)
        tar.extractall(at, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return at / "src"


def _load(src: Path, name: str):
    """The package under ``src/cofusion``, imported as ``name``, with its ``cli``."""
    init = src / "cofusion" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def _write_inputs(src: Path, at: Path) -> list[list[str]]:
    """The full-6 configuration and fuse-mix's SDP pairs under ``at``; the SDP argv lists."""
    at.mkdir()
    full = json.loads((src / "cofusion" / "presets" / "tracking_full.json").read_text())
    (at / "full6.json").write_text(json.dumps({**full, "n_steps": 6}))
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    (at / "pattern.json").write_text(json.dumps({"dim_a": 3, "dim_b": 3, "zero_indices": []}))
    argvs = []
    for k, case in enumerate(workloads.fuse_cases(1)[1]):
        pair = []
        for side in ("a", "b"):
            path = at / f"sdp{k}{side}.json"
            path.write_text(json.dumps({"labels": ["p0", "p1", "p2"],
                                        "mean": list(case[f"mean_{side}"]),
                                        "covariance": case[f"p_{side}"].tolist()}))
            pair.append(str(path))
        argvs.append(["fuse", *pair, "--method", "SDP", "--pattern", str(at / "pattern.json"),
                      "--seed", str(case["sdp_seed"])])
    return argvs


def _argvs(call: str, src: Path, inputs: Path, sdp: list[list[str]], out: Path) -> list[list[str]]:
    presets = src / "cofusion" / "presets"
    if call == "track-desk":
        argvs = [["track", "--config", str(presets / "tracking_desk.json"), "--mc", "4"]]
    elif call == "track-full-6":
        argvs = [["track", "--config", str(inputs / "full6.json"), "--mc", "1"]]
    elif call == "compare-3":
        argvs = [["compare", "--config", str(presets / "comparison_2d.json"), "--mc", "3"]]
    else:
        return [argv + ["--out", str(out / "fused.json")] for argv in sdp]
    return [argv + ["--out", str(out)] for argv in argvs]


def _timed(cli, argvs: list[list[str]], out: Path) -> float:
    out.mkdir()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for argv in argvs:
                if cli.main(argv):
                    raise RuntimeError(f"{cli.__name__}.main({argv}) failed")
            return time.perf_counter() - start
    finally:
        shutil.rmtree(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to compare this tree with")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds (default 10)")
    parser.add_argument("--call", action="append", choices=CALLS, metavar="NAME",
                        help="time only this call (repeatable; default: every call)")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    calls = args.call or list(CALLS)
    tmp = Path(tempfile.mkdtemp(prefix="ab-time-"))
    try:
        trees = {"parent": _extract(args.parent, tmp / "parent"), "change": ROOT / "src"}
        clis = {side: _load(src, f"cofusion_ab_{side}") for side, src in trees.items()}
        sdp = _write_inputs(trees["change"], tmp / "inputs")
        plans = {(side, call): _argvs(call, trees[side], tmp / "inputs", sdp, tmp / "out")
                 for side in trees for call in calls}
        times = {key: [] for key in plans}
        for rnd in range(-1, args.rounds):
            order = ("parent", "change") if rnd % 2 == 0 else ("change", "parent")
            for call in calls:
                for side in order:
                    t = _timed(clis[side], plans[side, call], tmp / "out")
                    if rnd >= 0:
                        times[side, call].append(t)
        report = {}
        for call in calls:
            old, new = times["parent", call], times["change", call]
            report[call] = {
                "parent_min_s": round(min(old), 5), "change_min_s": round(min(new), 5),
                "min_ratio": round(min(new) / min(old), 4),
                "median_pair_ratio": round(statistics.median(n / o for o, n in zip(old, new)), 4),
                "wins": sum(n < o for o, n in zip(old, new)), "rounds": len(old)}
            print(f"{call:13s} min {min(old):.4f} -> {min(new):.4f} s  "
                  f"ratio {report[call]['min_ratio']:.3f}  "
                  f"median pair ratio {report[call]['median_pair_ratio']:.3f}  "
                  f"wins {report[call]['wins']}/{len(old)}", file=sys.stderr)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
