#!/usr/bin/env python3
"""Run one table of command-line cases from a parent commit and from this tree, and compare outputs.

    python tools/same_outputs.py PARENT [--allow GLOB ...] [--case NAME ...]

PARENT is any commit git can name.  The script extracts the parent's
``src/`` with ``git archive`` (``ab_time._extract``) under a temporary
directory, writes one set of input files there, and runs every case of
``CASES`` with each tree's ``src`` on ``PYTHONPATH``: first the parent's,
then this working tree's (uncommitted edits included).  It compares
every output file but ``manifest.json`` byte for byte.  A case that
exits non-zero leaves an ``exit.txt`` with its status and standard
error, compared like an output.  For each file that differs it prints
the largest relative change per numeric CSV column or JSON key, and the
keys or columns only one side has.

The exit status is 0 when every output is identical, or when each
differing file matches an ``--allow`` glob (matched against
``CASE/FILE``, e.g. ``fuse-nmCI-*/fused.json``), and 1 otherwise.  The
extracted tree and every output are removed on the way out.  ``--case``
runs only the named cases.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import fnmatch
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab_time import _extract

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {"manifest.json"}     # timestamps and timings


def _fuse_cases() -> dict[str, list[str]]:
    cases = {}
    for d in (2, 3):
        pair = [f"{{in}}/a{d}.json", f"{{in}}/b{d}.json"]
        cases[f"fuse-CI-{d}d"] = ["fuse", *pair, "--method", "CI"]
        cases[f"fuse-nmCI-{d}d"] = ["fuse", f"{{in}}/na{d}.json", f"{{in}}/nb{d}.json",
                                    "--method", "nmCI", "--partition", f"{{in}}/part{d}.json"]
        cases[f"fuse-exact-{d}d"] = ["fuse", *pair, "--method", "exact",
                                     "--cross", f"{{in}}/cross{d}.json"]
        for n in (50, 600):
            cases[f"fuse-SDP-{d}d-n{n}"] = ["fuse", *pair, "--method", "SDP", "--pattern",
                                            f"{{in}}/free{d}.json", "--n", str(n)]
    # README's CI pair far below and above unit scale
    for k in ("1e-162", "1e103"):
        cases[f"fuse-CI-2d-x{k}"] = ["fuse", f"{{in}}/ra{k}.json", f"{{in}}/rb{k}.json",
                                     "--method", "CI"]
    return {name: argv + ["--out", "fused.json"] for name, argv in cases.items()}


# case name -> CLI arguments; "{in}" is the directory of shared inputs
CASES = {
    **{f"track-desk-seed{s}": ["track", "--config", "tracking_desk", "--mc", "4",
                               "--seed", str(s), "--out", "runs"] for s in (1, 3)},
    "track-full-6-steps": ["track", "--config", "{in}/full6.json", "--mc", "1",
                           "--out", "runs"],
    # every step, so that the late nmCI weight decisions are reached
    "track-full-preset": ["track", "--config", "tracking_full", "--mc", "1", "--out", "runs"],
    **{f"compare-seed{s}": ["compare", "--mc", "3", "--seed", str(s), "--out", "runs"]
       for s in (0, 3, 7)},
    **_fuse_cases(),
}


def _spd(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d))
    return m @ m.T + d * np.eye(d)


def _write_inputs(at: Path) -> None:
    """The estimate pairs, partitions, crosses and patterns every case reads."""
    at.mkdir()

    def dump(name, value):
        (at / name).write_text(json.dumps(value))

    def estimate(name, mean, cov):
        dump(name, {"mean": mean.tolist(), "covariance": cov.tolist(),
                    "labels": [f"s{i}" for i in range(len(mean))]})

    rng = np.random.default_rng(22)
    for d, blocks in ((2, [[0], [1]]), (3, [[0, 1], [2]])):
        p_a, p_b = _spd(rng, d), _spd(rng, d)
        estimate(f"a{d}.json", rng.standard_normal(d), p_a)
        estimate(f"b{d}.json", rng.standard_normal(d), p_b)
        # a whitened coupling of spectral norm 1/2 is admissible
        c = rng.standard_normal((d, d))
        c *= 0.5 / np.linalg.norm(c, 2)
        cross = np.linalg.cholesky(p_a) @ c @ np.linalg.cholesky(p_b).T
        dump(f"cross{d}.json", {"matrix": cross.tolist()})
        dump(f"free{d}.json", {"dim_a": d, "dim_b": d, "zero_indices": []})
        dump(f"part{d}.json", {"blocks": blocks})
        for name in (f"na{d}.json", f"nb{d}.json"):
            cov = np.zeros((d, d))
            for blk in blocks:
                cov[np.ix_(blk, blk)] = _spd(rng, len(blk))
            estimate(name, rng.standard_normal(d), cov)
    for k in ("1e-162", "1e103"):
        estimate(f"ra{k}.json", np.zeros(2), float(k) * np.diag([1.0, 9.0]))
        estimate(f"rb{k}.json", np.ones(2), float(k) * np.array([[6.0, 1.0], [1.0, 1.5]]))
    full = json.loads((ROOT / "src" / "cofusion" / "presets" / "tracking_full.json").read_text())
    dump("full6.json", {**full, "n_steps": 6})


def _run_case(tree: Path, argv: list[str], inputs: Path, at: Path) -> None:
    at.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "cofusion",
                           *(a.replace("{in}", str(inputs)) for a in argv)],
                          cwd=at, env=env, capture_output=True, text=True)
    if proc.returncode:
        (at / "exit.txt").write_text(f"exit {proc.returncode}\n{proc.stderr}")


def _outputs(at: Path) -> dict[str, Path]:
    """A case's output files by name; a run directory's timestamp is left out."""
    out = {}
    for p in sorted(at.rglob("*")):
        parts = p.relative_to(at).parts
        if p.is_file() and p.name not in SKIPPED:
            out[p.name if parts[0] == "runs" else "/".join(parts)] = p
    return out


def _relative(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_columns(path: Path) -> dict[str, list[str]]:
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return {}
    return {name: [r[i] if i < len(r) else "" for r in rows[1:]]
            for i, name in enumerate(rows[0])}


def _json_leaves(value, key: str = "", out=None) -> dict[str, list]:
    """Every scalar of a JSON document under its key path, list indices left out."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for k, v in value.items():
            _json_leaves(v, f"{key}.{k}" if key else k, out)
    elif isinstance(value, list):
        for v in value:
            _json_leaves(v, f"{key}[]", out)
    else:
        out.setdefault(key, []).append(value)
    return out


def _changes(old: dict[str, list], new: dict[str, list], parse) -> list[str]:
    lines = [f"  only in parent: {k}" for k in old if k not in new]
    lines += [f"  only in change: {k}" for k in new if k not in old]
    for k in (k for k in old if k in new):
        a, b = old[k], new[k]
        if a == b:
            continue
        if len(a) != len(b):
            lines.append(f"  {k}: {len(a)} values against {len(b)}")
            continue
        xa, xb = [parse(v) for v in a], [parse(v) for v in b]
        if None in xa or None in xb:
            lines.append(f"  {k}: {sum(u != v for u, v in zip(a, b))} of {len(a)} values differ")
        else:
            lines.append(f"  {k}: largest relative change "
                         f"{max(_relative(u, v) for u, v in zip(xa, xb)):.3g}")
    return lines


def _report(old: Path | None, new: Path | None) -> list[str]:
    if old is None or new is None:
        return ["  present in " + ("change" if old is None else "parent") + " only"]
    if old.suffix == ".csv":
        return _changes(_csv_columns(old), _csv_columns(new), _number)
    if old.suffix == ".json":
        leaves = [_json_leaves(json.loads(p.read_text())) for p in (old, new)]
        return _changes(*leaves, lambda v: float(v) if type(v) in (int, float) else None)
    return [f"  {old.stat().st_size} bytes against {new.stat().st_size}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to compare this tree with")
    parser.add_argument("--allow", action="append", default=[], metavar="GLOB",
                        help="a CASE/FILE glob whose files may differ (repeatable)")
    parser.add_argument("--case", action="append", choices=sorted(CASES), metavar="NAME",
                        help="run only this case (repeatable; default: every case)")
    args = parser.parse_args(argv)
    names = args.case or list(CASES)
    tmp = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    parent = tmp / "parent"
    try:
        _extract(args.parent, parent)
        _write_inputs(tmp / "inputs")
        for side, tree in (("parent", parent), ("change", ROOT)):
            for name in names:
                _run_case(tree, CASES[name], tmp / "inputs", tmp / side / name)
        same, differing = 0, []
        for name in names:
            old, new = _outputs(tmp / "parent" / name), _outputs(tmp / "change" / name)
            if "exit.txt" in old.keys() | new.keys():
                print(f"{name} exited non-zero (exit.txt holds its standard error)")
            for file in sorted(old.keys() | new.keys()):
                a, b = old.get(file), new.get(file)
                if a and b and filecmp.cmp(a, b, shallow=False):
                    same += 1
                    continue
                label = f"{name}/{file}"
                allowed = any(fnmatch.fnmatchcase(label, g) for g in args.allow)
                differing.append((label, allowed))
                print(f"{label} differs{' (allowed)' if allowed else ''}")
                print("\n".join(_report(a, b)))
        refused = sum(not allowed for _, allowed in differing)
        print(f"outputs: {same} identical, {len(differing)} differing, {refused} not allowed")
        return 1 if refused else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
