#!/usr/bin/env python3
"""Time named calls of a parent commit and of this tree side by side, in one process.

    python tools/ab_time.py PARENT [--rounds K] [--call NAME ...]
    python tools/ab_time.py PARENT --layer MODULE.FUNC[=NEW] [--call NAME ...]

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
  benchmark's fuse-mix workload (``perfbench/workloads.py``);
- ``track-tiny``: ``track`` on tracking_desk cut to 12 steps, 1 run.

Configurations are passed as file paths, since a preset name resolves
through the ``cofusion`` package name: each tree reads its own presets,
and both read the 6-step scenario written from this tree's.  After one
untimed call of each, every round times each call once per tree, the
order of the two trees alternating from round to round.  The last line
of standard output is one JSON object: per call, each side's minimum
time, the ratio of the minimum times (change over parent), the median of
the per-round ratios, and the rounds the change was faster.  BLAS runs
one thread, as in the benchmark.  Standard library and numpy only.

With ``--layer MODULE.FUNC`` (``MODULE`` a module of the package, e.g.
``fusion._ci``), the named calls run once, in this tree only, with that
function wrapped: each call's arguments are deep-copied before it runs,
recording stopping at the first call that would pass 500 calls or 100 MiB
of arrays, so the replayed calls are always the run's first ones.  Every
round then replays the recorded calls through the parent's function and
through this tree's, on fresh copies made outside the timing, the order
alternating as above, and the report gives the same figures for the
replays, with ``calls`` recorded, ``bitwise_equal`` (every array of the
two sides' returns equal in shape, dtype and bytes) and
``max_rel_diff``: per returned array that differs, by its position in
the flattened return of its call, max|change - parent| / max|parent|.
``MODULE.FUNC=NEW`` replays the parent's ``MODULE.FUNC`` against this
tree's ``NEW`` (a rename; ``NEW`` is ``FUNC2`` or ``MODULE2.FUNC2``);
without it, a function whose signature differs between the trees exits
2.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import enum
import inspect
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CALLS = ("track-desk", "track-full-6", "compare-3", "fuse-sdp", "track-tiny")
# the most calls, and bytes of their arrays, one --layer records
_MAX_CALLS = 500
_MAX_BYTES = 100 * 2 ** 20


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
    """The cut configurations and fuse-mix's SDP pairs under ``at``; the SDP argv lists."""
    at.mkdir()
    for name, cut, steps in (("tracking_full", "full6", 6), ("tracking_desk", "tiny", 12)):
        full = json.loads((src / "cofusion" / "presets" / f"{name}.json").read_text())
        (at / f"{cut}.json").write_text(json.dumps({**full, "n_steps": steps}))
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
    elif call == "track-tiny":
        argvs = [["track", "--config", str(inputs / "tiny.json"), "--mc", "1"]]
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


def _arrays(x) -> list:
    """The arrays and numbers of a nested return, flattened in order."""
    if isinstance(x, dict):
        return [a for v in x.values() for a in _arrays(v)]
    if isinstance(x, (list, tuple)):
        return [a for v in x for a in _arrays(v)]
    if isinstance(x, enum.Enum):
        # a leaf: an enum member's vars hold its class, which holds the member
        x = x.value
    if isinstance(x, (np.ndarray, float, int, np.generic, str)):
        return [np.asarray(x)]
    if isinstance(x, type) or not hasattr(x, "__dict__"):
        return []
    return [a for v in vars(x).values() for a in _arrays(v)]


def _nbytes(x) -> int:
    return sum(a.nbytes for a in _arrays(x))


def _record(module, name: str, runs: list) -> list:
    """Deep copies of the (args, kwargs) of ``module.name``'s first calls while ``runs`` run.

    The function is wrapped in every module of the package that holds it,
    so calls through a ``from .module import name`` are recorded too.
    Recording stops for good at the first call that would pass
    ``_MAX_CALLS`` calls or ``_MAX_BYTES`` bytes of arrays, so the calls
    kept are a prefix of the run's."""
    calls, size, full = [], 0, False
    original = getattr(module, name)
    package = module.__name__.rpartition(".")[0]
    holders = [m for key, m in list(sys.modules.items())
               if key.startswith(package + ".") and getattr(m, name, None) is original]

    def wrapped(*args, **kwargs):
        nonlocal size, full
        if not full:
            saved = copy.deepcopy((args, kwargs))
            full = len(calls) == _MAX_CALLS or size + _nbytes(saved) > _MAX_BYTES
            if not full:
                calls.append(saved)
                size += _nbytes(saved)
        return original(*args, **kwargs)

    for m in holders:
        setattr(m, name, wrapped)
    try:
        for run in runs:
            run()
    finally:
        for m in holders:
            setattr(m, name, original)
    return calls


def _compare(old, new) -> tuple[bool, dict]:
    """(bitwise equal, {position: max relative difference}) of two calls' returns."""
    old, new = _arrays(old), _arrays(new)
    if len(old) != len(new):
        return False, {"arrays": [len(old), len(new)]}
    same, diff = True, {}
    for i, (o, n) in enumerate(zip(old, new)):
        if o.shape != n.shape or o.dtype != n.dtype:
            same, diff[i] = False, None
        elif o.tobytes() != n.tobytes():
            same = False
            scale = float(np.max(np.abs(o))) if o.size else 0.0
            diff[i] = float(np.max(np.abs(n.astype(float) - o))) / (scale or 1.0)
    return same, diff


def _layer(spec: str, clis: dict, plans: dict, calls: list, args, tmp: Path) -> dict:
    """Record ``spec``'s calls in this tree, then replay them through both trees' functions."""
    old, _, new = spec.partition("=")
    if new and "." not in new:
        # a bare NEW names a function of OLD's module
        new = f"{old.rpartition('.')[0]}.{new}"
    funcs = {}
    for side, qualified in (("parent", old), ("change", new or old)):
        module_name, _, name = qualified.rpartition(".")
        package = clis[side].__name__.rpartition(".")[0]
        module = importlib.import_module(f"{package}.{module_name}")
        if not callable(getattr(module, name, None)):
            raise SystemExit(f"error: the {side} tree has no function {qualified}")
        funcs[side] = (module, name, getattr(module, name))
    signatures = {side: inspect.signature(f) for side, (_, _, f) in funcs.items()}
    params = {side: [(p.name, p.kind) for p in sig.parameters.values()]
              for side, sig in signatures.items()}
    if not new and params["parent"] != params["change"]:
        print(f"error: {old} takes {signatures['parent']} in the parent and "
              f"{signatures['change']} here; name this tree's function with {old}=NEW",
              file=sys.stderr)
        raise SystemExit(2)
    runs = [lambda call=call: _timed(clis["change"], plans["change", call], tmp / "out")
            for call in calls]
    recorded = _record(*funcs["change"][:2], runs)
    if not recorded:
        raise SystemExit(f"error: no call of {new or old} while running {', '.join(calls)}")
    times = {"parent": [], "change": []}
    returns = {}
    for rnd in range(-1, args.rounds):
        for side in ("parent", "change") if rnd % 2 == 0 else ("change", "parent"):
            f = funcs[side][2]
            inputs = copy.deepcopy(recorded)
            start = time.perf_counter()
            out = [f(*a, **kw) for a, kw in inputs]
            elapsed = time.perf_counter() - start
            if rnd < 0:
                returns[side] = out
            else:
                times[side].append(elapsed)
            del inputs, out
    same, diffs = True, {}
    for k, (o, n) in enumerate(zip(returns["parent"], returns["change"])):
        equal, diff = _compare(o, n)
        same &= equal
        diffs.update({f"{k}.{i}": d for i, d in diff.items()})
    return {**_figures(times["parent"], times["change"]), "calls": len(recorded),
            "bitwise_equal": same, "max_rel_diff": diffs or None}


def _figures(old: list[float], new: list[float]) -> dict:
    return {"parent_min_s": round(min(old), 5), "change_min_s": round(min(new), 5),
            "min_ratio": round(min(new) / min(old), 4),
            "median_pair_ratio": round(statistics.median(n / o for o, n in zip(old, new)), 4),
            "wins": sum(n < o for o, n in zip(old, new)), "rounds": len(old)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to compare this tree with")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds (default 10)")
    parser.add_argument("--call", action="append", choices=CALLS, metavar="NAME",
                        help="time only this call (repeatable; default: every call)")
    parser.add_argument("--layer", action="append", metavar="MODULE.FUNC[=NEW]",
                        help="replay the calls' calls of one function instead (repeatable)")
    args = parser.parse_args(argv)
    # the package trees are imported, not installed: leave no bytecode behind
    sys.dont_write_bytecode = True
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
        if args.layer:
            report = {spec: _layer(spec, clis, plans, calls, args, tmp) for spec in args.layer}
            for spec, r in report.items():
                print(f"{spec}: {r['calls']} calls, min {r['parent_min_s']:.4f} -> "
                      f"{r['change_min_s']:.4f} s  ratio {r['min_ratio']:.3f}  median pair "
                      f"ratio {r['median_pair_ratio']:.3f}  wins {r['wins']}/{r['rounds']}  "
                      f"bitwise {r['bitwise_equal']}", file=sys.stderr)
            print(json.dumps(report))
            return 0
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
            report[call] = _figures(old, new)
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
