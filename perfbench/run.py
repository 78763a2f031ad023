"""Benchmark of the cofusion command line, one workload per invocation.

    python3 perfbench/run.py --workload track-desk --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``.  Each workload is a closed loop in this one process: a pass is a
fixed list of ``cofusion.cli.main`` calls made from the seed, and each
call starts when the previous one returns.  A run makes a fixed number of
passes, set by ``--seconds`` and the workload's typical pass time
(``workloads.pass_count``).  Every call's output is checked.

``--trace 0`` reports the end-to-end metrics.  Times are scaled to the
reference speed of the machine-speed probe (see speed.py), which samples
the shared machine's speed while the calls run; the raw times are in the
environment record.  ``--trace 1`` alternates plain and traced passes,
without the probe, and reports the per-layer metrics of the traced ones,
plus the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOADS = ("track-desk", "track-full-short", "compare-sweep", "fuse-mix")
SETUP_REPS = 7
# one BLAS thread: the machine the numbers come from has 2 shared CPUs,
# and threaded BLAS there mostly measures the scheduler
BLAS_THREADS = "1"

END_TO_END = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb", "bound_trace_mean",
              "sdp_certified_fraction")


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, metavar="DIR",
                   help="internal: import, generate inputs under DIR, print "
                        "'ready', the speed scale and the probe's busy time, "
                        "and exit (one set-up time sample)")
    return p.parse_args(argv)


def import_package():
    """Import cofusion from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "cofusion" / "__init__.py").is_file():
        print(f"error: no cofusion sources under {src}; run from a full "
              "checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import cofusion
    import cofusion.cli
    if Path(cofusion.__file__).resolve().parent != src / "cofusion":
        print(f"error: imported cofusion from {cofusion.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return cofusion


def environment(np, load_start) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None

    def git(*args):
        try:
            r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    sha = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start, "loadavg_end": list(os.getloadavg()),
            "git_sha": sha, "git_dirty": None if status is None else bool(status)}


def setup_samples(args, reps: int) -> tuple[list[float], list[float]]:
    """Time from process start to inputs ready, in fresh processes.

    Returns the raw times and the times at the reference speed of the
    speed probe each process runs on itself (see ``setup_probe``).
    """
    raw, scaled = [], []
    for i in range(reps):
        work = OUT_ROOT / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(work)]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        shutil.rmtree(work, ignore_errors=True)
        words = line.split()
        if rc != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        scale, busy = float(words[1]), float(words[2])
        raw.append(elapsed)
        scaled.append((elapsed - busy) * scale)
    return raw, scaled


def setup_probe(args) -> int:
    """One set-up sample: import the package and generate the inputs under
    a pure-Python speed probe, then print 'ready <scale> <probe busy s>'."""
    probe = speed.python_probe()
    with probe:
        probe.sample()
        import_package()
        import workloads
        workloads.prepare(args.workload, args.seed, Path(args.setup_probe))
    print(f"ready {probe.scale()!r} {probe.busy!r}", flush=True)
    return 0


class PassResult:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0          # summed wall time of the pass's CLI calls
        self.scale = 1.0         # speed scale of the pass (1 when unprobed)
        self.attempted = self.failed = 0
        self.traces: list[float] = []
        self.sdp_solves = self.sdp_certified = self.output_bytes = 0
        self.layers: dict | None = None


def run_pass(plan, cli, tracer=None, probe=None) -> PassResult:
    """Make every CLI call of one pass; only the calls themselves are timed."""
    res = PassResult(tracer is not None)
    for op in plan.ops:
        res.attempted += op.ops
        buf = io.StringIO()
        span = tracer.open("cli.main") if tracer else None
        busy = probe.busy if probe else 0.0
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(op.argv)
        except SystemExit as exc:        # argparse rejects a flag
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
        res.wall += perf_counter() - t0 - ((probe.busy - busy) if probe else 0.0)
        if tracer:
            tracer.close(span)
        if rc != 0:
            print(f"op failed (exit {rc}): {' '.join(op.argv)}", file=sys.stderr)
            res.failed += op.ops
            continue
        try:
            out = op.check(buf.getvalue())
        except Exception:
            traceback.print_exc()
            res.failed += op.ops
            continue
        if out.problems:
            print(f"check failed: {' '.join(op.argv)}", file=sys.stderr)
            for p in out.problems[:10]:
                print(f"  {p}", file=sys.stderr)
            res.failed += op.ops
        res.traces += out.traces
        res.sdp_solves += out.sdp_solves
        res.sdp_certified += out.sdp_certified
        res.output_bytes += out.output_bytes
    return res


def measure(plan, cofusion, n_passes: int, probe, traced: bool):
    """Make ``n_passes`` passes.

    Plain passes run under the speed probe.  Traced runs alternate plain
    and traced passes, without the probe, so that span times and the
    tracing overhead are raw wall time; their spans are returned.
    """
    passes, span_log = [], []
    for i in range(n_passes):
        gc.collect()
        if traced and i % 2 == 1:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer, cofusion)
            try:
                res = run_pass(plan, cofusion.cli, tracer)
            finally:
                undo()
            res.layers = tracing.layer_metrics(tracer)
            span_log.append(tracer.spans)
        elif traced:
            res = run_pass(plan, cofusion.cli)
        else:
            first = len(probe.samples)
            with probe:
                probe.sample()       # so that even a pass under one interval has one
                res = run_pass(plan, cofusion.cli, probe=probe)
            res.scale = probe.scale(first)
        passes.append(res)
        print(f"pass {len(passes)} ({'traced' if res.traced else 'plain'}): "
              f"{res.wall:.3f} s raw, x{res.scale:.3f} to reference speed, "
              f"{res.attempted - res.failed}/{res.attempted} ops ok", file=sys.stderr)
    return passes, span_log


def write_spans(path: Path, span_log) -> None:
    names = sorted({rec[0] for spans in span_log for rec in spans})
    index = {n: i for i, n in enumerate(names)}
    passes = [[[index[n], s, e, p] for n, s, e, p in spans] for spans in span_log]
    path.write_text(json.dumps({"names": names, "fields": ["name", "start", "end",
                                                           "parent"],
                                "passes": passes}))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.setup_probe:
        return setup_probe(args)
    cofusion = import_package()
    import numpy as np
    import workloads

    units = metric_units()
    load_start = list(os.getloadavg())
    OUT_ROOT.mkdir(exist_ok=True)
    work = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    probe = speed.numpy_probe()
    n_passes = workloads.pass_count(args.workload, args.seconds)
    try:
        setup_raw, setup = (([], []) if args.trace
                            else setup_samples(args, SETUP_REPS))
        plan = workloads.prepare(args.workload, args.seed, work)
        passes, span_log = measure(plan, cofusion, n_passes, probe, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    plain = [p for p in passes if not p.traced]
    if args.trace:
        traced = [p for p in passes if p.traced]
        values = {k: statistics.median(p.layers[k] for p in traced)
                  for k in traced[0].layers}
        values["metrics.output_bytes"] = statistics.median(p.output_bytes for p in traced)
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(p.wall for p in plain))
        values["failed_op_fraction"] = failed / attempted
        write_spans(OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json", span_log)
    else:
        traces = [sum(p.traces) / len(p.traces) for p in plain if p.traces]
        solves = sum(p.sdp_solves for p in plain)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall * p.scale for p in plain),
            "ops_per_s": statistics.median((p.attempted - p.failed) / (p.wall * p.scale)
                                           for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bound_trace_mean": statistics.median(traces) if traces else 0.0,
            # a workload without SDP solves has none uncertified
            "sdp_certified_fraction": (sum(p.sdp_certified for p in plain) / solves
                                       if solves else 1.0),
        }
    env = environment(np, load_start)
    env.update(workload=args.workload, seed=args.seed, slot=plan.slot,
               passes=len(passes), setup_raw_s=setup_raw,
               pass_raw_wall_s=[p.wall for p in plain],
               pass_speed_scale=[p.scale for p in plain],
               probe_samples=len(probe.samples))
    print("environment " + json.dumps(env))
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
