"""Regenerate perfbench/reference.json: the outputs the benchmark's
correctness checks compare against, one entry per seed slot.

    python3 perfbench/make_reference.py [--slots 0-31] [--workloads track-desk,...]

Run it only on a commit whose outputs are known good; the stored file
was made on the commit that introduced the benchmark.  It takes about
20 s per slot on one CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import run

REFERENCED = ("track-desk", "track-full-short", "compare-sweep")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--slots", default="0-31", help="inclusive range, e.g. 0-31")
    p.add_argument("--workloads", default=",".join(REFERENCED))
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.slots.split("-"))
    os.environ["OPENBLAS_NUM_THREADS"] = run.BLAS_THREADS
    cofusion = run.import_package()
    import checks
    import workloads

    ref = (json.loads(workloads.REFERENCE_FILE.read_text())
           if workloads.REFERENCE_FILE.is_file() else {})
    work = run.OUT_ROOT / f"reference-{os.getpid()}"
    try:
        for name in args.workloads.split(","):
            for slot in range(lo, hi + 1):
                plan = workloads.prepare(name, slot, work)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cofusion.cli.main(plan.ops[0].argv)
                if rc != 0:
                    raise RuntimeError(f"{name} slot {slot}: exit code {rc}")
                out_dir = Path(buf.getvalue().strip().splitlines()[-1])
                if name == "compare-sweep":
                    entry = checks.read_csv(out_dir / "sweep.csv")
                else:
                    entry = json.loads((out_dir / "summary.json").read_text())
                shutil.rmtree(out_dir)
                ref.setdefault(name, {})[str(slot)] = entry
                print(f"{name} slot {slot} done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
