"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (interquartile distance over the median), against
the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workloads track-desk,fuse-mix --seeds 1-10 [--out runs.json]

Runs are sequential.  A spread above a third of its bound is flagged
"wide"; above the bound, "OVER".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seeds", default="1-10", help="inclusive range")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="also write every result here")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for wl in args.workloads.split(","):
        rows = []
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            res = json.loads(lines[-1])
            env = json.loads(lines[-2].split(" ", 1)[1])
            rows.append({"seed": seed, "result": res, "environment": env})
            print(f"{wl} seed {seed}: correct={res['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                if k in bounds or args.trace), flush=True)
        results[wl] = rows
        if len(rows) < 2:
            continue
        for name in rows[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in rows]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER" if spread > bound else "wide" if spread > bound / 3 else "ok"
            print(f"  {wl:17s} {name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
