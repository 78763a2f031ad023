"""The four benchmark workloads.

``prepare`` turns a workload name and a seed into a ``Plan``: the input
files the CLI will read, and the list of CLI calls that make up one pass
together with the check each call's output must pass.  Everything the
program sees is generated here from the seed; the program receives only
files, flags and preset names.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "src" / "cofusion" / "presets"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Seeds map onto this many input sets, one stored reference each; seed s
# uses slot s % REFERENCE_SLOTS.  HELD_OUT_SEED was not run while the
# benchmark was tuned: re-check a gain claim on it (its slot is its value).
REFERENCE_SLOTS = 32
HELD_OUT_SEED = 31

# Typical wall time of one pass on the machine the baseline comes from.
# A run of --seconds S makes round(S / PASS_S) passes, at least
# MIN_PASSES, so the pass count depends on the run length asked for and
# not on how fast the code under test is: both sides of a comparison
# take their median over the same number of passes.
PASS_S = {"track-desk": 9.0, "track-full-short": 5.5, "compare-sweep": 7.5,
          "fuse-mix": 9.0}
MIN_PASSES = 2

DESK_MC = 4                  # Monte-Carlo runs per track-desk pass
FULL_SHORT_STEPS = 6         # tracking_full cut to this many steps, 1 run
COMPARE_MC = 3               # Monte-Carlo runs per compare-sweep pass
FUSE_CASES = 16              # fuse-mix pairs fused by CI, nmCI and exact
FUSE_SDP_CASES = 3           # fuse-mix pairs fused by SDP (n 200, tol 1e-7)
FUSE_DESIGN_SEED = 20230719  # fixes the pair geometries; see fuse_cases
# marginal spectrum of every fuse-mix estimate (condition number 9)
FUSE_SPECTRUM = (1.0, 3.0, 9.0)
FUSE_BLOCKS = ((0, 1), (2,))  # nmCI partition before relabelling


@dataclass
class Outcome:
    """What one CLI call produced, as the benchmark counts it."""

    problems: list = field(default_factory=list)
    traces: list = field(default_factory=list)   # fused-bound traces reported
    sdp_solves: int = 0
    sdp_certified: int = 0
    output_bytes: int = 0


@dataclass
class Op:
    """One CLI call: ``argv`` for ``cofusion.cli.main`` and its check.

    ``ops`` is how many benchmark operations the call stands for (pairwise
    fusions for ``track``, SDP solves for ``compare``, 1 for ``fuse``).
    ``check(stdout)`` inspects the output and cleans it up.
    """

    argv: list
    ops: int
    check: Callable[[str], Outcome]


@dataclass
class Plan:
    slot: int
    ops: list          # the CLI calls of one pass, in order


def slot_of(seed: int) -> int:
    return seed % REFERENCE_SLOTS


def load_reference(workload: str, slot: int):
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(slot))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# track

def _track_expect(scn: dict) -> tuple[dict, int]:
    """Data-row count of each CSV (as acceptance criterion 6 derives it)
    and the number of pairwise fusions one ``track`` call performs."""
    mc, steps = scn["mc_runs"], scn["n_steps"]
    n_agents = sum(len(g["agents"]) for g in scn["groups"])
    n_targets = sum(len(g["targets"]) for g in scn["groups"])
    dim = 4 * n_targets + 2 * n_agents
    blocks = {"group_target_bias": 2 * len(scn["groups"]),
              "group_axes": 2 * len(scn["groups"]),
              "per_target_bias": n_targets + n_agents}[scn["partition_scheme"]]
    start, every = scn["fusion_start"], scn["fusion_every"]
    fusing_steps = sum(1 for k in range(steps)
                       if k + 1 > start and (k + 1 - start) % every == 0)
    columns = sum(1 if m == "centralized" else n_agents for m in scn["methods"])
    weights = {"centralized": 0, "CI": 1, "nmCI": blocks}
    fusions = mc * fusing_steps * len(scn["edges"]) * sum(
        1 for m in scn["methods"] if m in ("CI", "nmCI"))
    if scn["record_estimates"] != "all":
        raise ValueError("track workloads expect record_estimates 'all'")
    expect = {"track.csv": mc * steps * columns,
              "omega.csv": mc * fusing_steps * len(scn["edges"]) * sum(
                  weights[m] for m in scn["methods"]),
              "truth.csv": mc * steps * dim,
              "estimates.csv": mc * steps * dim * columns}
    return expect, fusions


def _track_check(expect: dict, reference, methods) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        out_dir = Path(stdout.strip().splitlines()[-1])
        out = Outcome()
        if reference is None:
            out.problems.append("no stored reference for this seed")
        else:
            out.problems = checks.check_track(out_dir, expect, reference)
            summary = json.loads((out_dir / "summary.json").read_text())
            out.traces = [summary["methods"][m]["cov_trace_steady"]
                          for m in methods if m in ("CI", "nmCI")]
        out.output_bytes = _dir_bytes(out_dir)
        shutil.rmtree(out_dir)
        return out
    return check


def _plan_track(workload: str, slot: int, workdir: Path) -> Plan:
    runs = str(workdir / "runs")
    if workload == "track-desk":
        scn = json.loads((PRESETS / "tracking_desk.json").read_text())
        scn["mc_runs"] = DESK_MC
        argv = ["track", "--config", "tracking_desk", "--mc", str(DESK_MC),
                "--seed", str(slot), "--jobs", "1", "--out", runs]
    else:
        scn = json.loads((PRESETS / "tracking_full.json").read_text())
        scn.update(name="tracking_full_short", seed=slot, mc_runs=1,
                   n_steps=FULL_SHORT_STEPS)
        path = workdir / "tracking_full_short.json"
        path.write_text(json.dumps(scn, indent=2) + "\n")
        argv = ["track", "--config", str(path), "--jobs", "1", "--out", runs]
    expect, fusions = _track_expect(scn)
    check = _track_check(expect, load_reference(workload, slot), scn["methods"])
    return Plan(slot, [Op(argv, fusions, check)])


# ---------------------------------------------------------------------------
# compare

def _plan_compare(slot: int, workdir: Path) -> Plan:
    cfg = json.loads((PRESETS / "comparison_2d.json").read_text())
    solves = COMPARE_MC * len(cfg["n_values"])
    reference = load_reference("compare-sweep", slot)

    def check(stdout: str) -> Outcome:
        out_dir = Path(stdout.strip().splitlines()[-1])
        out = Outcome()
        if reference is None:
            out.problems.append("no stored reference for this seed")
        else:
            out.problems = checks.check_sweep(out_dir, 2 * solves, reference,
                                              cfg["solver_tol"])
        sdp = [r for r in checks.read_csv(out_dir / "sweep.csv")
               if r["method"] == "SDP"]
        out.traces = [float(r["bound_trace"]) for r in sdp]
        out.sdp_solves = solves
        out.sdp_certified = sum(r["solver_status"] == "optimal" for r in sdp)
        out.output_bytes = _dir_bytes(out_dir)
        shutil.rmtree(out_dir)
        return out

    argv = ["compare", "--config", "comparison_2d", "--mc", str(COMPARE_MC),
            "--seed", str(slot), "--jobs", "1", "--out", str(workdir / "runs")]
    return Plan(slot, [Op(argv, solves, check)])


# ---------------------------------------------------------------------------
# fuse

def _rotation(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _spd(rng, spectrum) -> np.ndarray:
    q = _rotation(rng, len(spectrum))
    p = q @ np.diag(spectrum) @ q.T
    return 0.5 * (p + p.T)


def _cross(rng, p_a, p_b) -> np.ndarray:
    """Admissible cross-covariance: whitened coupling of norm below 1."""
    d = p_a.shape[0]
    c = rng.standard_normal((d, d))
    c *= rng.uniform(0.2, 0.8) / np.linalg.norm(c, 2)
    return np.linalg.cholesky(p_a) @ c @ np.linalg.cholesky(p_b).T


def _block_pair(rng):
    """Marginals block-diagonal over FUSE_BLOCKS and a cross that respects them."""
    spectrum = rng.permutation(FUSE_SPECTRUM)
    p_a, p_b, cross = np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))
    at = 0
    for blk in FUSE_BLOCKS:
        ix = np.ix_(blk, blk)
        spec = spectrum[at:at + len(blk)]
        at += len(blk)
        p_a[ix], p_b[ix] = _spd(rng, spec), _spd(rng, spec)
        cross[ix] = _cross(rng, p_a[ix], p_b[ix])
    return p_a, p_b, cross


def _write_estimate(path: Path, mean, cov) -> None:
    path.write_text(json.dumps({"labels": ["p0", "p1", "p2"], "mean": list(mean),
                                "covariance": cov.tolist()}))


def fuse_cases(slot: int) -> tuple[list[dict], list[dict]]:
    """The estimate pairs of a fuse-mix pass: (CI/nmCI/exact cases, SDP cases).

    The relative geometry of every pair comes from a fixed design; the
    seed picks the frame each pair is seen in (an orthogonal change of
    basis, block-wise and with relabelled indices for the nmCI pairs) and
    the means.  Fused traces and weights do not depend on the frame, so
    seeds differ in the numbers the program reads, not in difficulty.
    SDP cases are the same for every seed: one solve's time varies about
    2x with its sampler seed alone, and a pass has room for few solves.
    """
    design = np.random.default_rng(FUSE_DESIGN_SEED)
    frame = np.random.default_rng([slot, FUSE_DESIGN_SEED])
    cases = []
    for _ in range(FUSE_CASES):
        p_a, p_b = _spd(design, FUSE_SPECTRUM), _spd(design, FUSE_SPECTRUM)
        cross = _cross(design, p_a, p_b)
        bp_a, bp_b, bcross = _block_pair(design)
        q = _rotation(frame, 3)
        r = np.zeros((3, 3))
        for blk in FUSE_BLOCKS:
            r[np.ix_(blk, blk)] = _rotation(frame, len(blk))
        perm = frame.permutation(3)
        pos = np.argsort(perm)

        def block(m):
            return (r @ m @ r.T)[np.ix_(perm, perm)]

        cases.append({"p_a": q @ p_a @ q.T, "p_b": q @ p_b @ q.T, "cross": q @ cross @ q.T,
                      "bp_a": block(bp_a), "bp_b": block(bp_b), "bcross": block(bcross),
                      "blocks": [sorted(int(pos[i]) for i in blk) for blk in FUSE_BLOCKS],
                      "mean_a": frame.standard_normal(3), "mean_b": frame.standard_normal(3)})
    design = np.random.default_rng([FUSE_DESIGN_SEED, 1])
    sdp_cases = [{"p_a": _spd(design, FUSE_SPECTRUM), "p_b": _spd(design, FUSE_SPECTRUM),
                  "sdp_seed": int(design.integers(2 ** 31)),
                  "mean_a": frame.standard_normal(3), "mean_b": frame.standard_normal(3)}
                 for _ in range(FUSE_SDP_CASES)]
    return cases, sdp_cases


def _plan_fuse(slot: int, workdir: Path) -> Plan:
    pattern = workdir / "pattern.json"
    pattern.write_text(json.dumps({"dim_a": 3, "dim_b": 3, "zero_indices": []}))
    result = workdir / "fused.json"
    tail = ["--out", str(result)]

    def make_check(case: dict, rule: str) -> Callable[[str], Outcome]:
        def check(_stdout: str) -> Outcome:
            res = json.loads(result.read_text())
            out = Outcome(problems=checks.check_fusion(res, {**case, "rule": rule}),
                          traces=[res["diagnostics"]["trace"]],
                          output_bytes=result.stat().st_size)
            if res["method"] == "SDP":
                out.sdp_solves = 1
                out.sdp_certified = int(res["diagnostics"]["status"] == "optimal")
            result.unlink()
            return out
        return check

    cases, sdp_cases = fuse_cases(slot)
    ops = []
    for k, c in enumerate(cases):
        a, b, na, nb = (workdir / f"{s}{k}.json" for s in ("a", "b", "na", "nb"))
        cross, part = workdir / f"cross{k}.json", workdir / f"partition{k}.json"
        _write_estimate(a, c["mean_a"], c["p_a"])
        _write_estimate(b, c["mean_b"], c["p_b"])
        _write_estimate(na, c["mean_a"], c["bp_a"])
        _write_estimate(nb, c["mean_b"], c["bp_b"])
        cross.write_text(json.dumps({"matrix": c["cross"].tolist()}))
        part.write_text(json.dumps({"blocks": c["blocks"]}))
        dense = {"p_a": c["p_a"], "p_b": c["p_b"], "cross": c["cross"]}
        block = {"p_a": c["bp_a"], "p_b": c["bp_b"], "cross": c["bcross"]}
        ops += [
            Op(["fuse", str(a), str(b), "--method", "CI"] + tail, 1,
               make_check(dense, "dominate")),
            Op(["fuse", str(na), str(nb), "--method", "nmCI", "--partition", str(part)]
               + tail, 1, make_check(block, "dominate")),
            Op(["fuse", str(a), str(b), "--method", "exact", "--cross", str(cross)]
               + tail, 1, make_check(dense, "match")),
        ]
    # the SDP calls are spread evenly through the stream
    every = 3 * FUSE_CASES // FUSE_SDP_CASES
    for k, c in reversed(list(enumerate(sdp_cases))):
        a, b = workdir / f"sa{k}.json", workdir / f"sb{k}.json"
        _write_estimate(a, c["mean_a"], c["p_a"])
        _write_estimate(b, c["mean_b"], c["p_b"])
        ops.insert((k + 1) * every, Op(
            ["fuse", str(a), str(b), "--method", "SDP", "--pattern", str(pattern),
             "--seed", str(c["sdp_seed"])] + tail, 1, make_check(c, "none")))
    return Plan(slot, ops)


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def prepare(workload: str, seed: int, workdir: Path) -> Plan:
    """Generate the inputs of ``workload`` for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    slot = slot_of(seed)
    if workload in ("track-desk", "track-full-short"):
        return _plan_track(workload, slot, workdir)
    if workload == "compare-sweep":
        return _plan_compare(slot, workdir)
    if workload == "fuse-mix":
        return _plan_fuse(slot, workdir)
    raise ValueError(f"unknown workload {workload!r}")
