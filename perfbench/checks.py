"""Correctness checks on the outputs of one benchmark operation.

Each check returns a list of problems; an empty list means the output
passed.  The checks read only what the CLI wrote and the inputs the
benchmark generated, and recompute what they compare against with plain
numpy, so a change to the package cannot also change the yardstick.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# summary.json of a track run against the stored reference: every number
# within this relative tolerance (or TRACK_ATOL absolute)...
TRACK_RTOL = 1e-6
TRACK_ATOL = 1e-9
# ...except the in-band NEES fraction, a count of steps over the step
# total that a last-digit shift can move by one step either way
IN_BAND_ATOL = 0.02

# sweep.csv against the reference: the solver certifies a relative gap of
# 1e-6, so bounds may move by about that much and no more
SWEEP_TRACE_RTOL = 1e-5
SWEEP_ATOL = 1e-5

# pairwise fusion outputs
GAIN_ATOL = 1e-9
SYMMETRY_RTOL = 1e-9
DOMINANCE_RTOL = 1e-9
EXACT_RTOL = 1e-8


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(got, want, rtol, atol) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def compare_tree(got, want, path="", rtol=TRACK_RTOL, atol=TRACK_ATOL) -> list[str]:
    """Differences between two JSON trees; numbers compare within tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'root'}: keys differ from the reference"]
        out = []
        for k in want:
            tol = IN_BAND_ATOL if k == "nees_in_band_fraction" else atol
            out += compare_tree(got[k], want[k], f"{path}.{k}", rtol, tol)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare_tree(g, w, f"{path}[{i}]", rtol, atol)
        return out
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return [f"{path}: {got!r} is not a number"]
    if not math.isfinite(got) or not _close(got, want, rtol, atol):
        return [f"{path}: {got!r} differs from reference {want!r}"]
    return []


def _finite_columns(rows, columns, name) -> tuple[int, list[str]]:
    """Row count of ``rows`` and the first non-finite or missing value.

    ``rows`` may be a stream: it is read once and not kept, so the check
    holds one row at a time however large the file.
    """
    count, problems = 0, []
    for i, row in enumerate(rows):
        count += 1
        if problems:
            continue
        for c in columns:
            try:
                v = float(row[c])
            except (KeyError, TypeError, ValueError):
                problems = [f"{name} row {i}: column {c} missing or not a number"]
                break
            if not math.isfinite(v):
                problems = [f"{name} row {i}: column {c} is {row[c]}"]
                break
    return count, problems


def check_track(out_dir, expect: dict, reference: dict) -> list[str]:
    """Row counts, finiteness and summary.json of one ``track`` run.

    ``expect`` maps each CSV name to its expected data-row count (the
    count acceptance criterion 6 derives from the scenario).
    """
    out_dir = Path(out_dir)
    problems = []
    finite = {"track.csv": ["nees", "pos_error_norm", "avg_two_sigma", "cov_trace"],
              "omega.csv": ["omega"], "truth.csv": ["value"],
              "estimates.csv": ["mean", "std"]}
    for name, want_rows in expect.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            count, bad = _finite_columns(csv.DictReader(fh), finite[name], name)
        if count != want_rows:
            problems.append(f"{name}: {count} rows, want {want_rows}")
        problems += bad
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable: {exc}"]
    return problems + compare_tree(summary, reference, "summary")


def check_sweep(out_dir, expect_rows: int, reference: list[dict],
                solver_tol: float) -> list[str]:
    """sweep.csv and summary.json of one ``compare`` run."""
    out_dir = Path(out_dir)
    try:
        rows = read_csv(out_dir / "sweep.csv")
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"compare outputs unreadable: {exc}"]
    problems = []
    if not rows or not {"solver_status", "solver_gap"} <= set(rows[0]):
        return ["sweep.csv lacks the solver_status and solver_gap columns"]
    if len(rows) != expect_rows:
        problems.append(f"sweep.csv: {len(rows)} rows, want {expect_rows}")
    for i, row in enumerate(rows):
        if row["method"] == "SDP" and not row["solver_status"]:
            problems.append(f"sweep.csv row {i}: empty solver status")
    problems += _finite_columns(rows, ["deviation_2norm", "min_eig_margin",
                                       "bound_trace", "solver_gap"], "sweep.csv")[1]
    med = summary.get("deviation", {}).get("median") or []
    for k in range(1, len(med)):
        if med[k] > med[k - 1] + solver_tol:
            problems.append(f"median deviation rises from {med[k - 1]:.3e} "
                            f"to {med[k]:.3e} at sweep index {k}")
    if len(rows) == len(reference):
        for i, (got, want) in enumerate(zip(rows, reference)):
            for key in ("n", "run", "method", "solver_status"):
                if got[key] != want[key]:
                    problems.append(f"sweep.csv row {i}: {key} {got[key]!r} "
                                    f"!= reference {want[key]!r}")
            try:
                trace_ok = _close(float(got["bound_trace"]), float(want["bound_trace"]),
                                  SWEEP_TRACE_RTOL, 0.0)
                margin_ok = all(_close(float(got[c]), float(want[c]), 0.0, SWEEP_ATOL)
                                for c in ("deviation_2norm", "min_eig_margin"))
            except ValueError:
                trace_ok = margin_ok = False
            if not (trace_ok and margin_ok):
                problems.append(f"sweep.csv row {i} differs from the reference")
    else:
        problems.append(f"sweep.csv has {len(rows)} rows, reference {len(reference)}")
    return problems


def realized(gain_a, gain_b, p_a, p_b, cross) -> np.ndarray:
    """Covariance the gains achieve when the true cross-covariance is ``cross``."""
    k = np.hstack([gain_a, gain_b])
    joint = np.block([[p_a, cross], [cross.T, p_b]])
    r = k @ joint @ k.T
    return 0.5 * (r + r.T)


def check_fusion(result: dict, case: dict) -> list[str]:
    """One ``fuse`` result: unbiased gains, an SPD bound, and its guarantee.

    ``case`` holds the marginals ``p_a``/``p_b``, the cross-covariance the
    benchmark generated, and ``rule``: ``dominate`` (CI and nmCI bounds
    must cover the realized covariance), ``match`` (the exact rule's bound
    is the realized covariance) or ``none`` (SDP: its guarantee covers only
    the sampled set, so only the structural checks apply).
    """
    try:
        ga = np.asarray(result["gain_a"], dtype=float)
        gb = np.asarray(result["gain_b"], dtype=float)
        bound = np.asarray(result["bound"], dtype=float)
        trace = float(result["diagnostics"]["trace"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"fusion result malformed: {exc}"]
    d = case["p_a"].shape[0]
    if ga.shape != (d, d) or gb.shape != (d, d) or bound.shape != (d, d):
        return ["fusion result has the wrong shape"]
    if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))
            and np.all(np.isfinite(bound))):
        return ["fusion result has non-finite entries"]
    problems = []
    if np.abs(ga + gb - np.eye(d)).max() > GAIN_ATOL:
        problems.append("gain_a + gain_b != I")
    scale = max(float(np.abs(bound).max()), 1.0)
    if np.abs(bound - bound.T).max() > SYMMETRY_RTOL * scale:
        problems.append("bound is not symmetric")
    elif np.linalg.eigvalsh(bound)[0] <= 0.0:
        problems.append("bound is not positive definite")
    if abs(trace - float(np.trace(bound))) > 1e-9 * scale:
        problems.append("trace diagnostic does not match the bound")
    if case["rule"] == "none" or problems:
        return problems
    real = realized(ga, gb, case["p_a"], case["p_b"], case["cross"])
    if case["rule"] == "dominate":
        if np.linalg.eigvalsh(bound - real)[0] < -DOMINANCE_RTOL * scale:
            problems.append("bound does not dominate the realized covariance")
    elif np.abs(bound - real).max() > EXACT_RTOL * scale:
        problems.append("exact bound differs from the realized covariance")
    return problems
