"""Acceptance gate: seven end-to-end criteria, one printed verdict each.

Every test computes its verdicts, registers a single summary line with the
reporter in ``conftest``, then asserts.  The line is recorded before any
assertion so the verdict block always shows all seven outcomes.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from conftest import record_verdict

from cofusion import cli
from cofusion.core import (CrossSparsityPattern, GaussianEstimate,
                           JointCovariance, min_eigenvalue, BlockPartition,
                           partition_from_sparsity, partition_to_sparsity,
                           symmetrize)
from cofusion.fusion import ci_fuse, exact_fuse, nmci_fuse, realized_cov
from cofusion.metrics import chi2_quantile, conservativeness_sweep
from cofusion.sampler import sample_cross, sample_set
from cofusion.sdp import SolveStatus, build_problem, robust_fuse, solve
from cofusion.sim import ScenarioConfig, run_scenario, summarize

SWEEP_N_VALUES = [1, 10, 50, 200, 1000, 2000]
SOLVER_SLACK = 1e-6


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    record_verdict(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_spd(d: int, rng: np.random.Generator,
                ridge: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a @ a.T + ridge * np.eye(d)


@pytest.fixture(scope="session")
def sweep_stats():
    """Bound-convergence sweep shared by the convergence and margin criteria."""
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    start = time.perf_counter()
    stats = conservativeness_sweep(np.diag([3.0, 1.0]), np.diag([1.0, 4.0]),
                                   pattern, SWEEP_N_VALUES, 100, 7,
                                   solver_tol=1e-6, solver_max_iters=200)
    return stats, time.perf_counter() - start


@pytest.fixture(scope="session")
def desk_stats():
    """The packaged two-group tracking scenario at its configured run count."""
    ref = resources.files("cofusion") / "presets" / "tracking_desk.json"
    with resources.as_file(ref) as path:
        scenario = ScenarioConfig.load(path)
    start = time.perf_counter()
    data = run_scenario(scenario)
    return summarize(data), time.perf_counter() - start


def test_criterion_1_reference_pair_block_intersection():
    a = GaussianEstimate([0.0, 0.0], np.diag([3.0, 1.0]), ("x", "y"))
    b = GaussianEstimate([0.0, 0.0], np.diag([1.0, 4.0]), ("x", "y"))
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    res = nmci_fuse(a, b, partition_from_sparsity(pattern))
    bound_err = float(np.abs(res.bound - np.eye(2)).max())
    omega_err = float(np.abs(res.omega - np.array([0.0, 1.0])).max())
    ok = bound_err <= 1e-6 and omega_err <= 1e-6
    _verdict(1, ok, f"bound err {bound_err:.1e}, weight err {omega_err:.1e} "
                    f"(tol 1e-6)")
    assert bound_err <= 1e-6
    assert omega_err <= 1e-6


def test_criterion_2_bound_converges_to_sampled_optimum(sweep_stats):
    stats, elapsed = sweep_stats
    med = dict(zip(stats.deviation["n"], stats.deviation["median"]))
    curve = [med[n] for n in SWEEP_N_VALUES[1:]]
    nonincreasing = all(nxt <= prev + SOLVER_SLACK
                        for prev, nxt in zip(curve, curve[1:]))
    final_ok = curve[-1] <= 0.05
    time_ok = elapsed < 600.0
    ok = nonincreasing and final_ok and time_ok
    _verdict(2, ok, f"median deviation {curve[0]:.1e} -> {curve[-1]:.1e}, "
                    f"nonincreasing within {SOLVER_SLACK:g}, "
                    f"final <= 0.05, {elapsed:.0f}s < 600s")
    assert nonincreasing
    assert final_ok
    assert time_ok


def test_criterion_3_margins_tighten_with_samples(sweep_stats):
    stats, _ = sweep_stats
    nm_min = min(stats.conservativeness["nmCI"]["min"])
    sdp_min = stats.conservativeness["SDP"]["min"]
    sdp_med = stats.conservativeness["SDP"]["median"]
    nm_ok = nm_min >= -1e-9
    loose_at_one = sdp_min[0] < 0.0
    tight_at_end = sdp_med[-1] >= 0.0
    ok = nm_ok and loose_at_one and tight_at_end
    _verdict(3, ok, f"block-intersection min margin {nm_min:.1e} >= -1e-9; "
                    f"sampled-program min margin {sdp_min[0]:.2f} < 0 at n=1, "
                    f"median {sdp_med[-1]:.1e} >= 0 at n={SWEEP_N_VALUES[-1]}")
    assert nm_ok
    assert loose_at_one
    assert tight_at_end


def test_criterion_4_sampled_program_optimality():
    start = time.perf_counter()
    # (a) with every cross entry pinned to zero the program must land on
    # the known-independent fusion
    a = GaussianEstimate([0.0, 0.0], np.diag([3.0, 1.0]), ("x", "y"))
    b = GaussianEstimate([1.0, 1.0], np.diag([1.0, 4.0]), ("x", "y"))
    allzero = CrossSparsityPattern(
        2, 2, frozenset((i, j) for i in range(2) for j in range(2)))
    res_zero = robust_fuse(a, b, allzero, 16, 0, 1e-6)
    want = exact_fuse(a, b, np.zeros((2, 2)))
    err_a = abs(float(np.trace(res_zero.bound)) - float(np.trace(want.bound)))
    ok_a = err_a <= 1e-4

    # (b) scalar, correlation fully unknown: the bound must approach the
    # smaller variance
    a1 = GaussianEstimate([0.0], [[2.0]], ("x",))
    b1 = GaussianEstimate([0.0], [[3.0]], ("x",))
    free1 = CrossSparsityPattern(1, 1, frozenset())
    res_scalar = robust_fuse(a1, b1, free1, 200, 7, 1e-6)
    err_b = abs(float(res_scalar.bound[0, 0]) - 2.0)
    ok_b = err_b <= 1e-2

    # (c) local optimality: across random instances, no feasible random
    # perturbation of the solution may beat its objective by more than
    # 1e-6 relative
    rng = np.random.default_rng(20240822)
    n_instances, n_pert = 50, 10_000
    violations = 0
    checked = 0
    for _ in range(n_instances):
        for _retry in range(8):
            d = int(rng.integers(1, 4))
            p_a = _random_spd(d, rng)
            p_b = _random_spd(d, rng)
            zeros = frozenset((i, j) for i in range(d) for j in range(d)
                              if rng.random() < 0.3)
            pattern = CrossSparsityPattern(d, d, zeros)
            samples = sample_set(p_a, p_b, pattern, 40,
                                 int(rng.integers(2 ** 31)))
            problem = build_problem(p_a, p_b, [s.p_ab for s in samples])
            sol = solve(problem, tol=1e-7, max_iters=400)
            if sol.status is SolveStatus.OPTIMAL:
                break
        assert sol.status is SolveStatus.OPTIMAL
        obj = sol.objective
        k_a, pbar = sol.gain_a, sol.bound
        jinv = symmetrize(np.linalg.inv(problem.joints))
        eye = np.eye(d)
        # the blocks in order of least slack at the optimum, where most
        # perturbations already fail
        k = np.hstack([k_a, eye - k_a])
        slack = pbar - k @ problem.joints @ k.T
        order = np.argsort(np.linalg.eigvalsh(slack)[:, 0], kind="stable")
        threshold = obj * (1.0 - 1e-6)
        for _chunk in range(n_pert // 1000):
            c = 1000
            s = 10.0 ** rng.uniform(-4.0, np.log10(0.3), c)
            dk = rng.standard_normal((c, d, d)) \
                * (s * max(float(np.linalg.norm(k_a)), 1.0))[:, None, None]
            ka_c = k_a + dk
            k_c = np.concatenate([ka_c, eye - ka_c], axis=2)
            dp = rng.standard_normal((c, d, d))
            dp = 0.5 * (dp + dp.transpose(0, 2, 1))
            scale = (s * float(np.trace(pbar)) / d)[:, None, None]
            shrink = rng.uniform(0.0, 1.0, c)[:, None, None] * scale
            p_c = pbar + dp * scale - shrink * eye
            better = np.einsum("cii->c", p_c) < threshold
            idx = np.flatnonzero(better)
            if idx.size == 0:
                continue
            checked += idx.size
            # a perturbation is dropped at its first block that is not PSD
            for i in order:
                g = np.empty((idx.size, 3 * d, 3 * d))
                g[:, :d, :d] = p_c[idx]
                g[:, :d, d:] = k_c[idx]
                g[:, d:, :d] = np.swapaxes(k_c[idx], 1, 2)
                g[:, d:, d:] = jinv[i]
                idx = idx[np.linalg.eigvalsh(g)[:, 0] >= 0.0]
                if idx.size == 0:
                    break
            violations += idx.size
    ok_c = violations == 0
    elapsed = time.perf_counter() - start

    ok = ok_a and ok_b and ok_c
    _verdict(4, ok, f"(a) zero-cross trace err {err_a:.1e} <= 1e-4 "
                    f"(b) scalar err {err_b:.1e} <= 1e-2 "
                    f"(c) {violations} of {checked} lower-objective "
                    f"perturbations feasible over {n_instances} instances, "
                    f"{elapsed:.0f}s")
    assert ok_a
    assert ok_b
    assert ok_c


def test_criterion_5_tracking_method_comparison(desk_stats):
    row, elapsed = desk_stats
    m = row["methods"]
    frac = {k: m[k]["nees_in_band_fraction"]
            for k in ("centralized", "CI", "nmCI")}
    in_band_ok = all(v >= 0.9 for v in frac.values())
    accuracy_ok = (m["nmCI"]["rmse_mean"] < m["CI"]["rmse_mean"]
                   and m["nmCI"]["sigma2_mean"] < m["CI"]["sigma2_mean"])
    steady_ok = m["nmCI"]["nees_steady"] >= m["CI"]["nees_steady"]
    time_ok = elapsed < 300.0
    ok = in_band_ok and accuracy_ok and steady_ok and time_ok
    _verdict(5, ok, f"(a) in-band fractions c={frac['centralized']:.2f} "
                    f"CI={frac['CI']:.2f} nmCI={frac['nmCI']:.2f} "
                    f"(need >= 0.90) "
                    f"(b) rmse {m['nmCI']['rmse_mean']:.3f} < "
                    f"{m['CI']['rmse_mean']:.3f} and tighter intervals: "
                    f"{accuracy_ok} "
                    f"(c) steady consistency ratio kept: {steady_ok}, "
                    f"{elapsed:.0f}s < 300s")
    assert accuracy_ok
    assert steady_ok
    assert time_ok
    assert in_band_ok


def test_criterion_6_full_scale_run_well_formed(tmp_path, capsys):
    start = time.perf_counter()
    rc = cli.main(["track", "--config", "tracking_full",
                   "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.strip()
    assert rc == 0
    out_dir = tmp_path / out.rsplit("/", 1)[-1]

    summary = json.loads((out_dir / "summary.json").read_text())
    dim_ok = summary["state_dim"] == 112
    runs_ok = summary["mc_runs"] == 2

    ref = resources.files("cofusion") / "presets" / "tracking_full.json"
    cfg = json.loads(ref.read_text())
    n_agents = sum(len(g["agents"]) for g in cfg["groups"])
    per_step = 1 + n_agents * (len(cfg["methods"]) - 1)
    want_rows = cfg["mc_runs"] * cfg["n_steps"] * per_step

    track = (out_dir / "track.csv").read_text().splitlines()
    rows_ok = len(track) == 1 + want_rows
    body = np.genfromtxt((out_dir / "track.csv").open(), delimiter=",",
                         names=True, dtype=None, encoding="utf-8")
    finite_ok = (np.isfinite(body["nees"]).all()
                 and np.isfinite(body["pos_error_norm"]).all()
                 and np.isfinite(body["cov_trace"]).all())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    files_ok = all((out_dir / name).is_file() for name in manifest["outputs"])
    time_ok = elapsed < 1800.0

    ok = dim_ok and runs_ok and rows_ok and finite_ok and files_ok and time_ok
    _verdict(6, ok, f"112-state scenario, 2 runs: {len(track) - 1} track rows "
                    f"(want {want_rows}), outputs {manifest['outputs']}, "
                    f"all finite: {finite_ok}, {elapsed:.0f}s < 1800s")
    assert dim_ok and runs_ok
    assert rows_ok
    assert finite_ok
    assert files_ok
    assert time_ok


def test_criterion_7_invariant_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # weighted-inverse fusion stays conservative for any admissible joint
    ci_fail = 0
    gain_fail = 0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        p_a = _random_spd(d, rng, ridge=float(d))
        p_b = _random_spd(d, rng, ridge=float(d))
        labels = tuple(f"s{i}" for i in range(d))
        a = GaussianEstimate(rng.standard_normal(d), p_a, labels)
        b = GaussianEstimate(rng.standard_normal(d), p_b, labels)
        res = ci_fuse(a, b)
        if np.abs(res.gain_a + res.gain_b - np.eye(d)).max() > 1e-9:
            gain_fail += 1
        free = CrossSparsityPattern(d, d, frozenset())
        cross = sample_cross(p_a, p_b, free, int(rng.integers(2 ** 31))).p_ab
        joint = JointCovariance(p_a, p_b, cross)
        margin = min_eigenvalue(
            res.bound - realized_cov(res.gain_a, res.gain_b, joint))
        if margin < -1e-9:
            ci_fail += 1

    # block-wise intersection stays conservative for block-respecting
    # joints; the inputs are block-diagonal, the regime where the
    # partitioned bound is exact rather than an approximation
    nm_fail = 0
    for _ in range(1000):
        sizes = [int(rng.integers(1, 3))
                 for _ in range(int(rng.integers(2, 5)))]
        blocks, lo = [], 0
        for sz in sizes:
            blocks.append(tuple(range(lo, lo + sz)))
            lo += sz
        d = lo
        partition = BlockPartition(tuple(blocks))
        p_a = np.zeros((d, d))
        p_b = np.zeros((d, d))
        for blk in blocks:
            ix = np.ix_(blk, blk)
            p_a[ix] = _random_spd(len(blk), rng)
            p_b[ix] = _random_spd(len(blk), rng)
        labels = tuple(f"s{i}" for i in range(d))
        a = GaussianEstimate(rng.standard_normal(d), p_a, labels)
        b = GaussianEstimate(rng.standard_normal(d), p_b, labels)
        res = nmci_fuse(a, b, partition)
        if np.abs(res.gain_a + res.gain_b - np.eye(d)).max() > 1e-9:
            gain_fail += 1
        pattern = partition_to_sparsity(partition)
        cross = sample_cross(p_a, p_b, pattern,
                             int(rng.integers(2 ** 31))).p_ab
        joint = JointCovariance(p_a, p_b, cross)
        margin = min_eigenvalue(
            res.bound - realized_cov(res.gain_a, res.gain_b, joint))
        if margin < -1e-9:
            nm_fail += 1

    # the sampler honors the sparsity pattern, stays in the admissible
    # set, and reproduces bit-for-bit from its seed
    d = 3
    p_a = _random_spd(d, rng)
    p_b = _random_spd(d, rng)
    pattern = CrossSparsityPattern(d, d, frozenset({(0, 1), (1, 0), (2, 2)}))
    draws = sample_set(p_a, p_b, pattern, 1000, 1234)
    again = sample_set(p_a, p_b, pattern, 1000, 1234)
    sampler_fail = 0
    for s, s2 in zip(draws, again):
        if not np.array_equal(s.p_ab, s2.p_ab):
            sampler_fail += 1
            continue
        if any(s.p_ab[i, j] != 0.0 for i, j in pattern.zero_indices):
            sampler_fail += 1
            continue
        if not JointCovariance(p_a, p_b, s.p_ab).in_uncertainty_set(pattern):
            sampler_fail += 1

    # quantile function against empirical quantiles of squared-norm sums
    chi_rng = np.random.default_rng(7)
    chi_worst = 0.0
    for dof in (2, 5, 24):
        draws_chi = chi_rng.chisquare(dof, 400_000)
        for q in (0.025, 0.5, 0.975):
            emp = float(np.quantile(draws_chi, q))
            rel = abs(emp / chi2_quantile(q, dof) - 1.0)
            chi_worst = max(chi_worst, rel)
    chi_ok = chi_worst < 0.01

    elapsed = time.perf_counter() - start
    time_ok = elapsed < 300.0
    ok = (ci_fail == 0 and nm_fail == 0 and gain_fail == 0
          and sampler_fail == 0 and chi_ok and time_ok)
    _verdict(7, ok, f"margin failures CI {ci_fail}/1000, block {nm_fail}/1000, "
                    f"gain-sum {gain_fail}/2000, sampler {sampler_fail}/1000, "
                    f"quantile rel err {chi_worst:.4f} < 0.01, "
                    f"{elapsed:.0f}s < 300s")
    assert ci_fail == 0
    assert nm_fail == 0
    assert gain_fail == 0
    assert sampler_fail == 0
    assert chi_ok
    assert time_ok
