"""Consistency metrics and Monte-Carlo aggregation.

NEES, average-NEES chi-square bands (quantiles computed here from the
regularized incomplete gamma function, so no statistics dependency),
and the bound-convergence sweep that pits the block-wise intersection
bound against the sampled-program optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .core import (
    CrossSparsityPattern,
    DimensionError,
    GaussianEstimate,
    JointCovariance,
    NotPositiveDefiniteError,
    as_seed,
    make_substream_seed,
    partition_from_sparsity,
)
from .fusion import nmci_fuse, realized_cov
from .sampler import sample_cross, sample_set
from .sdp import _check_solver_args, _solve_batch, build_problem
# the benchmark's tracer wraps ``metrics.solve`` by name; the sweep solves
# through ``_solve_batch``
from .sdp import solve  # noqa: F401

_EPS = 1e-15
_MAX_SERIES_ITERS = 10_000


# ---------------------------------------------------------------------------
# regularized incomplete gamma and the chi-square quantile built on it

def _lower_gamma_series(a: float, x: float) -> float:
    """P(a, x) by power series; good for x < a + 1."""
    term = 1.0 / a
    total = term
    for k in range(1, _MAX_SERIES_ITERS):
        term *= x / (a + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _upper_gamma_cf(a: float, x: float) -> float:
    """Q(a, x) by Lentz continued fraction; good for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / max(b, tiny)
    h = d
    for k in range(1, _MAX_SERIES_ITERS):
        an = -k * (k - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))

def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0:
        raise DimensionError("shape parameter must be positive")
    if x < 0:
        raise DimensionError("argument must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(max(_lower_gamma_series(a, x), 0.0), 1.0)
    return min(max(1.0 - _upper_gamma_cf(a, x), 0.0), 1.0)

def chi2_cdf(x: float, dof: float) -> float:
    if x <= 0.0:
        return 0.0
    return reg_lower_gamma(0.5 * dof, 0.5 * x)

def _normal_quantile(p: float) -> float:
    """Standard normal quantile (Acklam's rational approximation)."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > phigh:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)

def chi2_quantile(p: float, dof: float) -> float:
    """Inverse chi-square CDF by safeguarded Newton on the gamma CDF.

    Started from the Wilson-Hilferty normal approximation and kept inside
    a maintained bracket, so it converges for extreme tail probabilities
    as well.
    """
    if not 0.0 < p < 1.0:
        raise DimensionError("probability must lie strictly inside (0, 1)")
    if dof <= 0:
        raise DimensionError("degrees of freedom must be positive")
    a = 0.5 * dof
    # bracket the root
    lo, hi = 0.0, max(float(dof), 1.0)
    for _ in range(400):
        if chi2_cdf(hi, dof) >= p:
            break
        hi *= 2.0
    # Wilson-Hilferty start
    z = _normal_quantile(p)
    x = dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3
    if not (lo < x < hi):
        x = 0.5 * (lo + hi) if hi < math.inf else max(dof, 1.0)
    for _ in range(200):
        f = chi2_cdf(x, dof) - p
        if f >= 0:
            hi = x
        else:
            lo = x
        # log-space pdf avoids under/overflow in the tails
        logpdf = (a - 1.0) * math.log(x) - 0.5 * x - math.lgamma(a) - a * math.log(2.0)
        step = f * math.exp(-logpdf) if logpdf > -700 else 0.0
        xn = x - step
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-14 * max(x, 1e-300):
            x = xn
            break
        x = xn
    return x

def chi2_band(dof: int, runs: int, level: float = 0.95) -> tuple[float, float]:
    """Two-sided acceptance band for the average NEES over independent runs.

    The average of ``runs`` chi-square(dof) variables scaled by runs is
    chi-square with runs*dof degrees of freedom divided by runs, so the
    band is (q(alpha/2, runs*dof)/runs, q(1-alpha/2, runs*dof)/runs).
    """
    if dof < 1 or runs < 1:
        raise DimensionError("dof and runs must be at least 1")
    if not 0.0 < level < 1.0:
        raise DimensionError("level must lie in (0, 1)")
    alpha = 1.0 - level
    lo = chi2_quantile(alpha / 2.0, runs * dof) / runs
    hi = chi2_quantile(1.0 - alpha / 2.0, runs * dof) / runs
    return lo, hi


# ---------------------------------------------------------------------------
# point metrics

def nees(estimate: GaussianEstimate, truth) -> float:
    """Normalized estimation error squared, e^T P^-1 e."""
    truth = np.asarray(truth, dtype=float).reshape(-1)
    if truth.shape[0] != estimate.dim:
        raise DimensionError("truth vector size does not match the estimate")
    e = estimate.mean - truth
    try:
        return float(e @ np.linalg.solve(estimate.covariance, e))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("covariance is singular") from exc


# ---------------------------------------------------------------------------
# bound-convergence sweep

@dataclass(frozen=True)
class SweepStatistics:
    """Result of ``conservativeness_sweep``: curves over n, plus per-solve rows."""

    deviation: dict            # {"n", "median", "min", "max"}
    conservativeness: dict     # method -> {"n", "median", "min", "max"}
    rows: list                 # one SWEEP_CSV_COLUMNS row per (run, n, method)
    timings: dict              # stage -> wall seconds


SWEEP_PHASES = ("sample", "build", "solve", "check")
_CHUNK_RUNS = 25        # runs held at once: the sweep's memory grows with it, not with mc_runs


def conservativeness_sweep(p_a, p_b, pattern: CrossSparsityPattern,
                           n_values, mc_runs: int, seed: int, *,
                           solver_tol: float = 1e-6,
                           solver_max_iters: int = 200) -> SweepStatistics:
    """Bound-convergence and conservativeness study over sample-set sizes.

    Per run: draw one "true" cross-covariance and a nested stream of
    admissible samples; for each n solve the sampled program on the first
    n of them, then record the spectral-norm deviation between the
    block-wise intersection bound and the program optimum, and the
    smallest eigenvalue of (bound - realized covariance) for both
    methods under the true cross-covariance.  Nested sample sets make
    the deviation curve nonincreasing per run up to solver tolerance.

    The runs go in chunks of ``_CHUNK_RUNS``: every run is drawn and built
    (its samples dropped once its program holds them), all their sizes
    are solved in one lockstep ``sdp._solve_batch`` call, and every run is
    checked.  Each run's solutions are bitwise those of ``solve_prefixes``
    on its own program, so no row depends on the run count or on the
    other runs.  ``timings`` sums over chunks the wall seconds of
    ``sample`` (the true and the sampled cross-covariances), ``build``,
    ``solve`` and ``check`` (the margins and the rows).
    """
    n_values = [int(n) for n in n_values]
    if not n_values or min(n_values) < 1:
        raise DimensionError("n_values must be a non-empty list of positive sizes")
    if mc_runs < 1:
        raise DimensionError("mc_runs must be at least 1")
    _check_solver_args(solver_tol, solver_max_iters)
    seed = as_seed(seed)
    p_a = np.asarray(p_a, dtype=float)
    p_b = np.asarray(p_b, dtype=float)

    timings = dict.fromkeys(SWEEP_PHASES, 0.0)
    partition = partition_from_sparsity(pattern)
    zero_mean = np.zeros(partition.dim)
    a = GaussianEstimate(zero_mean, p_a)
    b = GaussianEstimate(zero_mean, p_b)
    nm = nmci_fuse(a, b, partition)
    dev = np.empty((mc_runs, len(n_values)))
    eig_sdp = np.empty((mc_runs, len(n_values)))
    eig_nm = np.empty(mc_runs)
    rows: list[dict] = []
    for start in range(0, mc_runs, _CHUNK_RUNS):
        runs = range(start, min(start + _CHUNK_RUNS, mc_runs))
        truths, problems = [], []
        for r in runs:
            clock = perf_counter()
            truths.append(sample_cross(p_a, p_b, pattern,
                                       make_substream_seed(seed, "truth", r)).p_ab)
            draws = sample_set(p_a, p_b, pattern, max(n_values),
                               make_substream_seed(seed, "samples", r))
            built = perf_counter()
            timings["sample"] += built - clock
            # the sample sets are nested, so each n's program is a prefix of one
            problems.append(build_problem(p_a, p_b, [s.p_ab for s in draws]))
            timings["build"] += perf_counter() - built
        clock = perf_counter()
        solutions = _solve_batch(problems, n_values, solver_tol, solver_max_iters)
        checked = perf_counter()
        timings["solve"] += checked - clock
        for r, truth, sols in zip(runs, truths, solutions):
            joint_true = JointCovariance(a.covariance, b.covariance, truth)
            realized_nm = realized_cov(nm.gain_a, nm.gain_b, joint_true)
            eig_nm[r] = float(np.linalg.eigvalsh(nm.bound - realized_nm)[0])
            for i, (n, sol) in enumerate(zip(n_values, sols)):
                dev[r, i] = float(np.linalg.norm(nm.bound - sol.bound, 2))
                realized = realized_cov(sol.gain_a, sol.gain_b, joint_true)
                eig_sdp[r, i] = float(np.linalg.eigvalsh(sol.bound - realized)[0])
                rows.append({"n": n, "run": r, "method": "SDP",
                             "deviation_2norm": float(dev[r, i]),
                             "min_eig_margin": float(eig_sdp[r, i]),
                             "bound_trace": float(np.trace(sol.bound)),
                             "solver_status": sol.status.value,
                             "solver_gap": sol.gap,
                             "newton_iterations": sol.newton_iterations,
                             "active_samples": sol.active_samples})
                rows.append({"n": n, "run": r, "method": "nmCI",
                             "deviation_2norm": 0.0,
                             "min_eig_margin": float(eig_nm[r]),
                             "bound_trace": float(np.trace(nm.bound)),
                             "solver_status": "", "solver_gap": 0.0,
                             "newton_iterations": "", "active_samples": ""})
        timings["check"] += perf_counter() - checked

    return SweepStatistics(
        deviation={"n": n_values,
                   "median": np.median(dev, axis=0).tolist(),
                   "min": dev.min(axis=0).tolist(),
                   "max": dev.max(axis=0).tolist()},
        conservativeness={
            "SDP": {"n": n_values,
                    "median": np.median(eig_sdp, axis=0).tolist(),
                    "min": eig_sdp.min(axis=0).tolist(),
                    "max": eig_sdp.max(axis=0).tolist()},
            "nmCI": {"n": n_values,
                     "median": [float(np.median(eig_nm))] * len(n_values),
                     "min": [float(eig_nm.min())] * len(n_values),
                     "max": [float(eig_nm.max())] * len(n_values)}},
        rows=rows, timings=timings)


# ---------------------------------------------------------------------------
# CSV / JSON emission

SWEEP_CSV_COLUMNS = ["n", "run", "method", "deviation_2norm", "min_eig_margin",
                     "bound_trace", "solver_status", "solver_gap",
                     "newton_iterations", "active_samples"]
TRACK_CSV_COLUMNS = ["run", "step", "method", "agent", "nees", "pos_error_norm",
                     "avg_two_sigma", "cov_trace"]
OMEGA_CSV_COLUMNS = ["run", "step", "method", "edge", "block", "omega"]
TRUTH_CSV_COLUMNS = ["run", "step", "label", "value"]

def sweep_blocks(rows):
    """The sweep's dict rows as one ``write_csv`` block."""
    yield ("%d,%d,%s,%.12g,%.12g,%.12g,%s,%.12g,%s,%s\r\n" * len(rows)
           % tuple(row[c] for row in rows for c in SWEEP_CSV_COLUMNS))

def write_csv(path, columns, blocks) -> None:
    """Write the header, then each text block of ``blocks`` as it comes.

    The blocks hold whole lines, floats as ``%.12g`` and CRLF line ends:
    the bytes ``csv.writer`` writes for the cells.  A generator of blocks
    (``sweep_blocks``, ``sim.track_blocks`` and the like) builds each one
    only when it is written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for text in blocks:
            fh.write(text)
