"""Closed-form fusion rules for pairs of Gaussian estimates.

Covariance intersection with a trace-optimal weight, its block-wise
variant for estimates whose unknown correlation cannot couple different
state blocks, and the minimum-variance rule for the (rare) case where
the cross-covariance is actually known.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BlockPartition,
    DimensionError,
    FusionMethod,
    FusionResult,
    GaussianEstimate,
    JointCovariance,
    NotPositiveDefiniteError,
    _derived,
    check_spd,
    min_eigenvalue,
    symmetrize,
)

OMEGA_TOL = 1e-8
# relative objective difference below which two weights count as tied
_TIE_RTOL = 1e-12


def _check_same_labels(a: GaussianEstimate, b: GaussianEstimate) -> None:
    if a.labels == b.labels:
        return
    if set(a.labels) == set(b.labels):
        raise DimensionError(
            "estimates carry the same labels in different orders; "
            "call .reindex() on one of them before fusing")
    raise DimensionError("estimates describe different state vectors")


def _trace_terms(p_a: np.ndarray, p_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with trace((w*P_a^-1 + (1-w)*P_b^-1)^-1) = sum(a*b / (w*b + (1-w)*a)).

    With P_a = R R^T, P_b = L L^T and the SVD L^-1 R = U diag(s) Z^T, the
    columns of V = L U diagonalize both inputs: P_a = V diag(s^2) V^T and
    P_b = V V^T.  a and b are the variances of P_a and P_b along those
    directions, the squared column norms of R Z and L U.  Taking them from
    singular vectors, rather than as s^2 times a norm, keeps both accurate
    when the ratios s^2 span more decades than float64 resolves.  Both
    inputs must be SPD.
    """
    low_a, low_b = np.linalg.cholesky(p_a), np.linalg.cholesky(p_b)
    u, _, zt = np.linalg.svd(np.linalg.solve(low_b, low_a))
    return np.sum((low_a @ zt.T) ** 2, axis=0), np.sum((low_b @ u) ** 2, axis=0)


def optimize_ci_omega(p_a: np.ndarray | GaussianEstimate, p_b: np.ndarray | GaussianEstimate,
                      tol: float = OMEGA_TOL) -> float:
    """Weight minimizing the trace of the intersected covariance.

    ``p_a`` and ``p_b`` are covariance matrices, checked here, or
    GaussianEstimate values, whose covariances were checked when built.
    Two Cholesky factors and one SVD diagonalize both inputs at once, which
    turns the objective f(w) = trace((w*P_a^-1 + (1-w)*P_b^-1)^-1) into a
    scalar sum (Niehsen, FUSION 2002; Reinhardt, Noack & Hanebeck, FUSION
    2012).  f is convex on [0, 1], so its minimum is an endpoint where f'
    does not change sign, else the root of f', found by Newton steps
    safeguarded by bisection.  Exact ties (e.g. P_a == P_b) resolve to
    0.5; minima within tol of an endpoint snap onto it.
    """
    covs = [x.covariance if isinstance(x, GaussianEstimate) else check_spd(x, name=name)
            for x, name in ((p_a, "P_a"), (p_b, "P_b"))]
    a, b = _trace_terms(*covs)
    ab, gap = a * b, b - a

    def f(w: float) -> float:
        return float(np.sum(ab / (a + w * gap)))

    def derivatives(w: float) -> tuple[float, float]:
        den = a + w * gap
        t = ab * gap / den ** 2
        return -float(np.sum(t)), 2.0 * float(np.sum(t * gap / den))

    if derivatives(0.0)[0] >= 0.0:
        w = 0.0
    elif derivatives(1.0)[0] <= 0.0:
        w = 1.0
    else:
        # f' is increasing and changes sign inside [lo, hi]
        lo, hi, w = 0.0, 1.0, 0.5
        while hi - lo > tol:
            g, h = derivatives(w)
            step = g / h
            if abs(step) < tol:
                w -= step
                break
            lo, hi = (lo, w) if g > 0.0 else (w, hi)
            w = w - step if lo < w - step < hi else 0.5 * (lo + hi)
    fw = f(w)
    scale = max(abs(fw), 1.0)
    if abs(f(0.5) - fw) <= _TIE_RTOL * scale:
        return 0.5
    if f(0.0) <= fw + _TIE_RTOL * scale or w < tol:
        return 0.0
    if f(1.0) <= fw + _TIE_RTOL * scale or w > 1.0 - tol:
        return 1.0
    return w


def ci_fuse(a: GaussianEstimate, b: GaussianEstimate,
            omega: float | None = None) -> FusionResult:
    """Covariance intersection of two same-state estimates.

    With weight w the fused information is w*P_a^-1 + (1-w)*P_b^-1, which
    is conservative for every admissible correlation between the inputs.
    ``omega=None`` picks the trace-optimal weight.  At w = 0 (or 1) the
    result is exactly estimate b (or a); no solve is attempted there.
    """
    _check_same_labels(a, b)
    source = "given"
    if omega is None:
        omega = optimize_ci_omega(a, b)
        source = "optimized"
    w = float(omega)
    if not (0.0 <= w <= 1.0):
        raise DimensionError(f"omega must lie in [0, 1], got {w}")
    d = a.dim
    eye = np.eye(d)
    if w == 0.0:
        ga, bound, mean = np.zeros((d, d)), np.array(b.covariance), np.array(b.mean)
    elif w == 1.0:
        ga, bound, mean = eye.copy(), np.array(a.covariance), np.array(a.mean)
    else:
        # with S = w*P_b + (1-w)*P_a, the intersected covariance is
        # P_b S^-1 P_a and the gain of a is w * P_b S^-1
        pb_sinv = np.linalg.solve(w * b.covariance + (1.0 - w) * a.covariance,
                                  b.covariance).T
        bound = symmetrize(pb_sinv @ a.covariance)
        ga = w * pb_sinv
        mean = b.mean + ga @ (a.mean - b.mean)
    return _derived(
        FusionResult, gain_a=ga, gain_b=eye - ga, fused_mean=mean, bound=bound,
        method=FusionMethod.CI, omega=np.array([w]),
        diagnostics={"omega_source": source, "trace": float(np.trace(bound))})


def nmci_fuse(a: GaussianEstimate, b: GaussianEstimate, partition: BlockPartition,
              *, strict: bool = True, tol: float = 1e-9) -> FusionResult:
    """Block-wise covariance intersection with an independent weight per block.

    Valid when each input covariance is block-diagonal over ``partition``
    and the unknown cross-correlation cannot couple different blocks; the
    result then never has a larger trace than monolithic intersection.
    In strict mode a covariance with off-block mass above tol (relative
    Frobenius) is an error; in lenient mode the off-block entries are
    dropped first and the dropped mass is reported in the diagnostics.
    """
    _check_same_labels(a, b)
    if partition.dim != a.dim:
        raise DimensionError(
            f"partition covers {partition.dim} states but estimates have {a.dim}")

    off = np.ones((a.dim, a.dim), dtype=bool)
    for blk in partition.blocks:
        off[np.ix_(blk, blk)] = False

    def _dropped(est: GaussianEstimate, which: str) -> float:
        mass = float(np.linalg.norm(est.covariance[off]))
        rel = mass / max(float(np.linalg.norm(est.covariance)), 1e-300)
        if rel <= tol:
            return 0.0
        if strict:
            raise DimensionError(
                f"covariance {which} couples different partition blocks "
                f"(relative off-block mass {rel:.2e} > {tol:g}); "
                "use lenient mode to drop the coupling")
        return rel

    dropped_a = _dropped(a, "A")
    dropped_b = _dropped(b, "B")

    # dropping the off-block entries leaves every block marginal as it is
    d = a.dim
    gain_a = np.zeros((d, d))
    bound = np.zeros((d, d))
    mean = np.zeros(d)
    omegas = np.zeros(partition.n_blocks)
    for k, blk in enumerate(partition.blocks):
        sub = ci_fuse(a.marginal(blk), b.marginal(blk))
        ix = np.ix_(blk, blk)
        gain_a[ix] = sub.gain_a
        bound[ix] = sub.bound
        mean[list(blk)] = sub.fused_mean
        omegas[k] = float(sub.omega[0])
    return _derived(
        FusionResult, gain_a=gain_a, gain_b=np.eye(d) - gain_a, fused_mean=mean,
        bound=bound, method=FusionMethod.NMCI, omega=omegas,
        diagnostics={"strict": strict, "dropped_mass_a": dropped_a,
                     "dropped_mass_b": dropped_b, "trace": float(np.trace(bound))})


def exact_fuse(a: GaussianEstimate, b: GaussianEstimate, p_ab: np.ndarray,
               tol: float = 1e-9) -> FusionResult:
    """Minimum-variance fusion when the cross-covariance is known.

    Gains follow from minimizing the fused covariance subject to the
    gains summing to identity; the innovation-like term
    S = P_a + P_b - P_ab - P_ab^T is inverted by pseudo-inverse so that
    degenerate joints (e.g. two copies of the same estimate) still fuse.
    The joint covariance must be positive semidefinite within tol.
    """
    _check_same_labels(a, b)
    joint = JointCovariance(a.covariance, b.covariance, p_ab)
    g = joint.assembled()
    scale = max(float(np.linalg.norm(g, 2)), 1.0)
    if min_eigenvalue(g) < -tol * scale:
        raise NotPositiveDefiniteError(
            "joint covariance is indefinite; the stated cross-covariance "
            "is inconsistent with the marginals")
    s = symmetrize(a.covariance + b.covariance - p_ab - np.asarray(p_ab).T)
    ga = (b.covariance - np.asarray(p_ab, dtype=float).T) @ np.linalg.pinv(s, hermitian=True)
    gb = np.eye(a.dim) - ga
    bound = realized_cov(ga, gb, joint)
    mean = ga @ a.mean + gb @ b.mean
    return FusionResult(
        gain_a=ga, gain_b=gb, fused_mean=mean, bound=bound,
        method=FusionMethod.EXACT, omega=None,
        diagnostics={"innovation_rank": int(np.linalg.matrix_rank(s, tol=1e-10 * scale)),
                     "trace": float(np.trace(bound))})


def realized_cov(gain_a: np.ndarray, gain_b: np.ndarray,
                 joint: JointCovariance) -> np.ndarray:
    """Covariance actually achieved by linear gains under a given joint.

    Returns [K_a K_b] J [K_a K_b]^T, symmetrized.  This is what the fused
    error covariance really is when the joint covariance happens to be J,
    regardless of which bound the gains were designed against.
    """
    ga = np.asarray(gain_a, dtype=float)
    gb = np.asarray(gain_b, dtype=float)
    if ga.ndim != 2 or gb.ndim != 2 or ga.shape[0] != gb.shape[0]:
        raise DimensionError("gains must be matrices with equal row counts")
    if ga.shape[1] != joint.dim_a or gb.shape[1] != joint.dim_b:
        raise DimensionError("gain columns do not match the joint covariance blocks")
    k = np.hstack([ga, gb])
    return symmetrize(k @ joint.assembled() @ k.T)
