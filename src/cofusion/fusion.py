"""Closed-form fusion rules for pairs of Gaussian estimates.

Covariance intersection with a trace-optimal weight, its block-wise
variant for estimates whose unknown correlation cannot couple different
state blocks, and the minimum-variance rule for the (rare) case where
the cross-covariance is actually known.

``ci_fuse``, ``nmci_fuse`` and ``optimize_ci_omega`` check their inputs
and wrap a private core on covariance arrays (``_omega``, ``_ci``,
``_nmci``), which the tracker calls directly on its filters' covariances.
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
    check_spd,
    min_eigenvalue,
    symmetrize,
)

OMEGA_TOL = 1e-8
# relative off-block Frobenius mass block-wise fusion tolerates as zero
OFF_BLOCK_TOL = 1e-9
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


def _omega(p_a: np.ndarray, p_b: np.ndarray, tol: float = OMEGA_TOL) -> float:
    """``optimize_ci_omega`` on covariances known to be SPD, without checking them."""
    a, b = _trace_terms(p_a, p_b)
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


def _ci(p_a: np.ndarray, p_b: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """(gain of a, intersected covariance) of SPD covariances at weight w.

    At w = 0 (or 1) the bound is P_b (or P_a) itself; no solve is attempted.
    """
    d = p_a.shape[0]
    if w == 0.0:
        return np.zeros((d, d)), p_b
    if w == 1.0:
        return np.eye(d), p_a
    # with S = w*P_b + (1-w)*P_a, the intersected covariance is
    # P_b S^-1 P_a and the gain of a is w * P_b S^-1
    pb_sinv = np.linalg.solve(w * p_b + (1.0 - w) * p_a, p_b).T
    return w * pb_sinv, symmetrize(pb_sinv @ p_a)


def _nmci(p_a: np.ndarray, p_b: np.ndarray, partition: BlockPartition, strict: bool,
          tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, float]]:
    """Block-wise intersection of SPD covariances over a partition of their states.

    Returns (per-block weights, gain of a, bound, relative off-block mass
    dropped from P_a and P_b).  Off-block mass above tol (relative
    Frobenius) is an error in strict mode and dropped in lenient mode;
    dropping it leaves every block marginal as it is.
    """
    d = p_a.shape[0]
    off = np.ones((d, d), dtype=bool)
    for blk in partition.blocks:
        off[np.ix_(blk, blk)] = False
    dropped = []
    for p, which in ((p_a, "A"), (p_b, "B")):
        rel = float(np.linalg.norm(p[off])) / max(float(np.linalg.norm(p)), 1e-300)
        if rel <= tol:
            rel = 0.0
        elif strict:
            raise DimensionError(
                f"covariance {which} couples different partition blocks "
                f"(relative off-block mass {rel:.2e} > {tol:g}); "
                "use lenient mode to drop the coupling")
        dropped.append(rel)
    gain_a = np.zeros((d, d))
    bound = np.zeros((d, d))
    omegas = np.zeros(partition.n_blocks)
    for k, blk in enumerate(partition.blocks):
        ix = np.ix_(blk, blk)
        sub_a, sub_b = p_a[ix], p_b[ix]
        omegas[k] = _omega(sub_a, sub_b)
        gain_a[ix], bound[ix] = _ci(sub_a, sub_b, omegas[k])
    return omegas, gain_a, bound, tuple(dropped)


def _fused_mean(gain_a: np.ndarray, mean_a: np.ndarray, mean_b: np.ndarray) -> np.ndarray:
    """b's mean moved toward a's by gain_a, for (..., d) stacks of means.

    Rows where b gets no weight (gain_a's row is the identity's) keep a's
    mean as it is, so a weight of 1 returns a's mean exactly.
    """
    fused = mean_b + (gain_a @ (mean_a - mean_b)[..., None])[..., 0]
    kept = np.all(gain_a == np.eye(gain_a.shape[0]), axis=1)
    fused[..., kept] = mean_a[..., kept]
    return fused


def optimize_ci_omega(p_a: np.ndarray, p_b: np.ndarray, tol: float = OMEGA_TOL) -> float:
    """Weight minimizing the trace of the intersected covariance.

    ``p_a`` and ``p_b`` are covariance matrices; both must be SPD.  Two
    Cholesky factors and one SVD diagonalize both inputs at once, which
    turns the objective f(w) = trace((w*P_a^-1 + (1-w)*P_b^-1)^-1) into a
    scalar sum (Niehsen, FUSION 2002; Reinhardt, Noack & Hanebeck, FUSION
    2012).  f is convex on [0, 1], so its minimum is an endpoint where f'
    does not change sign, else the root of f', found by Newton steps
    safeguarded by bisection.  Exact ties (e.g. P_a == P_b) resolve to
    0.5; minima within tol of an endpoint snap onto it.
    """
    return _omega(check_spd(p_a, name="P_a"), check_spd(p_b, name="P_b"), tol)


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
        omega = _omega(a.covariance, b.covariance)
        source = "optimized"
    w = float(omega)
    if not (0.0 <= w <= 1.0):
        raise DimensionError(f"omega must lie in [0, 1], got {w}")
    ga, bound = _ci(a.covariance, b.covariance, w)
    return FusionResult(
        gain_a=ga, gain_b=np.eye(a.dim) - ga, fused_mean=_fused_mean(ga, a.mean, b.mean),
        bound=bound, method=FusionMethod.CI, omega=np.array([w]),
        diagnostics={"omega_source": source, "trace": float(np.trace(bound))})


def nmci_fuse(a: GaussianEstimate, b: GaussianEstimate, partition: BlockPartition,
              *, strict: bool = True, tol: float = OFF_BLOCK_TOL) -> FusionResult:
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
    omegas, ga, bound, (dropped_a, dropped_b) = _nmci(
        a.covariance, b.covariance, partition, strict, tol)
    return FusionResult(
        gain_a=ga, gain_b=np.eye(a.dim) - ga, fused_mean=_fused_mean(ga, a.mean, b.mean),
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
