"""Closed-form fusion rules for pairs of Gaussian estimates.

Covariance intersection with a trace-optimal weight, its block-wise
variant for estimates whose unknown correlation cannot couple different
state blocks, and the minimum-variance rule for the (rare) case where
the cross-covariance is actually known.

Monolithic intersection is block-wise intersection over a partition of
one block (Julier & Uhlmann, ACC 1997), so one private core, ``_nmci``,
serves both rules.  It works on block-diagonal covariances stored as
stacks of their diagonal blocks (see ``core.StackLayout``) and fuses
each piece with ``_ci``.  Stacks may carry leading batch axes, and
every batch entry is fused on its own, with the weights, gains and
bounds a call of its own would give.  The tracker calls it directly on
its filters' stacks, one batch entry per edge of a wave of edges that
share no agent; ``ci_fuse`` and ``nmci_fuse`` check their inputs and
pass a dense covariance, unbatched, as a stack of one block.
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
    StackLayout,
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
    inputs must be SPD.  For (..., n, n) stacks, one batched call per
    step gives each matrix's (..., n) terms.
    """
    low_a, low_b = np.linalg.cholesky(p_a), np.linalg.cholesky(p_b)
    u, _, zt = np.linalg.svd(np.linalg.solve(low_b, low_a))
    return (np.sum((low_a @ np.swapaxes(zt, -1, -2)) ** 2, axis=-2),
            np.sum((low_b @ u) ** 2, axis=-2))


def _weights(a: np.ndarray, b: np.ndarray, seg: np.ndarray, starts: np.ndarray,
             tol: float = OMEGA_TOL) -> list[float]:
    """Trace-optimal weight of each segment of the terms, every segment searched at once.

    Term i belongs to segment seg[i]; segments are contiguous and start
    at ``starts``.  Segment s's objective is sum(a*b / (a + w*(b - a)))
    over its terms.  Objective sums come from one batched evaluation for
    all segments, and each segment's search takes the steps a search of
    its own would take: every operation is elementwise or a sum within
    one segment.
    """
    ab, gap = a * b, b - a
    abgap = ab * gap

    def sums(x):
        return np.add.reduceat(x, starts, axis=-1)

    def derivatives(w):
        den = a + np.asarray(w)[..., seg] * gap
        t = abgap / den ** 2
        return (-sums(t)).tolist(), (2.0 * sums(t * gap / den)).tolist()

    n = starts.size
    (g0, g1), _ = derivatives([[0.0] * n, [1.0] * n])
    w = [0.0 if d0 >= 0.0 else 1.0 if d1 <= 0.0 else 0.5 for d0, d1 in zip(g0, g1)]
    # f' is increasing and changes sign inside [lo, hi] of each active segment
    active = [s for s in range(n) if not (g0[s] >= 0.0 or g1[s] <= 0.0)]
    lo, hi = [0.0] * n, [1.0] * n
    while True:
        active = [s for s in active if hi[s] - lo[s] > tol]
        if not active:
            break
        g, h = derivatives(w)
        searching = []
        for s in active:
            step = g[s] / h[s]
            if abs(step) < tol:
                w[s] -= step
                continue
            lo[s], hi[s] = (lo[s], w[s]) if g[s] > 0.0 else (w[s], hi[s])
            w[s] = w[s] - step if lo[s] < w[s] - step < hi[s] else 0.5 * (lo[s] + hi[s])
            searching.append(s)
        active = searching
    den = a + np.array([w, [0.5] * n, [0.0] * n, [1.0] * n])[:, seg] * gap
    fw, f_half, f_zero, f_one = sums(ab / den).tolist()
    out = []
    for s in range(n):
        slack = _TIE_RTOL * max(abs(fw[s]), 1.0)
        if abs(f_half[s] - fw[s]) <= slack:
            out.append(0.5)
        elif f_zero[s] <= fw[s] + slack or w[s] < tol:
            out.append(0.0)
        elif f_one[s] <= fw[s] + slack or w[s] > 1.0 - tol:
            out.append(1.0)
        else:
            out.append(w[s])
    return out


def _ci(p_a: np.ndarray, p_b: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    """(gain of a, intersected covariance) of SPD (..., n, n) stacks at weight w.

    ``w`` is one weight, or one per matrix of the stack.  Where it is 0
    (or 1) the bound is P_b (or P_a) itself and the gain exactly 0 (or I).
    """
    w = np.asarray(w, dtype=float)[..., None, None]
    # with S = w*P_b + (1-w)*P_a, the intersected covariance is
    # P_b S^-1 P_a and the gain of a is w * P_b S^-1
    pb_sinv = np.swapaxes(np.linalg.solve(w * p_b + (1.0 - w) * p_a, p_b), -1, -2)
    gain, bound = w * pb_sinv, symmetrize(pb_sinv @ p_a)
    if np.any((w == 0.0) | (w == 1.0)):
        # in place: the other gains keep their memory layout, so products
        # with them round as they would without these ends in the stack
        np.copyto(gain, 0.0, where=w == 0.0)
        np.copyto(gain, np.eye(p_a.shape[-1]), where=w == 1.0)
        np.copyto(bound, p_b, where=w == 0.0)
        np.copyto(bound, p_a, where=w == 1.0)
    return gain, bound


class _Pieces:
    """Where a partition's blocks lie in stacked covariances of one layout, for ``_nmci``.

    A piece is one stack block intersected with one partition block.
    ``groups`` holds (stack group, index, part) per stack group and piece
    size: ``index`` gathers those pieces from the group's (..., k, n, n)
    stack into a (..., u, m, m) one, and ``part`` names each piece's
    partition block.  Where the pieces are exactly the group's blocks,
    whole and in order (every block of CI's one-block partition, or of a
    partition made of stack blocks), ``index`` is ``...``: the stack is
    read as it is.  Their trace terms, concatenated group by group and
    taken in ``order``, run partition block by partition block (``seg``)
    from ``starts``.  ``off`` lists, per stack group, the flat entries of
    its (k, n, n) blocks outside every piece.
    """

    def __init__(self, layout: StackLayout, partition: BlockPartition):
        part_of = np.empty(layout.dim, dtype=np.intp)
        for p, blk in enumerate(partition.blocks):
            part_of[list(blk)] = p
        pieces: dict[tuple[int, int], list] = {}
        self.off = []
        for g, states in enumerate(layout.groups):
            parts = part_of[states]
            self.off.append(np.flatnonzero(parts[:, :, None] != parts[:, None, :]))
            for blk, row in enumerate(parts.tolist()):
                by_part: dict[int, list[int]] = {}
                for i, p in enumerate(row):
                    by_part.setdefault(p, []).append(i)
                for p, pos in sorted(by_part.items()):
                    pieces.setdefault((g, len(pos)), []).append((blk, pos, p))
        self.groups, term_part = [], []
        for (g, m), items in pieces.items():
            blk, pos, part = (np.array(column) for column in zip(*items))
            index = ... if (blk.size, m) == layout.groups[g].shape \
                else (..., blk[:, None, None], pos[:, :, None], pos[:, None, :])
            self.groups.append((g, index, part))
            term_part.append(np.repeat(part, m))
        term_part = np.concatenate(term_part)
        self.order = np.argsort(term_part, kind="stable")
        self.seg = term_part[self.order]
        self.starts = np.searchsorted(self.seg, np.arange(partition.n_blocks))


def _off_mass(p, off) -> np.ndarray:
    """Relative Frobenius mass of the entries ``off`` lists, per batch entry of stacks ``p``."""
    flat = [s.reshape(s.shape[:-3] + (-1,)) for s in p]
    if not any(ix.size for ix in off):
        return np.zeros(flat[0].shape[:-1])
    part = sum(np.sum(x[..., ix] ** 2, axis=-1) for x, ix in zip(flat, off))
    whole = sum(np.sum(x ** 2, axis=-1) for x in flat)
    return np.sqrt(part) / np.maximum(np.sqrt(whole), 1e-300)


def _nmci(p_a, p_b, pieces: _Pieces, strict: bool, tol: float):
    """Block-wise intersection of SPD stacked covariances over a partition of their states.

    ``p_a`` and ``p_b`` are sequences of (..., k, n, n) stacks of the
    layout ``pieces`` was built on; all share one leading batch shape, and
    each batch entry is one intersection.  Returns (per-block weights,
    gain of a, bound, relative off-block mass dropped from P_a and P_b):
    the weights (..., blocks), the gain and bound as stacks, and each
    dropped mass a float, or a nested list over the batch.  Off-block
    mass above tol (relative Frobenius) is an error in strict mode and
    dropped in lenient mode; dropping it leaves every block marginal as
    it is.  A strict-mode error names, in its ``entry`` attribute, the
    flat index of the first batch entry that fails.  One batched call per
    piece group gives the trace terms of every batch entry, and one
    search finds every weight: each batch entry's partition blocks are
    segments of their own, searched as an unbatched call searches them.
    """
    rel = np.array([_off_mass(p, pieces.off) for p in (p_a, p_b)])
    rel[rel <= tol] = 0.0
    if strict and np.any(rel):
        per_entry = rel.reshape(2, -1)
        entry = int(np.argmax(np.any(per_entry, axis=0)))
        side = int(per_entry[0, entry] == 0.0)
        exc = DimensionError(
            f"covariance {'AB'[side]} couples different partition blocks "
            f"(relative off-block mass {per_entry[side, entry]:.2e} > {tol:g}); "
            "use lenient mode to drop the coupling")
        exc.entry = entry
        raise exc
    sub_a = [p_a[g][ix] for g, ix, _ in pieces.groups]
    sub_b = [p_b[g][ix] for g, ix, _ in pieces.groups]
    terms = [_trace_terms(sa, sb) for sa, sb in zip(sub_a, sub_b)]
    batch = rel.shape[1:]
    a, b = (np.concatenate([t[i].reshape(batch + (-1,)) for t in terms], axis=-1)
            [..., pieces.order] for i in (0, 1))
    n_terms, n_blocks = a.shape[-1], pieces.starts.size
    entries = np.arange(a.size // n_terms)[:, None]     # flat batch index
    omegas = np.reshape(_weights(a.ravel(), b.ravel(), (entries * n_blocks + pieces.seg).ravel(),
                                 (entries * n_terms + pieces.starts).ravel()),
                        batch + (n_blocks,))
    gain_a, bound = [None] * len(p_a), [None] * len(p_a)
    for (g, ix, part), sa, sb in zip(pieces.groups, sub_a, sub_b):
        if ix is ...:   # bind: a copy would change the layout, so the roundoff, of products
            gain_a[g], bound[g] = _ci(sa, sb, omegas[..., part])
            continue
        if gain_a[g] is None:
            gain_a[g], bound[g] = np.zeros_like(p_a[g]), np.zeros_like(p_a[g])
        gain_a[g][ix], bound[g][ix] = _ci(sa, sb, omegas[..., part])
    return omegas, gain_a, bound, tuple(rel.tolist())


def _fused_mean(gain_a: np.ndarray, mean_a: np.ndarray, mean_b: np.ndarray) -> np.ndarray:
    """b's mean moved toward a's by gain_a, for (..., n) means and (..., n, n) gains.

    The gains' leading axes broadcast against the means': a (k, n, n)
    stack moves (runs, k, n) means, an (edges, k, n, n) one (runs, edges,
    k, n) means.  Rows where b gets no weight (gain_a's row is the
    identity's) keep a's mean as it is, so a weight of 1 returns a's mean
    exactly.
    """
    fused = mean_b + (gain_a @ (mean_a - mean_b)[..., None])[..., 0]
    kept = np.all(gain_a == np.eye(gain_a.shape[-1]), axis=-1)
    return np.where(kept, mean_a, fused)


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
    a, b = _trace_terms(check_spd(p_a, name="P_a"), check_spd(p_b, name="P_b"))
    return _weights(a, b, np.zeros(a.size, dtype=np.intp), np.zeros(1, dtype=np.intp), tol)[0]


def _dense_nmci(a: GaussianEstimate, b: GaussianEstimate, partition: BlockPartition,
                strict: bool = True, tol: float = OFF_BLOCK_TOL):
    """``_nmci`` on two estimates' covariances as stacks of one block, gain and bound (d, d)."""
    omegas, (ga,), (bound,), dropped = _nmci(
        (a.covariance[None],), (b.covariance[None],),
        _Pieces(StackLayout([range(a.dim)]), partition), strict, tol)
    return omegas, ga[0], bound[0], dropped


def ci_fuse(a: GaussianEstimate, b: GaussianEstimate,
            omega: float | None = None) -> FusionResult:
    """Covariance intersection of two same-state estimates.

    With weight w the fused information is w*P_a^-1 + (1-w)*P_b^-1, which
    is conservative for every admissible correlation between the inputs.
    ``omega=None`` picks the trace-optimal weight.  At w = 0 (or 1) the
    result is exactly estimate b (or a); no solve is attempted there.
    """
    _check_same_labels(a, b)
    if omega is None:
        (w,), ga, bound, _ = _dense_nmci(a, b, BlockPartition((tuple(range(a.dim)),)))
        source = "optimized"
    else:
        w, source = float(omega), "given"
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
    omegas, ga, bound, (dropped_a, dropped_b) = _dense_nmci(a, b, partition, strict, tol)
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
