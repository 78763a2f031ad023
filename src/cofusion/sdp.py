"""Sampled conservative-fusion program and the embedded solver for it.

The fusion gains and bound are the minimizers of

    minimize    trace(Pbar)
    subject to  [[Pbar, K], [K^T, J_i^{-1}]] >= 0   for every sampled
                joint covariance J_i,  K = [K_a, I - K_a],

which by the Schur complement says exactly that Pbar dominates the fused
covariance K J_i K^T realized under each sample.  K_b is eliminated as
I - K_a, so the unknowns are K_a (d*d entries) and the upper triangle of
Pbar (d(d+1)/2 entries).

The embedded solver is a primal log-det barrier method with damped
Newton centering and a geometric schedule on the path parameter.
Problem sizes here are tiny (blocks of side 3d with d <= ~8, up to a few
thousand samples), so this is both adequate and keeps the package free
of solver dependencies.  Each block G_i is handled through its d x d
slack C_i = Pbar - K J_i K^T, the Schur complement of the constant
J_i^{-1} block: G_i is PD exactly when C_i is, logdet G_i =
logdet C_i - logdet J_i, and S_i = G_i^{-1} has blocks C_i^{-1},
-C_i^{-1} K J_i and J_i + J_i K^T C_i^{-1} K J_i (Boyd & Vandenberghe,
section A.5.5).  The samples sit on the last axis: the joints are one
(2d, 2d, n) array, and a feasibility test factors all n slacks as
C_i = L_i D_i L_i^T (Cholesky without square roots) with one
``core.ldl_pivots`` call, whose elimination is unrolled over (n,)
vectors, and takes logdet from the pivots D_i.  Assembly gates every
joint J_i on its pivots from the same kernel, which give log det J_i too.

Derivatives in 2d coordinates: K_b = I - K_a leaves 2d independent
directions.  With T = [[I, 0, 0], [0, I, -I]] (2d x 3d), each basis
matrix is A_k = T^T B_k T for a 2d x 2d B_k (``_coords``), so
tr(S_i A_k S_i A_l) = tr(R_i B_k R_i B_l) with R_i = T S_i T^T =
N_i^T D_i^-1 N_i + blockdiag(0, E_i), N_i = L_i^-1 [I, -(K J_i[:, :d] -
K J_i[:, d:])] by forward substitution, and E_i = P_a + P_b - X_i - X_i^T
for the cross block X_i.  The upper entries of all R_i form one
(d(2d+1), n) array: the gradient is a row sum of it, and each Hessian
entry is two entries of its Gram matrix.

Feasibility is judged on the slacks alone: ``min_slack_eig`` is the least
eigenvalue of all n slacks C_i at the returned point, in the units of
the covariances.  It scales with them, as the objective does, whereas
the full blocks mix the units of Pbar with those of J_i^{-1}.

Certification: every Newton step dx at path parameter t, taken where
the barrier Hessian solves without regularization and the decrement
lambda is below 1, yields a dual-feasible point
Z_i = (S_i - S_i dF S_i) / t, with S_i = G_i^{-1} for the LMI blocks G_i
and dF = sum_k dx_k A_k (Boyd & Vandenberghe, Convex Optimization,
sections 11.2-11.3 and 11.6).  Its duality gap is (nu + grad_phi . dx) / t,
nu = 3*d*n, so it proves a lower bound on the optimum without assuming
exact centering.  The reported ``gap`` is (objective - best such lower
bound) / |objective|, a guaranteed relative optimality gap of the
returned point, and ``inf`` when no step was ever certified.

Active set: at most m = d*d + d(d+1)/2 sampled LMIs (the number of
unknowns) support the optimum (Calafiore & Campi, IEEE TAC 51(5), 2006),
so a solve is one loop of barrier rounds (``_rounds``) on an active
subset of the samples, starting with the first min(n, ACTIVE_FACTOR * m).
A round (``_barrier``) returns only its iterate, status, Newton steps and
certified lower bound; the loop tests every slack at that iterate with
one batched d x d ``eigvalsh``.  A set that holds every sample from the
start is one round straight to ``tol``.  Otherwise each new active set is
first solved to the relative gap _SCREEN_TOL.  If that point violates
samples, they join the set together with the _NEAR * m samples nearest
to violation, and the next round starts afresh; if it violates none, the
same path goes on to ``tol`` and the slacks are tested again.  The loop
ends when all n slacks are positive definite at a point certified to
``tol``, or when the budget runs out.  The program on a subset of the
samples is a relaxation of the full one, so each round's certified lower
bound also bounds the full optimum, and ``gap`` is taken against the
best of them.  When the Newton budget runs out with violated samples
left, the subset point (Pbar, K) is repaired to (Pbar + delta I, K),
with delta just above the worst slack violation: every one of the n LMIs
then holds strictly, and the objective pays d * delta.

Nested prefixes: ``solve_prefixes`` solves the program on the first
n_1, n_2, ... samples in one pass, and ``solve`` is its one-prefix case.
When two or more prefixes are longer than _SHARED_FACTOR * m samples,
each starts its loop on the first _SHARED_FACTOR * m.  Until a prefix's
active set grows, its rounds have the same samples, tolerance, steps
left and resumed point as the other prefixes', so each such round runs
once per call, with its slack check taken over the longest sharing
prefix (each prefix reads its own first n).  A prefix that grows its set,
or whose point is repaired, goes on alone; no prefix's path depends on
another's samples, and its status and ``min_slack_eig`` are its own.

Centering: a stage centers until lambda^2 / 2 <= _NEWTON_EPS, and a round
stops at the first Newton step that certifies its tolerance, centered or
not.  Near the end of the path the float64 roundoff of the barrier
objective psi = t * trace(Pbar) - logdet swamps any absolute stopping
rule, so centering also ends when lambda^2 / 2 falls below that roundoff,
or when an accepted step lowers psi by no more than it (no progress; the
step is discarded).  A stage that raises the certified lower bound no
further means the tolerance is out of float64's reach: the solve ends
there with ``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from enum import Enum

import numpy as np

from .core import (
    DimensionError,
    FusionMethod,
    FusionResult,
    GaussianEstimate,
    NotPositiveDefiniteError,
    SolverError,
    check_spd,
    ldl_pivots,
    make_substream_seed,
    symmetrize,
)
from .fusion import _check_same_labels
from .sampler import CrossSparsityPattern, sample_cross, sample_set

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200
# a joint covariance whose Cholesky pivots are not all at least this (its
# LDL^T pivots at least MIN_PIVOT**2) rejects the sample
MIN_PIVOT = 1e-10
# geometric increase of the path parameter (gap shrinks by 0.2 per stage)
T_GROWTH = 5.0
# lambda^2 / 2 at which a stage counts as centered (lambda <= 0.014; the gap
# certificate needs only lambda < 1).  Near the end of the path the roundoff
# of psi (about _ROUNDOFF * |psi|) is larger and takes its place
_NEWTON_EPS = 1e-4
_ROUNDOFF = float(np.finfo(float).eps)
# the first active set holds ACTIVE_FACTOR * m samples, m the number of
# unknowns; chosen from timings of whole against active-set solves at
# d = 1..3, n = 50..2000 (CHANGES.md)
ACTIVE_FACTOR = 16
# nested prefixes longer than _SHARED_FACTOR * m samples start on that many and
# share their rounds until their sets grow ("Nested prefixes" above); each
# growth is paid per prefix: 16 of 288 prefixes of n >= 200 grew, 51 at 16 * m
_SHARED_FACTOR = 24
# each new active set is first solved to this relative gap, where the
# samples it misses already show, at about 60% of the Newton steps to 1e-7
_SCREEN_TOL = 1e-2
# a round adds the violated samples and the _NEAR * m nearest to violation;
# without these, a last round often re-solved the path for one or two samples
_NEAR = 2
# a repaired point clears the worst slack violation by this relative margin
_REPAIR_MARGIN = 1e-9


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE_NUMERICS = "infeasible_numerics"


@dataclass(frozen=True, eq=False)
class SampledFusionProblem:
    """Marginals and sampled joints, ready to solve.

    ``joints`` stacks the joint covariances J_i, ``log_pivots`` the logs
    of each J_i's Cholesky pivots, and ``joint_logdet`` is
    sum_i logdet J_i, twice their sum.
    """

    p_a: np.ndarray
    p_b: np.ndarray
    joints: np.ndarray
    joint_logdet: float
    log_pivots: np.ndarray
    d: int

    @property
    def n(self) -> int:
        return len(self.joints)

    @property
    def samples(self) -> np.ndarray:
        """The (n, d, d) cross-covariance samples, a read-only view of ``joints``."""
        view = self.joints[:, :self.d, self.d:]
        view.flags.writeable = False
        return view


def build_problem(p_a, p_b, samples) -> SampledFusionProblem:
    """Assemble the sampled program; gates each joint once.

    Each sample is a d x d cross-covariance; the implied joint
    [[P_a, S], [S^T, P_b]] must be positive definite with every LDL^T
    pivot at least MIN_PIVOT**2 (every Cholesky pivot at least 1e-10),
    otherwise the sample is rejected (the raised error carries
    ``sample_index``, the first such sample, so callers can redraw it).
    """
    p_a = check_spd(p_a, name="P_a")
    p_b = check_spd(p_b, name="P_b")
    d = p_a.shape[0]
    if p_b.shape[0] != d:
        raise DimensionError("marginals must have equal dimension")
    if not len(samples):
        raise DimensionError("at least one sample is required")
    try:
        stack = np.array(samples, dtype=float)
    except ValueError:   # ragged, or not numbers
        stack = None
    if stack is None or stack.shape[1:] != (d, d):
        # name the first sample of the wrong shape; with none, the samples
        # are not numbers and the conversion raises again
        for i, s in enumerate(samples):
            if np.shape(s) != (d, d):
                raise DimensionError(f"sample {i} has shape {np.shape(s)}, "
                                     f"expected ({d}, {d})")
        stack = np.array(samples, dtype=float)
    n = len(stack)
    joints = np.empty((n, 2 * d, 2 * d))
    joints[:, :d, :d] = p_a
    joints[:, d:, d:] = p_b
    joints[:, :d, d:] = stack
    joints[:, d:, :d] = stack.transpose(0, 2, 1)
    pivots = ldl_pivots(joints.transpose(1, 2, 0).copy())
    # a nan pivot (a sample that is not finite) fails too
    bad = np.flatnonzero(~(pivots.min(axis=0) >= MIN_PIVOT ** 2))
    if bad.size:
        err = NotPositiveDefiniteError(
            f"sample {bad[0]}: joint covariance fails the conditioning "
            f"threshold (Cholesky pivot < {MIN_PIVOT:g})")
        err.sample_index = int(bad[0])
        raise err
    joints.flags.writeable = False
    log_pivots = 0.5 * np.log(pivots.T)
    log_pivots.flags.writeable = False
    return SampledFusionProblem(p_a=p_a, p_b=p_b, joints=joints,
                                joint_logdet=2.0 * float(np.sum(log_pivots)),
                                log_pivots=log_pivots, d=d)


def _subset(problem: SampledFusionProblem, idx) -> SampledFusionProblem:
    """The program on the samples ``idx`` (an index array or a slice) selects.

    Equal to ``build_problem`` on those samples, without factoring a
    joint again.
    """
    log_pivots = problem.log_pivots[idx]
    return SampledFusionProblem(
        p_a=problem.p_a, p_b=problem.p_b, joints=problem.joints[idx],
        joint_logdet=2.0 * float(np.sum(log_pivots)), log_pivots=log_pivots, d=problem.d)


@dataclass(frozen=True, eq=False)
class SdpSolution:
    gain_a: np.ndarray
    gain_b: np.ndarray
    bound: np.ndarray
    objective: float
    status: SolveStatus
    gap: float
    newton_iterations: int
    min_slack_eig: float
    active_samples: int


@lru_cache(maxsize=None)
def _coords(d: int):
    """(iu, sym, cvec, upper, pair, w, hess_at): the coordinates at d.

    x holds Pbar's upper entries (at ``iu``; ``sym`` maps Pbar to x), then
    K_a row by row; the objective is cvec . x.  B_k = w_k (e_p e_q^T +
    e_q e_p^T) with (p, q) the ``pair[k]``-th of the 2d x 2d upper entries
    (flat indices ``upper``, np.triu_indices order): w_k is 1/2 on Pbar's
    diagonal, else 1.  With g the Gram matrix of the upper entries of the
    R_i, H_kl = 2 w_k w_l (g.flat[hess_at[0]] + g.flat[hess_at[1]])[k, l].
    """
    iu = np.triu_indices(d)
    sym = np.empty((d, d), dtype=int)
    sym[iu] = sym[iu[::-1]] = np.arange(len(iu[0]))
    cvec = np.concatenate([iu[0] == iu[1], np.zeros(d * d)])
    ur, uc = np.triu_indices(2 * d)
    at = np.empty((2 * d, 2 * d), dtype=int)
    at[ur, uc] = at[uc, ur] = np.arange(len(ur))
    p = np.concatenate([iu[0], np.arange(d * d) // d])[:, None]
    q = np.concatenate([iu[1], d + np.arange(d * d) % d])[:, None]
    # tr(R B_k R B_l) = 2 w_k w_l (R_ps R_qr + R_pr R_qs), (r, s) = pair[l]
    t = len(ur)
    hess_at = np.stack([at[p, q.T] * t + at[q, p.T], at[p, p.T] * t + at[q, q.T]])
    out = (iu, sym, cvec, ur * 2 * d + uc, at[p, q][:, 0], np.where(p == q, 0.5, 1.0)[:, 0],
           hess_at)
    for arr in (*iu, *out[1:]):
        arr.flags.writeable = False
    return out


class _Workspace:
    """Coordinates and evaluators for one problem instance."""

    def __init__(self, problem: SampledFusionProblem):
        d, n = problem.d, problem.n
        self.iu, self.sym, self.cvec, self.upper, self.pair, w, self.hess_at = _coords(d)
        self.grad_w, self.hess_w = 2.0 * w, 2.0 * np.outer(w, w)
        self.d, self.n, self.npv, self.m = d, n, len(self.iu[0]), len(self.cvec)
        self.problem = problem
        self.joints = np.ascontiguousarray(problem.joints.transpose(1, 2, 0))   # batch last
        # the upper triangle of E_i = P_a + P_b - X_i - X_i^T, X_i the cross block
        cross = self.joints[:d, d:]
        self.e_upper = ((problem.p_a + problem.p_b)[:, :, None] - cross
                        - cross.transpose(1, 0, 2))[self.iu]
        self.eye = np.eye(d)

    def pack(self, pbar: np.ndarray, ka: np.ndarray) -> np.ndarray:
        return np.concatenate([pbar[self.iu], ka.reshape(-1)])

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[self.sym], x[self.npv:].reshape(self.d, self.d)

    def _slack_last(self, x: np.ndarray):
        """(C, K J) at x, batch last: the slacks C_i = Pbar - K J_i K^T as a
        (d, d, n) array and the K J_i as a (d, 2d, n) one."""
        d = self.d
        pbar, ka = self.unpack(x)
        k = np.concatenate([ka, self.eye - ka], axis=1)
        kj = (k @ self.joints.reshape(2 * d, -1)).reshape(d, 2 * d, self.n)
        # k @ kj[a] is row a of every K J_i K^T
        return pbar[:, :, None] - k @ kj, kj

    def slacks(self, x: np.ndarray):
        """(C_i, K J_i) at x, with C_i = Pbar - K J_i K^T the d x d slacks,
        as (n, d, d) and (n, d, 2d) views of the batch-last arrays."""
        return tuple(a.transpose(2, 0, 1) for a in self._slack_last(x))

    def chol_logdet(self, x: np.ndarray):
        """(factors, sum_i logdet G_i) when x is strictly feasible, else (None, -inf).

        Only the slacks are factored, as C = L D L^T by ``core.ldl_pivots``;
        x is strictly feasible exactly when every pivot is positive and
        finite, that is when logdet is finite.  ``factors`` is (the
        eliminated slacks, their pivots, K J).
        """
        ldl, kj = self._slack_last(x)
        pivots = ldl_pivots(ldl)
        # a pivot that is not positive makes logdet nan or -inf
        with np.errstate(divide="ignore", invalid="ignore"):
            logdet = float(np.sum(np.log(pivots)))
        if not np.isfinite(logdet):
            return None, -np.inf
        return (ldl, pivots, kj), logdet - self.problem.joint_logdet

    def barrier_grad_hess(self, factors):
        """Gradient and Hessian of -sum_i logdet G_i at the point ``factors`` came
        from, through the upper triangles of R_i = T S_i T^T (module docstring)."""
        ldl, pivots, kj = factors
        d, n = self.d, self.n
        nmat = np.empty((d, 2 * d, n))
        nmat[:, :d] = self.eye[:, :, None]
        np.subtract(kj[:, d:], kj[:, :d], out=nmat[:, d:])
        for j in range(1, d):
            for i in range(j):
                # the eliminated ldl[j, i] is L_ji D_i
                nmat[j] -= (ldl[j, i] / pivots[i]) * nmat[i]
        r = np.einsum("jan,jbn->abn", nmat / pivots[:, None], nmat)
        r = r.reshape(4 * d * d, n)[self.upper]
        # E_i's upper triangle is the last rows of R_i's
        r[len(self.upper) - len(self.e_upper):] += self.e_upper
        gram = (r @ r.T).reshape(-1)
        return (-self.grad_w * r.sum(axis=1)[self.pair],
                self.hess_w * (gram[self.hess_at[0]] + gram[self.hess_at[1]]))


def _initial_point(ws: _Workspace, problem: SampledFusionProblem):
    """Strictly feasible start: central gains and an inflated bound.

    K_a = I/2 with Pbar = 2 (P_a + P_b) satisfies every LMI strictly
    because the realized covariance under any PD joint never exceeds
    P_a + P_b for those gains; doubling Pbar is the fallback in case
    conditioning eats the margin.  Returns (x, factors, logdet) as
    ``chol_logdet`` gives them, or None.
    """
    ka = 0.5 * ws.eye
    pbar = 2.0 * symmetrize(problem.p_a + problem.p_b)
    for _ in range(64):
        x = ws.pack(pbar, ka)
        factors, logdet = ws.chol_logdet(x)
        if factors is not None:
            return x, factors, logdet
        pbar = 2.0 * pbar
    return None


def _check_solver_args(tol: float, max_iters: int) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise DimensionError("tol must be finite and positive")
    if max_iters < 1:
        raise DimensionError("max_iters must be at least 1")


def solve(problem: SampledFusionProblem, tol: float = DEFAULT_TOL,
          max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Minimize trace(Pbar) over the sampled LMIs by barrier path-following.

    ``solve_prefixes`` on the one prefix that holds every sample: one loop
    of barrier rounds on a growing active subset of the samples (module
    docstring).  ``max_iters`` caps the total Newton steps across all
    path stages of all rounds, and ``newton_iterations`` is that total.
    ``gap`` is the best relative gap certified so far by a dual
    point, ``inf`` if none was.  ``min_slack_eig`` is the least eigenvalue
    of the n slacks Pbar - K J_i K^T at the returned point.  Status is
    ``optimal`` only when the last round reached its tolerance, that gap
    reached tol and ``min_slack_eig`` is at least -1e-7 times the
    objective.  An exhausted budget, a stalled line search,
    or a tolerance that float64 cannot reach (a path stage that certifies
    nothing new, once centering is down to the roundoff of the barrier
    objective) returns the last iterate with status ``max_iterations``,
    well before the budget in the last two cases.  A start point or
    Newton-system breakdown returns ``infeasible_numerics``.  Whatever the
    status, the returned point satisfies all n LMIs strictly, unless no
    strictly feasible start point was found; then it is the central point
    K_a = I/2, Pbar = 2 (P_a + P_b), and ``min_slack_eig`` says how far it
    misses.  A ``tol`` that is not finite and positive, or ``max_iters``
    below 1, raises DimensionError.
    """
    return solve_prefixes(problem, [problem.n], tol, max_iters)[0]


def solve_prefixes(problem: SampledFusionProblem, sizes, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS) -> list[SdpSolution]:
    """Solve the program on the first ``size`` samples, for each of ``sizes``.

    Each prefix, in the order given, is certified to ``tol`` on its own
    samples with a budget of ``max_iters`` of its own.  A prefix of at
    most _SHARED_FACTOR * m samples, or the only longer one, is solved as
    ``solve`` solves its samples alone; longer ones share their opening
    rounds ("Nested prefixes" in the module docstring), and each counts
    those rounds' Newton steps.  Sizes outside 1..n, or none, raise
    DimensionError, as do the ``tol`` and ``max_iters`` ``solve`` refuses.
    """
    _check_solver_args(tol, max_iters)
    sizes = list(sizes)
    if not sizes or min(sizes) < 1 or max(sizes) > problem.n:
        raise DimensionError(f"prefix sizes must lie in 1..{problem.n}, got {sizes}")
    d = problem.d
    m = d * d + d * (d + 1) // 2
    shared = _SHARED_FACTOR * m
    # the rounds the prefixes longer than ``shared`` share, with their checks
    opening = None
    if sum(size > shared for size in sizes) > 1:
        opening = _RoundLog(_Workspace(_subset(problem, slice(max(sizes)))))
    out = []
    for size in sizes:
        prefix = _subset(problem, slice(size))
        ws = _Workspace(prefix)
        if opening is not None and size > shared:
            first, share = shared, opening
        else:
            first, share = ACTIVE_FACTOR * m, None
        x, status, used, lower, active, min_eig = _rounds(prefix, ws, tol, max_iters,
                                                          first, share)
        pbar, ka = ws.unpack(x)
        obj = float(ws.cvec @ x)
        gap = (obj - lower) / max(abs(obj), 1e-300)
        if status is SolveStatus.OPTIMAL and (gap > tol or min_eig < -1e-7 * obj):
            status = SolveStatus.MAX_ITERATIONS
        # ka views x, and prefixes that end on a shared round share x
        out.append(SdpSolution(gain_a=ka.copy(), gain_b=ws.eye - ka,
                               bound=symmetrize(pbar), objective=obj, status=status,
                               gap=float(gap), newton_iterations=used,
                               min_slack_eig=min_eig, active_samples=active))
    return out


class _RoundLog:
    """Barrier rounds run from one active set, in order, each stored with the
    least slack eigenvalue of every sample of ``ws`` (the longest prefix the
    log serves) at its x; a prefix of n samples reads the first n."""

    def __init__(self, ws: _Workspace):
        self.ws, self.rounds = ws, []

    def round(self, k: int, sub, tol: float, budget: int, resume):
        """Round ``k``, run on ``sub`` the first time it is asked for."""
        if k == len(self.rounds):
            # rounds go through _barrier, never the module attribute ``solve``,
            # so one public call is one call whatever wraps that name
            result = _barrier(sub, tol, budget, resume)
            x = result[0][0]
            self.rounds.append((result, np.linalg.eigvalsh(self.ws.slacks(x)[0])[:, 0]))
        return self.rounds[k]


def _rounds(problem: SampledFusionProblem, ws: _Workspace, tol: float, max_iters: int,
            first: int, log: _RoundLog | None = None):
    """The active-set loop of barrier rounds on all of ``problem``'s samples.

    The first active set is the first min(n, ``first``) samples.  Given
    ``log``, every round (and slack check) before the set first grows is
    taken from it, or run and stored there ("Nested prefixes" in the
    module docstring); each later set starts a log of its own.  Returns
    (x, status, Newton steps, best certified lower bound, active samples,
    least eigenvalue of the n slacks at x): the last round's iterate,
    repaired when samples outside its set are still violated, and that
    round's status, before the checks ``solve_prefixes`` makes on the
    full sample set.
    """
    d, n = problem.d, problem.n
    m = d * d + d * (d + 1) // 2
    inside = np.arange(n) < first     # membership of the active set
    active = np.flatnonzero(inside)
    sub = _subset(problem, active)
    used, lower, resume = 0, -np.inf, None
    log, k = log or _RoundLog(ws), 0
    while True:
        screening = resume is None and tol < _SCREEN_TOL and n > first
        round_tol = _SCREEN_TOL if screening else tol
        result, worst = log.round(k, sub, round_tol, max_iters - used, resume)
        worst, k = worst[:n], k + 1
        resume, status, steps, sub_lower = result
        used += steps
        lower = max(lower, sub_lower)
        x = resume[0]
        outside = np.flatnonzero(~inside)
        violated = outside[worst[outside] <= 0.0]
        if used >= max_iters or status is SolveStatus.INFEASIBLE_NUMERICS:
            break
        if violated.size:
            nearest = outside[np.argsort(worst[outside], kind="stable")]
            inside[nearest[:violated.size + _NEAR * m]] = True
            active = np.flatnonzero(inside)
            sub, resume, log, k = _subset(problem, active), None, _RoundLog(ws), 0
        elif not (screening and status is SolveStatus.OPTIMAL):
            break
    if violated.size:
        # out of budget (or broken down) with samples the subset point
        # violates: lift Pbar just past the worst violation
        pbar, ka = ws.unpack(x)
        delta = -float(worst.min())
        delta += max(_REPAIR_MARGIN * delta, _REPAIR_MARGIN * float(np.trace(pbar)) / d)
        x = ws.pack(pbar + delta * ws.eye, ka)
        worst = np.linalg.eigvalsh(ws.slacks(x)[0])[:, 0]
    return x, status, used, lower, len(active), float(worst.min())


def _barrier(problem: SampledFusionProblem, tol: float, budget: int, resume=None):
    """Barrier path-following on all of ``problem``'s samples.

    Starts at the central start point, or, given ``resume``, at the
    (x, t) an earlier run on the same problem ended at.  Spends at most
    ``budget`` Newton steps, and stops at the first step that certifies
    ``tol``.  Returns ((x, t), status, Newton steps taken, best certified
    lower bound on the optimum): the iterate and path parameter this run
    ended at, and the status ``solve`` documents, before its checks on
    the full sample set.  Without a strictly feasible start the iterate
    is the central point, the status ``infeasible_numerics`` and the
    lower bound -inf.
    """
    ws = _Workspace(problem)
    nu = float(3 * problem.d * problem.n)

    if resume is None:
        start, t = _initial_point(ws, problem), None
    else:
        x, t = resume
        start = (x, *ws.chol_logdet(x))
    if start is None:
        x = ws.pack(2.0 * symmetrize(problem.p_a + problem.p_b), 0.5 * ws.eye)
        return (x, None), SolveStatus.INFEASIBLE_NUMERICS, 0, -np.inf
    # the barrier derivatives depend on x alone, so they are kept until x moves
    x, factors, logdet = start
    derivs = None
    eye = np.eye(ws.m)

    if t is None:
        t = nu / max(float(ws.cvec @ x), 1e-12)
    used, broke_down = 0, False
    status = SolveStatus.MAX_ITERATIONS
    lower = -np.inf     # best certified lower bound on the optimum

    for _stage in range(80):
        # Newton centering at the current path parameter
        stage_lower = lower
        stalled = False
        while used < budget:
            if derivs is None:
                derivs = ws.barrier_grad_hess(factors)
            grad_phi, hess = derivs
            grad = t * ws.cvec + grad_phi
            scale = max(float(np.max(np.abs(np.diag(hess)))), 1.0)
            for reg in (0.0, 1e-12, 1e-8, 1e-4):
                try:
                    dx = np.linalg.solve(hess + reg * scale * eye, -grad)
                except np.linalg.LinAlgError:
                    continue
                lam2 = float(-grad @ dx)
                if np.isfinite(lam2) and lam2 >= 0.0:
                    break
            else:
                broke_down = True
                break
            obj = float(ws.cvec @ x)
            if reg == 0.0 and lam2 < 1.0:
                # the dual point Z_i = (S_i - S_i dF S_i) / t, dF = sum_k dx_k A_k,
                # is feasible while lambda < 1, with gap (nu + grad_phi . dx) / t
                lower = max(lower, obj - (nu + float(grad_phi @ dx)) / t)
                if (obj - lower) / max(abs(obj), 1e-300) <= tol:
                    break     # certified: centering further buys the round nothing
            psi = t * obj - logdet
            psi_eps = _ROUNDOFF * (abs(t * obj) + abs(logdet))
            if 0.5 * lam2 <= max(_NEWTON_EPS, psi_eps):
                break
            used += 1
            gdx = float(grad @ dx)
            step = 1.0
            while step > 1e-14:
                trial = x + step * dx
                ft, ldt = ws.chol_logdet(trial)
                if ft is not None:
                    psit = t * float(ws.cvec @ trial) - ldt
                    if psit <= psi + 1e-2 * step * gdx:
                        break
                step *= 0.5
            else:
                stalled = True
                break
            if psi - psit <= psi_eps:
                # a decrease lost in the roundoff of psi is no progress:
                # the point is as centered as float64 can tell
                break
            x, factors, logdet, derivs = trial, ft, ldt, None
        obj = float(ws.cvec @ x)
        gap = (obj - lower) / max(abs(obj), 1e-300)
        if broke_down:
            status = SolveStatus.INFEASIBLE_NUMERICS
            break
        if gap <= tol:
            status = SolveStatus.OPTIMAL
            break
        # a stage that certifies nothing new means t has outrun float64
        if used >= budget or stalled or lower <= stage_lower:
            status = SolveStatus.MAX_ITERATIONS
            break
        t *= T_GROWTH

    return (x, t), status, used, lower


def robust_fuse(a: GaussianEstimate, b: GaussianEstimate, pattern: CrossSparsityPattern,
                n: int, seed: int, tol: float = DEFAULT_TOL) -> FusionResult:
    """Sample the admissible cross-covariances and solve for optimal gains.

    Composes the rejection sampler, problem assembly, and the barrier
    solver.  Samples rejected by the conditioning gate at build time are
    redrawn from a dedicated substream (at most 100 redraws).  Draws have
    the sampler's default attempt budget, and the solve ``solve``'s
    default of ``DEFAULT_MAX_ITERS`` Newton steps.  A ``tol`` that
    ``solve`` would refuse is refused before any sample is drawn.  Raises
    SolverError when the solver reports a numerical breakdown; a budget
    exhaustion is returned with its status in the diagnostics.
    """
    _check_same_labels(a, b)
    if n < 1:
        raise DimensionError("n must be at least 1")
    _check_solver_args(tol, DEFAULT_MAX_ITERS)
    drawn = sample_set(a.covariance, b.covariance, pattern, n, seed)
    arrs = [s.p_ab for s in drawn]
    redraws = 0
    while True:
        try:
            problem = build_problem(a.covariance, b.covariance, arrs)
            break
        except NotPositiveDefiniteError as exc:
            idx = getattr(exc, "sample_index", None)
            if idx is None or redraws >= 100:
                raise
            redraws += 1
            arrs[idx] = sample_cross(
                a.covariance, b.covariance, pattern,
                make_substream_seed(seed, "redraw", redraws)).p_ab
    sol = solve(problem, tol=tol)
    if sol.status is SolveStatus.INFEASIBLE_NUMERICS:
        raise SolverError("semidefinite solve broke down numerically "
                          f"(gap={sol.gap:.3e}); consider rescaling the inputs")
    mean = sol.gain_a @ a.mean + sol.gain_b @ b.mean
    return FusionResult(
        gain_a=sol.gain_a, gain_b=sol.gain_b, fused_mean=mean, bound=sol.bound,
        method=FusionMethod.SDP, omega=None,
        diagnostics={"n_samples": n, "seed": int(seed), "status": sol.status.value,
                     "gap": sol.gap, "objective": sol.objective,
                     "newton_iterations": sol.newton_iterations,
                     "min_slack_eig": sol.min_slack_eig,
                     "active_samples": sol.active_samples, "redraws": redraws,
                     "trace": float(np.trace(sol.bound))})
