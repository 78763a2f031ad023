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
section A.5.5).  So a feasibility test is one batched d x d Cholesky.
The barrier Hessian sum_i tr(S_i A_k S_i A_l) is read off the Gram
matrix V^T V of the stacked vec(S_i), a single matrix product, and its
contraction with the basis A_k does not depend on the number of samples.

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
so ``solve`` is one loop of barrier rounds on an active subset of the
samples, starting with the first min(n, ACTIVE_FACTOR * m).  A round
(``_barrier``) returns only its iterate, status, Newton steps and
certified lower bound; ``solve`` tests every slack at that iterate with
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
then holds strictly, and the objective pays d * delta.  Only then does
``solve`` build its one ``SdpSolution``, with one status rule.

Roundoff: the barrier objective psi = t * trace(Pbar) - logdet grows with
t, and near the end its float64 roundoff swamps any absolute stopping
rule.  Centering therefore also ends when lambda^2 / 2 falls below the
roundoff of psi, or when an accepted step lowers psi by no more than that
roundoff (no progress, the step is discarded).  A path stage that raises
the certified lower bound no further means the tolerance is out of
float64's reach: the solve ends there with ``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    make_substream_seed,
    symmetrize,
)
from .fusion import _check_same_labels
from .sampler import DEFAULT_MAX_ATTEMPTS, CrossSparsityPattern, sample_cross, sample_set

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200
# joint-covariance Cholesky pivots below this reject the sample
MIN_PIVOT = 1e-10
# geometric increase of the path parameter (gap shrinks by 0.2 per stage)
T_GROWTH = 5.0
# squared Newton decrement / 2 at which a point counts as centered; near
# the end of the path the roundoff of psi (about _ROUNDOFF * |psi|) is larger
# and takes its place
_NEWTON_EPS = 1e-9
_ROUNDOFF = float(np.finfo(float).eps)
# the first active set holds ACTIVE_FACTOR * m samples, m the number of
# unknowns; chosen from timings of whole against active-set solves at
# d = 1..3, n = 50..2000 (CHANGES.md)
ACTIVE_FACTOR = 16
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
    """Marginals, sampled joints, and their inverses, ready to solve.

    ``joints`` stacks the joint covariances J_i, ``joint_inverses`` their
    inverses, ``log_pivots`` the logs of each J_i's Cholesky pivots, and
    ``joint_logdet`` is sum_i logdet J_i, twice their sum.
    """

    p_a: np.ndarray
    p_b: np.ndarray
    joints: np.ndarray
    joint_inverses: np.ndarray
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
    """Assemble the sampled program; inverts each joint once, by Cholesky.

    Each sample is a d x d cross-covariance; the implied joint
    [[P_a, S], [S^T, P_b]] must be positive definite with every Cholesky
    pivot above 1e-10, otherwise the sample is rejected (the raised error
    carries ``sample_index`` so callers can redraw it).
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
    try:
        chol = np.linalg.cholesky(joints)
        pivots = np.diagonal(chol, axis1=1, axis2=2)
        bad = np.flatnonzero(np.min(pivots, axis=1) < MIN_PIVOT)
    except np.linalg.LinAlgError:
        bad = None
    if bad is None or len(bad):
        # identify the first offender for the caller
        for i in range(n):
            try:
                piv = np.diagonal(np.linalg.cholesky(joints[i]))
                ok = bool(np.min(piv) >= MIN_PIVOT)
            except np.linalg.LinAlgError:
                ok = False
            if not ok:
                err = NotPositiveDefiniteError(
                    f"sample {i}: joint covariance fails the conditioning "
                    f"threshold (Cholesky pivot < {MIN_PIVOT:g})")
                err.sample_index = i
                raise err
    linv = np.linalg.inv(chol)
    q = linv.transpose(0, 2, 1) @ linv
    q = 0.5 * (q + q.transpose(0, 2, 1))
    q.flags.writeable = False
    joints.flags.writeable = False
    log_pivots = np.log(pivots)
    log_pivots.flags.writeable = False
    return SampledFusionProblem(p_a=p_a, p_b=p_b, joints=joints,
                                joint_inverses=q,
                                joint_logdet=2.0 * float(np.sum(log_pivots)),
                                log_pivots=log_pivots, d=d)


def _subset(problem: SampledFusionProblem, idx) -> SampledFusionProblem:
    """The program on the samples ``idx`` (an index array or a slice) selects.

    Equal to ``build_problem`` on those samples, without factoring or
    inverting a joint again.
    """
    log_pivots = problem.log_pivots[idx]
    return SampledFusionProblem(
        p_a=problem.p_a, p_b=problem.p_b,
        joints=problem.joints[idx], joint_inverses=problem.joint_inverses[idx],
        joint_logdet=2.0 * float(np.sum(log_pivots)), log_pivots=log_pivots,
        d=problem.d)


@dataclass(frozen=True, eq=False)
class SdpSolution:
    gain_a: np.ndarray
    gain_b: np.ndarray
    bound: np.ndarray
    objective: float
    status: SolveStatus
    gap: float
    newton_iterations: int
    min_lmi_eig: float
    active_samples: int


class _Workspace:
    """Basis tensors and evaluators for one problem instance."""

    def __init__(self, problem: SampledFusionProblem):
        d, n = problem.d, problem.n
        p3 = 3 * d
        iu_r, iu_c = np.triu_indices(d)
        npv = len(iu_r)
        m = npv + d * d
        a = np.zeros((m, p3, p3))
        for k in range(npv):
            i, j = int(iu_r[k]), int(iu_c[k])
            a[k, i, j] = 1.0
            a[k, j, i] = 1.0
        for r in range(d):
            for c in range(d):
                k = npv + r * d + c
                a[k, r, d + c] = 1.0
                a[k, d + c, r] = 1.0
                a[k, r, 2 * d + c] = -1.0
                a[k, 2 * d + c, r] = -1.0
        cvec = np.zeros(m)
        cvec[np.flatnonzero(iu_r == iu_c)] = 1.0
        self.d, self.n, self.p3, self.npv, self.m = d, n, p3, npv, m
        self.iu = (iu_r, iu_c)
        self.basis = a.reshape(m, p3 * p3)     # row k is vec(A_k)
        self.cvec = cvec
        self.problem = problem
        self.eye = np.eye(d)

    def pack(self, pbar: np.ndarray, ka: np.ndarray) -> np.ndarray:
        return np.concatenate([pbar[self.iu], ka.reshape(-1)])

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pbar = np.zeros((self.d, self.d))
        pbar[self.iu] = x[:self.npv]
        pbar[self.iu[1], self.iu[0]] = x[:self.npv]
        return pbar, x[self.npv:].reshape(self.d, self.d)

    def lmis(self, x: np.ndarray) -> np.ndarray:
        """The full 3d x 3d LMI blocks G_i at x."""
        d = self.d
        pbar, ka = self.unpack(x)
        g = np.empty((self.n, self.p3, self.p3))
        g[:, d:, d:] = self.problem.joint_inverses
        g[:, :d, :d] = pbar
        g[:, :d, d:2 * d] = ka
        g[:, d:2 * d, :d] = ka.T
        kb = self.eye - ka
        g[:, :d, 2 * d:] = kb
        g[:, 2 * d:, :d] = kb.T
        return g

    def slacks(self, x: np.ndarray):
        """(C_i, K J_i) at x, with C_i = Pbar - K J_i K^T the d x d slacks."""
        pbar, ka = self.unpack(x)
        k = np.concatenate([ka, self.eye - ka], axis=1)
        kj = k @ self.problem.joints
        return pbar - (kj.reshape(-1, 2 * self.d) @ k.T).reshape(self.n, self.d, self.d), kj

    def chol_logdet(self, x: np.ndarray):
        """(factors, sum_i logdet G_i) when x is strictly feasible, else (None, -inf).

        G_i is PD exactly when its slack C_i = Pbar - K J_i K^T is, so only
        the d x d slacks are factored.  ``factors`` is (chol(C_i), K J_i),
        what ``barrier_grad_hess`` needs.
        """
        slack, kj = self.slacks(x)
        if not np.all(np.isfinite(slack)):
            return None, -np.inf
        try:
            chol = np.linalg.cholesky(slack)
        except np.linalg.LinAlgError:
            return None, -np.inf
        logdet = 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))
        return (chol, kj), logdet - self.problem.joint_logdet

    def barrier_grad_hess(self, factors):
        """Gradient and Hessian of -sum_i logdet G_i at the point ``factors`` came from."""
        chol, kj = factors
        d, p3 = self.d, self.p3
        # with N = L^-1 [I, -K J] and C = L L^T, S_i = N^T N + blockdiag(0, J_i)
        linv = np.linalg.inv(chol)
        nmat = np.concatenate([linv, -(linv @ kj)], axis=2)
        s = np.ascontiguousarray(nmat.transpose(0, 2, 1)) @ nmat
        s[:, d:, d:] += self.problem.joints
        v = s.reshape(self.n, p3 * p3)
        grad = -(self.basis @ v.sum(axis=0))
        # gram[(a,b),(c,e)] = sum_i S_i[a,b] S_i[c,e], and
        # H_kl = sum gram[(a,b),(c,e)] A_k[b,c] A_l[e,a]
        gram = (v.T @ v).reshape(p3, p3, p3, p3).transpose(1, 2, 3, 0)
        hess = self.basis @ gram.reshape(p3 * p3, p3 * p3) @ self.basis.T
        return grad, 0.5 * (hess + hess.T)


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

    One loop of barrier rounds on an active subset of the samples, grown
    by the violated ones until every LMI holds (see the module docstring);
    a problem of at most ACTIVE_FACTOR * m samples is one round on all of
    them.  Each round returns only an iterate; the solution is built here,
    once, from the last one.  ``max_iters`` caps the total Newton steps
    across all path stages of all rounds, and ``newton_iterations`` is
    that total.  ``gap`` is the best relative gap certified so far by a
    dual point, ``inf`` if none was.  Status is ``optimal`` only when the
    last round reached its tolerance, that gap reached tol and every one
    of the n LMIs holds within 1e-7.  An exhausted budget, a stalled line
    search (or an iterate whose LMI block is singular to working
    precision), or a tolerance that float64 cannot reach (a path stage
    that certifies nothing new, once centering is down to the roundoff of
    the barrier objective) returns the last iterate with status
    ``max_iterations``, well before the budget in the last two cases.  A
    start point or Newton-system breakdown returns ``infeasible_numerics``.
    Whatever the status, the returned point satisfies all n LMIs strictly,
    unless no strictly feasible start point was found; then it is the
    central point K_a = I/2, Pbar = 2 (P_a + P_b), and ``min_lmi_eig``
    says how far it misses.  A ``tol`` that is not finite and positive, or
    ``max_iters`` below 1, raises DimensionError.
    """
    _check_solver_args(tol, max_iters)
    d = problem.d
    m = d * d + d * (d + 1) // 2
    first = ACTIVE_FACTOR * m
    ws = _Workspace(problem)
    active = np.arange(min(problem.n, first))
    sub = _subset(problem, active)
    used, lower, resume = 0, -np.inf, None
    while True:
        # rounds go through _barrier, never the module attribute ``solve``,
        # so one public call is one call whatever wraps that name
        screening = resume is None and tol < _SCREEN_TOL and problem.n > first
        resume, status, steps, sub_lower = _barrier(
            sub, _SCREEN_TOL if screening else tol, max_iters - used, resume)
        used += steps
        lower = max(lower, sub_lower)
        x = resume[0]
        worst = np.linalg.eigvalsh(ws.slacks(x)[0])[:, 0]
        outside = np.setdiff1d(np.arange(problem.n), active)
        violated = outside[worst[outside] <= 0.0]
        if used >= max_iters or status is SolveStatus.INFEASIBLE_NUMERICS:
            break
        if violated.size:
            nearest = outside[np.argsort(worst[outside], kind="stable")]
            active = np.union1d(active, nearest[:violated.size + _NEAR * m])
            sub, resume = _subset(problem, active), None
        elif not (screening and status is SolveStatus.OPTIMAL):
            break
    pbar, ka = ws.unpack(x)
    if violated.size:
        # out of budget (or broken down) with samples the subset point
        # violates: lift Pbar just past the worst violation
        delta = -float(worst.min())
        delta += max(_REPAIR_MARGIN * delta, _REPAIR_MARGIN * float(np.trace(pbar)) / d)
        pbar = pbar + delta * ws.eye
        x = ws.pack(pbar, ka)
    obj = float(ws.cvec @ x)
    gap = (obj - lower) / max(abs(obj), 1e-300)
    min_eig = float(np.min(np.linalg.eigvalsh(ws.lmis(x))))
    if status is SolveStatus.OPTIMAL and (gap > tol or min_eig < -1e-7):
        status = SolveStatus.MAX_ITERATIONS
    return SdpSolution(gain_a=ka, gain_b=ws.eye - ka, bound=symmetrize(pbar),
                       objective=obj, status=status, gap=float(gap),
                       newton_iterations=used, min_lmi_eig=min_eig,
                       active_samples=len(active))


def _barrier(problem: SampledFusionProblem, tol: float, budget: int, resume=None):
    """Barrier path-following on all of ``problem``'s samples.

    Starts at the central start point, or, given ``resume``, at the
    (x, t) an earlier run on the same problem ended its last stage
    centered at.  Spends at most ``budget`` Newton steps and returns
    ((x, t), status, Newton steps taken, best certified lower bound on
    the optimum): the iterate and path parameter this run ended its last
    stage at, and the status ``solve`` documents, before its checks on
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

    obj = float(ws.cvec @ x)
    if t is None:
        t = nu / max(obj, 1e-12)
    used = 0
    status = SolveStatus.MAX_ITERATIONS
    lower = -np.inf     # best certified lower bound on the optimum
    broke_down = False

    for _stage in range(80):
        # Newton centering at the current path parameter
        stage_lower = lower
        stalled = False
        while used < budget:
            if derivs is None:
                try:
                    derivs = ws.barrier_grad_hess(factors)
                except np.linalg.LinAlgError:
                    # a slack factor that cannot be inverted: the point cannot
                    # move on, like a line search that finds no step
                    stalled = True
                    break
            grad_phi, hess = derivs
            grad = t * ws.cvec + grad_phi
            dx = None
            scale = max(float(np.max(np.abs(np.diag(hess)))), 1.0)
            for reg in (0.0, 1e-12, 1e-8, 1e-4):
                try:
                    cand = np.linalg.solve(hess + reg * scale * np.eye(ws.m), -grad)
                except np.linalg.LinAlgError:
                    continue
                lam2 = float(-grad @ cand)
                if np.isfinite(lam2) and lam2 >= 0.0:
                    dx = cand
                    break
            if dx is None:
                broke_down = True
                break
            obj = float(ws.cvec @ x)
            if reg == 0.0 and lam2 < 1.0:
                # the dual point Z_i = (S_i - S_i dF S_i) / t, dF = sum_k dx_k A_k,
                # is feasible while lambda < 1, with gap (nu + grad_phi . dx) / t
                lower = max(lower, obj - (nu + float(grad_phi @ dx)) / t)
            psi = t * obj - logdet
            psi_eps = _ROUNDOFF * (abs(t * obj) + abs(logdet))
            if 0.5 * lam2 <= max(_NEWTON_EPS, psi_eps):
                break
            used += 1
            gdx = float(grad @ dx)
            step = 1.0
            moved = False
            while step > 1e-14:
                trial = x + step * dx
                ft, ldt = ws.chol_logdet(trial)
                if ft is not None:
                    psit = t * float(ws.cvec @ trial) - ldt
                    if psit <= psi + 1e-2 * step * gdx:
                        moved = True
                        break
                step *= 0.5
            if not moved:
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
                n: int, seed: int, tol: float = DEFAULT_TOL, *,
                max_iters: int = DEFAULT_MAX_ITERS,
                max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> FusionResult:
    """Sample the admissible cross-covariances and solve for optimal gains.

    Composes the rejection sampler, problem assembly, and the barrier
    solver.  Samples rejected by the conditioning gate at build time are
    redrawn from a dedicated substream (at most 100 redraws).  A ``tol``
    or ``max_iters`` that ``solve`` would refuse is refused before any
    sample is drawn.  Raises SolverError when the solver reports a
    numerical breakdown; a budget exhaustion is returned with its status
    in the diagnostics.
    """
    _check_same_labels(a, b)
    if n < 1:
        raise DimensionError("n must be at least 1")
    _check_solver_args(tol, max_iters)
    drawn = sample_set(a.covariance, b.covariance, pattern, n, seed,
                       max_attempts=max_attempts)
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
                make_substream_seed(seed, "redraw", redraws),
                max_attempts=max_attempts).p_ab
    sol = solve(problem, tol=tol, max_iters=max_iters)
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
                     "min_lmi_eig": sol.min_lmi_eig,
                     "active_samples": sol.active_samples, "redraws": redraws,
                     "trace": float(np.trace(sol.bound))})
