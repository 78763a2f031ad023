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
read-only (2d, 2d, n) array, ``SampledFusionProblem.joints_last``, built
once by ``build_problem``, and a feasibility test factors all n slacks as
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
A round returns only its iterate, status, Newton steps and certified
lower bound; the loop tests every slack at that iterate with one batched
d x d ``eigvalsh``.  A set that holds every sample from the
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
each starts its loop on the first _SHARED_FACTOR * m.  Until their active
sets grow, those prefixes ask for the same rounds together (same
samples, tolerance, steps left and resumed point), so each such round
runs once per call, and its result goes to each of them with the least
slack eigenvalues over the longest sharing prefix (each reads its own
first n).  A prefix that grows its set, or whose point is repaired,
goes on alone; no prefix's path depends on another's samples, and its
status and ``min_slack_eig`` are its own.

Batches: ``_solve_batch`` runs the rounds of every prefix of every
problem it is given (all of one d) in one lockstep (``_Lockstep``).  A
round joins as soon as its prefix asks for it.  Each tick makes one
evaluation for every round in a line search, with the trial step's
halving alongside, so a step that backtracks once costs no further tick.
The per-sample work of a tick (the slacks, ``core.ldl_pivots``, the
derivatives) is one numpy call over the samples of all rounds laid end
to end.  Every product with a round's own K, and every sum over a round's
samples (logdet, the gradient's row sums, the Gram matrix of the
Hessian), stays per round: one stacked call per group of rounds with the
same sample count, which makes for each round the BLAS call or reduction
a lone solve makes.  Sums over the whole batch with zero weights, or
products padded to a common width, would change the order of the
additions.  So a round's iterates are bitwise those of a lone solve,
whatever shares its batch, and no solution depends on which other
prefixes or problems were solved with it.

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

import math
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

    ``joints_last`` holds the joint covariances J_i samples last, as one
    read-only (2d, 2d, n) array; ``joints`` and ``samples`` are read-only
    views of it.  ``log_pivots`` holds the logs of each J_i's Cholesky
    pivots, and ``joint_logdet`` is sum_i logdet J_i, twice their sum.
    """

    p_a: np.ndarray
    p_b: np.ndarray
    joints_last: np.ndarray
    joint_logdet: float
    log_pivots: np.ndarray
    d: int

    @property
    def n(self) -> int:
        return self.joints_last.shape[-1]

    @property
    def joints(self) -> np.ndarray:
        """The (n, 2d, 2d) joint covariances, a read-only view of ``joints_last``."""
        return self.joints_last.transpose(2, 0, 1)

    @property
    def samples(self) -> np.ndarray:
        """The (n, d, d) cross-covariance samples, a read-only view of ``joints_last``."""
        return self.joints_last[:self.d, self.d:].transpose(2, 0, 1)


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
    joints = np.empty((2 * d, 2 * d, len(stack)))
    joints[:d, :d] = p_a[:, :, None]
    joints[d:, d:] = p_b[:, :, None]
    joints[:d, d:] = stack.transpose(1, 2, 0)
    joints[d:, :d] = stack.transpose(2, 1, 0)
    # ldl_pivots factors in place
    pivots = ldl_pivots(joints.copy())
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
    return SampledFusionProblem(p_a=p_a, p_b=p_b, joints_last=joints,
                                joint_logdet=2.0 * float(np.sum(log_pivots)),
                                log_pivots=log_pivots, d=d)


def _subset(problem: SampledFusionProblem, idx) -> SampledFusionProblem:
    """The program on the samples ``idx`` (an index array or a slice) selects.

    Equal to ``build_problem`` on those samples, without factoring a
    joint again.  A slice views the problem's arrays; an index array
    gathers them.  Either way they are read-only.
    """
    joints, log_pivots = problem.joints_last[..., idx], problem.log_pivots[idx]
    joints.flags.writeable = log_pivots.flags.writeable = False
    return SampledFusionProblem(
        p_a=problem.p_a, p_b=problem.p_b, joints_last=joints,
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


def _pack(d: int, pbar: np.ndarray, ka: np.ndarray) -> np.ndarray:
    return np.concatenate([pbar[_coords(d)[0]], ka.reshape(-1)])


def _unpack(d: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Pbar, K_a) at x; K_a views x."""
    sym = _coords(d)[1]
    return x[sym], x[d * (d + 1) // 2:].reshape(d, d)


def _least_slack_eigs(problem: SampledFusionProblem, x: np.ndarray) -> np.ndarray:
    """(n,) least eigenvalue of each d x d slack C_i = Pbar - K J_i K^T at x."""
    d = problem.d
    pbar, ka = _unpack(d, x)
    k = np.concatenate([ka, np.eye(d) - ka], axis=1)
    kj = (k @ problem.joints_last.reshape(2 * d, -1)).reshape(d, 2 * d, problem.n)
    # k @ kj[a] is row a of every K J_i K^T
    return np.linalg.eigvalsh((pbar[:, :, None] - k @ kj).transpose(2, 0, 1))[:, 0]


def _initial_point(problem: SampledFusionProblem) -> np.ndarray:
    """The central start: K_a = I/2 and Pbar = 2 (P_a + P_b).

    With S = P_a + P_b, every slack there is C_i = (7/4) S - (X_i + X_i^T) / 4
    for the cross block X_i, and a PD joint has X_i + X_i^T <= S, so
    C_i >= (3/2) S.  ``check_spd`` keeps lambda_min(S) far above the
    slack's roundoff, so the start fails only where its arithmetic is not
    finite (Boyd & Vandenberghe, Convex Optimization, section 11.3).
    """
    return _pack(problem.d, 2.0 * symmetrize(problem.p_a + problem.p_b),
                 0.5 * np.eye(problem.d))


class _Batch:
    """The barrier's evaluators for the programs of one d, on batch-last arrays.

    Each call lays the samples of the programs it serves end to end on the
    last axis of every (..., N) array, N their total, ordered by sample
    count, and what is per sample runs as one numpy call over all of them.
    The programs of one sample count form a group, viewed as (..., k, n):
    the products with each program's own K and every sum over a program's
    samples run as one stacked call per group, which makes for each program
    the BLAS call or reduction a batch of one makes, so its values are
    bitwise the same whatever else shares its batch.
    """

    def __init__(self, d: int):
        self.iu, self.sym, _, self.upper, self.pair, w, self.hess_at = _coords(d)
        self.grad_w, self.hess_w = 2.0 * w, 2.0 * np.outer(w, w)
        self.d, self.npv, self.eye = d, len(self.iu[0]), np.eye(d)
        self.problems: list[SampledFusionProblem] = []
        self.ns, self.joint_logdet = np.zeros(0, dtype=int), np.zeros(0)
        # the upper triangle of each program's E_i = P_a + P_b - X_i - X_i^T,
        # X_i the cross block, samples last
        self.e_upper = []
        self.layout = None
        self.factors = None

    def extend(self, problems: list[SampledFusionProblem]) -> None:
        """Programs join, numbered on from the last."""
        d = self.d
        self.problems += problems
        for problem in problems:
            cross = problem.joints_last[:d, d:]
            self.e_upper.append(((problem.p_a + problem.p_b)[:, :, None] - cross
                                 - cross.transpose(1, 0, 2))[self.iu])
        self.ns = np.concatenate([self.ns, [p.n for p in problems]])
        self.joint_logdet = np.concatenate([self.joint_logdet,
                                            [p.joint_logdet for p in problems]])

    def _layout(self, rows: np.ndarray):
        """How a call on ``rows`` lays out its programs, kept while the same
        rows ask again: (order, rows in it, their sizes, their first samples
        and the total, the inverse order, the groups as (first, stop, n, first
        sample, stop sample), each group's joints as one (k, 2d, 2d n) stack,
        and E's upper triangles end to end)."""
        key = rows.tobytes()
        if self.layout is None or self.layout[0] != key:
            d = self.d
            order = np.argsort(self.ns[rows], kind="stable")
            rows = rows[order]
            ns = self.ns[rows]
            offs = np.concatenate([[0], np.cumsum(ns)])
            cuts = [0, *(np.flatnonzero(np.diff(ns)) + 1), len(rows)]
            groups = [(g0, g1, ns[g0], offs[g0], offs[g1]) for g0, g1 in zip(cuts[:-1], cuts[1:])]
            # a group's joints stacked once per program, with how many
            # consecutive entries each program has (the trials of a line search)
            stacks = []
            for g0, g1, n, _, _ in groups:
                ids = rows[g0:g1]
                runs = np.flatnonzero(np.diff(ids)) + 1
                lengths = np.diff([0, *runs, len(ids)])
                each = int(lengths[0]) if (lengths == lengths[0]).all() else 1
                joints = np.stack([self.problems[b].joints_last for b in ids[::each]])
                stacks.append((each, joints.reshape(-1, 2 * d, 2 * d * n)))
            back = np.empty_like(order)
            back[order] = np.arange(len(order))
            if (order == np.arange(len(order))).all():
                order = back = None     # in order already
            e_upper = np.concatenate([self.e_upper[b] for b in rows], axis=1)
            self.layout = key, (order, rows, ns, offs, back, groups, stacks, e_upper)
        return self.layout[1]

    def chol_logdet(self, rows: np.ndarray, xs: np.ndarray):
        """(sum_i logdet G_i, strictly feasible) of each program ``rows[r]`` at
        ``xs[r]``; the sum is not finite where x is not strictly feasible.

        Only the slacks are factored, as C = L D L^T by ``core.ldl_pivots``;
        x is strictly feasible exactly when every pivot is positive and
        finite, that is when logdet is finite.  The factors stay for
        ``grad_hess``.
        """
        d = self.d
        order, rows, ns, offs, back, groups, stacks, _ = layout = self._layout(rows)
        if order is not None:
            xs = xs[order]
        ka = xs[:, self.npv:].reshape(-1, d, d)
        ks = np.concatenate([ka, self.eye - ka], axis=2)
        pbar = xs[:, self.sym, None]
        ldl = np.empty((d, d, offs[-1]))
        kjs = []
        for (g0, g1, n, o0, o1), (each, joints) in zip(groups, stacks):
            # entries of one program share its stacked joints
            kj = ks[g0:g1].reshape(-1, each, d, 2 * d) @ joints[:, None]
            kjs.append(kj.reshape(g1 - g0, d, 2 * d, n))
            # ks[b] @ kj[b, a] is row a of every K J_i K^T of program b
            slack = ldl[:, :, o0:o1].reshape(d, d, g1 - g0, n).transpose(2, 0, 1, 3)
            np.matmul(ks[g0:g1, None], kjs[-1], out=slack)
            np.subtract(pbar[g0:g1], slack, out=slack)
        pivots = ldl_pivots(ldl)
        logdet = np.empty(len(rows))
        # a pivot that is not positive makes logdet nan or -inf
        with np.errstate(divide="ignore", invalid="ignore"):
            for g0, g1, n, o0, o1 in groups:
                own = pivots[:, o0:o1].reshape(d, g1 - g0, n).transpose(1, 0, 2)
                logs = np.log(own, out=np.empty((g1 - g0, d, n)))
                logdet[g0:g1] = logs.reshape(g1 - g0, -1).sum(axis=1)
        self.factors = layout, ldl, pivots, kjs
        ok = np.isfinite(logdet)
        logdet -= self.joint_logdet[rows]
        return (logdet, ok) if back is None else (logdet[back], ok[back])

    def grad_hess(self, picked: list[int]):
        """Gradients (k, m) and Hessians (k, m, m) of -sum_i logdet G_i at the
        points of the last ``chol_logdet`` call's entries ``picked``
        (ascending), through the upper triangles of R_i = T S_i T^T (module
        docstring)."""
        (order, rows, ns, offs, back, groups, _, e_upper), ldl, pivots, kjs = self.factors
        d, q, k = self.d, len(self.upper), len(picked)
        if back is not None:
            picked = sorted(back[picked].tolist())     # in size order
        if picked[-1] - picked[0] + 1 == k:
            # one run of entries, whose samples are one run too
            run = slice(offs[picked[0]], offs[picked[-1] + 1])
            ldl, pivots, e_upper = ldl[:, :, run], pivots[:, run], e_upper[:, run]
        else:
            keep = np.concatenate([np.arange(offs[e], offs[e + 1]) for e in picked])
            ldl, pivots, e_upper = (a.take(keep, axis=-1) for a in (ldl, pivots, e_upper))
        total = pivots.shape[1]
        nmat = np.empty((d, 2 * d, total))
        nmat[:, :d] = self.eye[:, :, None]
        runs = []     # (first sample, programs, n) per group, as ``nmat`` holds them
        at, e = 0, 0
        for (g0, g1, n, _, _), kj in zip(groups, kjs):
            mine = []
            while e < k and picked[e] < g1:
                mine.append(picked[e] - g0)
                e += 1
            if mine:
                c = len(mine)
                kj = kj[mine[0]:mine[-1] + 1] if mine[-1] - mine[0] + 1 == c else kj[mine]
                out = nmat[:, d:, at:at + c * n].reshape(d, d, c, n).transpose(2, 0, 1, 3)
                np.subtract(kj[:, :, d:], kj[:, :, :d], out=out)
                runs.append((at, c, n))
                at += c * n
        for j in range(1, d):
            for i in range(j):
                # the eliminated ldl[j, i] is L_ji D_i
                nmat[j] -= (ldl[j, i] / pivots[i]) * nmat[i]
        r = np.einsum("jan,jbn->abn", nmat / pivots[:, None], nmat)
        r = r.reshape(4 * d * d, total)[self.upper]
        # E_i's upper triangle is the last rows of R_i's
        r[q - self.npv:] += e_upper
        sums, gram = np.empty((k, q)), np.empty((k, q, q))
        first = 0
        for at, c, n in runs:
            own = r[:, at:at + c * n].reshape(q, c, n).transpose(1, 0, 2)
            own.sum(axis=2, out=sums[first:first + c])
            np.matmul(own, own.transpose(0, 2, 1), out=gram[first:first + c])
            first += c
        if order is not None:   # from size order back to the call's
            ranks = np.argsort(order[picked])
            sums, gram = sums[ranks], gram[ranks]
        gram = gram.reshape(k, -1)
        return (-self.grad_w * sums[:, self.pair],
                self.hess_w * (gram[:, self.hess_at[0]] + gram[:, self.hess_at[1]]))


def _rows(ids: list[int]):
    """An index for the batch-array rows ``ids`` (ascending): a slice when
    they are consecutive, which numpy serves far faster than a gather."""
    if ids and ids[-1] - ids[0] + 1 == len(ids):
        return slice(ids[0], ids[-1] + 1)
    return np.array(ids, dtype=int)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row a_r . b_r (b may be one shared vector), each the one BLAS
    dot product that ``a_r @ b_r`` takes."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _newton_steps(hess: np.ndarray, grad: np.ndarray, eye: np.ndarray):
    """(dx, lambda^2, unregularized, broken down) of each Newton system
    H dx = -g in a batch, the last three as lists.

    Each system takes the first of the regularizations 0, 1e-12, 1e-8 and
    1e-4 (times max(|diag H|, 1)) under which it solves with a finite
    lambda^2 = -g . dx >= 0; one that none gives has broken down.  ``eye``
    is the m x m identity.
    """
    k, m = grad.shape
    # max(|diag H|, 1), nan when the diagonal is
    scale = np.maximum(np.abs(hess.reshape(k, -1)[:, ::m + 1]).max(axis=1), 1.0)
    rhs = -grad
    dx = np.empty((k, m))
    lam2, level, todo = [math.nan] * k, [-1] * k, list(range(k))
    for at, reg in enumerate((0.0, 1e-12, 1e-8, 1e-4)):
        mine = slice(None) if len(todo) == k else todo
        a = hess[mine] + (reg * scale[mine])[:, None, None] * eye
        try:
            step = np.linalg.solve(a, rhs[mine, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # one singular system fails the whole stack: solve one by one,
            # with nan for those that fail
            step = np.full((len(a), m), np.nan)
            for r in range(len(a)):
                try:
                    step[r] = np.linalg.solve(a[r], rhs[mine][r])
                except np.linalg.LinAlgError:
                    pass
        found = _dots(rhs[mine], step).tolist()
        good = [math.isfinite(l2) and l2 >= 0.0 for l2 in found]
        if at == 0 and all(good):
            return step, found, good, [False] * k
        left = []
        for r, (b, l2) in enumerate(zip(todo, found)):
            if good[r]:
                dx[b], lam2[b], level[b] = step[r], l2, at
            else:
                left.append(b)
        if not left:
            break
        todo = left
    return dx, lam2, [v == 0 for v in level], [v < 0 for v in level]


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
    status, the returned point satisfies all n LMIs strictly, unless the
    start failed, which it does only where its arithmetic is not finite
    (``_initial_point``); then it is the central point K_a = I/2,
    Pbar = 2 (P_a + P_b), and ``min_slack_eig`` says how far it misses.
    A ``tol`` that is not finite and positive, or ``max_iters`` below 1,
    raises DimensionError.
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
    those rounds' Newton steps.  The prefixes' rounds run in one lockstep
    (``_solve_batch``), which changes no prefix's result.  Sizes
    outside 1..n, or none, raise DimensionError, as do the ``tol`` and
    ``max_iters`` ``solve`` refuses.
    """
    return _solve_batch([problem], sizes, tol, max_iters)[0]


def _solve_batch(problems, sizes, tol: float = DEFAULT_TOL,
                 max_iters: int = DEFAULT_MAX_ITERS) -> list[list[SdpSolution]]:
    """``solve_prefixes`` of every problem (all of one d), as one list each.

    Every prefix's active-set loop (``_rounds``) asks for one barrier round
    at a time with the problem that checks it, and each round joins one
    ``_Lockstep`` as soon as it is asked for ("Batches" in the module
    docstring); prefixes that ask with one check share the round, which
    runs once.  When a round ends, its result and the check's least slack
    eigenvalues go to the prefixes that asked, and they ask for their next.
    Each solution is bitwise the one ``solve_prefixes`` returns for its
    problem alone.
    """
    _check_solver_args(tol, max_iters)
    sizes = list(sizes)
    jobs = []
    for problem in problems:
        if not sizes or min(sizes) < 1 or max(sizes) > problem.n:
            raise DimensionError(f"prefix sizes must lie in 1..{problem.n}, got {sizes}")
        d = problem.d
        m = d * d + d * (d + 1) // 2
        shared = _SHARED_FACTOR * m
        # checks the rounds that the prefixes longer than ``shared`` share
        opening = None
        if sum(size > shared for size in sizes) > 1:
            opening = _subset(problem, slice(max(sizes)))
        for size in sizes:
            prefix = _subset(problem, slice(size))
            if opening is not None and size > shared:
                first, check = shared, opening
            else:
                first, check = ACTIVE_FACTOR * m, prefix
            jobs.append((prefix, _rounds(prefix, tol, max_iters, first, check)))
    out: list = [None] * len(jobs)
    lock = _Lockstep(problems[0].d)
    owner = {}    # program -> (its check, the jobs that wait on it)

    def ask(ready):
        """Send each (job, round result) of ``ready`` to its job; the rounds
        the jobs ask for next join the lockstep."""
        asked = {}    # check -> (request, the jobs that ask with it)
        for j, sent in ready:
            prefix, loop = jobs[j]
            try:
                check, request = loop.send(sent)
            except StopIteration as stop:
                out[j], jobs[j] = _solution(prefix, tol, *stop.value), None
                continue
            asked.setdefault(check, (request, []))[1].append(j)
        if asked:
            requests, waits = zip(*asked.values())
            owner.update(zip(lock.add(list(requests)), zip(asked, waits)))

    ask([(j, None) for j in range(len(jobs))])
    while owner:
        ready = []
        for b in lock.finished():
            (check, waits), result = owner.pop(b), lock.result(b)
            sent = result, _least_slack_eigs(check, result[0][0])
            ready += [(j, sent) for j in waits]
        if ready:
            ask(ready)
        else:
            lock.tick()
    return [out[i:i + len(sizes)] for i in range(0, len(out), len(sizes))]


def _solution(problem: SampledFusionProblem, tol: float, x, status, used, lower, active,
              min_eig) -> SdpSolution:
    """A prefix's ``SdpSolution`` from its ``_rounds`` outcome, with the checks
    on its full sample set."""
    d = problem.d
    pbar, ka = _unpack(d, x)
    obj = float(_coords(d)[2] @ x)
    gap = (obj - lower) / max(abs(obj), 1e-300)
    if status is SolveStatus.OPTIMAL and (gap > tol or min_eig < -1e-7 * obj):
        status = SolveStatus.MAX_ITERATIONS
    # ka views x, and prefixes that end on a shared round share x
    return SdpSolution(gain_a=ka.copy(), gain_b=np.eye(d) - ka, bound=symmetrize(pbar),
                       objective=obj, status=status, gap=float(gap),
                       newton_iterations=used, min_slack_eig=min_eig, active_samples=active)


def _rounds(problem: SampledFusionProblem, tol: float, max_iters: int, first: int,
            check: SampledFusionProblem):
    """The active-set loop of barrier rounds on all of ``problem``'s samples.

    A generator: it yields (check, (subset problem, tol, budget, resume))
    for each round and is sent back that round's ``_Lockstep.result`` with
    the least slack eigenvalue of every sample of ``check`` at its x, of
    which it reads the first n.  The first active set is the first
    min(n, ``first``) samples.  ``check`` is ``problem`` or, for the rounds
    before the set first grows, the longest prefix that shares them
    ("Nested prefixes" in the module docstring); each later set is checked
    on ``problem``.  Returns (x, status, Newton steps, best
    certified lower bound, active samples, least eigenvalue of the n slacks
    at x): the last round's iterate, repaired when samples outside its set
    are still violated, and that round's status, before the checks
    ``_solution`` makes on the full sample set.
    """
    d, n = problem.d, problem.n
    m = d * d + d * (d + 1) // 2
    inside = np.arange(n) < first     # membership of the active set
    active = np.flatnonzero(inside)
    sub = _subset(problem, active)
    used, lower, resume = 0, -np.inf, None
    while True:
        screening = resume is None and tol < _SCREEN_TOL and n > first
        round_tol = _SCREEN_TOL if screening else tol
        result, worst = yield check, (sub, round_tol, max_iters - used, resume)
        worst = worst[:n]
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
            sub, resume, check = _subset(problem, active), None, problem
        elif not (screening and status is SolveStatus.OPTIMAL):
            break
    if violated.size:
        # out of budget (or broken down) with samples the subset point
        # violates: lift Pbar just past the worst violation
        pbar, ka = _unpack(d, x)
        delta = -float(worst.min())
        delta += max(_REPAIR_MARGIN * delta, _REPAIR_MARGIN * float(np.trace(pbar)) / d)
        x = _pack(d, pbar + delta * np.eye(d), ka)
        worst = _least_slack_eigs(problem, x)
    return x, status, used, lower, len(active), float(worst.min())


class _Lockstep:
    """Barrier path-following for programs of one d, in lockstep.

    Each program runs on all samples of its problem, from the central start
    point (``_initial_point``) with t = nu / trace(Pbar), or, given
    ``resume``, from the (x, t) an earlier run on the same problem ended
    at.  It spends at most ``budget`` Newton steps and stops at the first
    step that certifies its ``tol``.

    Programs join with ``add`` at any time.  Each ``tick`` makes one
    evaluation for every program that is starting or in a line search: one
    ``_Batch`` call serves them all, and each needing derivatives gets them
    from one more, and its Newton step from one batched solve.  A program's
    vectors (x, its Newton step, the barrier derivatives) are rows of batch
    arrays; its scalars (t, path stage, steps, line-search step, bounds and
    status) are entries of Python lists, and its tests are the lone
    method's, on Python floats, so each program follows exactly the path it
    follows alone.
    """

    def __init__(self, d: int):
        self.ev = _Batch(d)
        _, _, self.cvec, *_ = _coords(d)
        self.m = len(self.cvec)
        self.eye = np.eye(self.m)
        self.x, self.dx, self.grad_phi = (np.zeros((0, self.m)) for _ in range(3))
        self.hess = np.zeros((0, self.m, self.m))
        for name in ("t", "tol", "budget", "nu", "obj", "logdet", "lower",
                     "stage_lower", "step", "psi", "psi_eps", "gdx", "used", "stage",
                     "status", "started"):
            setattr(self, name, [])
        self.starting, self.searching, self.ended = [], [], []

    def add(self, rounds) -> list[int]:
        """Programs join, one per (problem, tol, budget, resume), and start at
        the next ``tick``; returns their ids.  Ids go in order of sample count
        within a call, which spares ``_Batch`` most reorderings."""
        first, count = len(self.t), len(rounds)
        order = sorted(range(count), key=lambda b: rounds[b][0].n)
        rounds = [rounds[b] for b in order]
        problems = [problem for problem, *_ in rounds]
        self.ev.extend(problems)
        x = np.array([_initial_point(p) if r[3] is None else r[3][0]
                      for p, r in zip(problems, rounds)])
        self.x = np.concatenate([self.x, x])
        self.dx, self.grad_phi = (np.concatenate([a, np.zeros_like(x)])
                                  for a in (self.dx, self.grad_phi))
        self.hess = np.concatenate([self.hess, np.zeros((count, self.m, self.m))])
        self.t += [None if r[3] is None else r[3][1] for r in rounds]
        self.tol += [r[1] for r in rounds]
        self.budget += [r[2] for r in rounds]
        self.nu += [float(3 * p.d * p.n) for p in problems]
        for name, value in (("obj", 0.0), ("logdet", 0.0), ("lower", -np.inf),
                            ("stage_lower", -np.inf),
                            ("step", 1.0), ("psi", 0.0), ("psi_eps", 0.0), ("gdx", 0.0),
                            ("used", 0), ("stage", 0),
                            ("status", SolveStatus.MAX_ITERATIONS), ("started", False)):
            getattr(self, name).extend([value] * count)
        self.starting += range(first, first + count)
        ids = [0] * count
        for at, b in enumerate(order):
            ids[b] = first + at
        return ids

    def finished(self) -> list[int]:
        """The programs done since the last call."""
        ended, self.ended = self.ended, []
        return ended

    def result(self, b: int):
        """((x, t), status, Newton steps, best certified lower bound) of program
        ``b``, done: the iterate and path parameter it ended at, and the status
        ``solve`` documents, before its checks on the full sample set.  A start
        fails only where its arithmetic is not finite (``_initial_point``); a
        program whose start failed has the start point as its iterate, t None,
        the status ``infeasible_numerics`` and the lower bound -inf.  The
        program's samples are let go: a result is read once."""
        self.ev.problems[b] = self.ev.e_upper[b] = None
        if not self.started[b]:
            return (self.x[b], None), SolveStatus.INFEASIBLE_NUMERICS, 0, -np.inf
        return (self.x[b], self.t[b]), self.status[b], self.used[b], self.lower[b]

    def _end_stages(self, ending) -> list[int]:
        """The path stage ends for each (program, stalled, broke) of
        ``ending``: settle its status, or raise t and return it to go on."""
        going = []
        for b, stalled, broke in ending:
            obj, lower = self.obj[b], self.lower[b]
            gap = (obj - lower) / max(abs(obj), 1e-300)
            if broke:
                self.status[b] = SolveStatus.INFEASIBLE_NUMERICS
            elif gap <= self.tol[b]:
                self.status[b] = SolveStatus.OPTIMAL
            # a stage that certifies nothing new means t has outrun float64
            elif not (self.used[b] >= self.budget[b] or stalled or lower <= self.stage_lower[b]):
                self.t[b] *= T_GROWTH
                self.stage[b] += 1
                if self.stage[b] < 80:
                    self.stage_lower[b] = lower
                    going.append(b)
                    continue
            self.ended.append(b)
        return going

    def _newton(self, rows: list[int]) -> None:
        """Newton steps at the kept derivatives until each of ``rows`` has a
        line search to run or is done."""
        cvec = self.cvec
        while rows:
            rows.sort()
            at = _rows(rows)
            t = [self.t[b] for b in rows]
            grad_phi = self.grad_phi[at]
            grad = np.array(t)[:, None] * cvec + grad_phi
            dx, lam2, exact, fails = _newton_steps(self.hess[at], grad, self.eye)
            # grad . dx is -lambda^2 exactly: negation commutes with every
            # product and sum of the dot product
            phi_dx = _dots(grad_phi, dx).tolist()
            ending, going = [], []
            for r, (b, tb, l2, ex, fl) in enumerate(zip(rows, t, lam2, exact, fails)):
                if self.used[b] >= self.budget[b] or fl:
                    ending.append((b, False, fl and self.used[b] < self.budget[b]))
                    continue
                ob = self.obj[b]
                if ex and l2 < 1.0:
                    # the dual point Z_i = (S_i - S_i dF S_i) / t, dF = sum_k dx_k A_k,
                    # is feasible while lambda < 1, with gap (nu + grad_phi . dx) / t
                    lower = self.lower[b] = max(self.lower[b], ob - (self.nu[b] + phi_dx[r]) / tb)
                    if (ob - lower) / max(abs(ob), 1e-300) <= self.tol[b]:
                        # certified: centering further buys the round nothing
                        ending.append((b, False, False))
                        continue
                psi = tb * ob - self.logdet[b]
                psi_eps = _ROUNDOFF * (abs(tb * ob) + abs(self.logdet[b]))
                if 0.5 * l2 <= max(_NEWTON_EPS, psi_eps):
                    ending.append((b, False, False))
                    continue
                self.used[b] += 1
                self.psi[b], self.psi_eps[b], self.gdx[b], self.step[b] = psi, psi_eps, -l2, 1.0
                going.append(r)
                self.searching.append(b)
            if len(going) == len(rows):
                self.dx[at] = dx
            elif going:
                self.dx[[rows[r] for r in going]] = dx[going]
            rows = self._end_stages(ending)

    def tick(self) -> None:
        """One evaluation for every program in a line search or starting, and
        what follows from it until each needs its next."""
        rows, starting = sorted(self.searching), self.starting
        self.searching, self.starting = [], []
        # each trial step goes with its halving, so a step that backtracks
        # once costs no further call; a halving the search does not reach
        # goes unread
        halvings = np.array([1.0, 0.5])
        at, count = _rows(rows), len(halvings)
        lengths = np.array([self.step[b] for b in rows])[:, None] * halvings
        trials = (self.x[at, None] + lengths[..., None] * self.dx[at, None]).reshape(-1, self.m)
        entries, points = np.repeat(np.array(rows, dtype=int), count), trials
        if starting:
            entries = np.concatenate([entries, starting])
            points = np.concatenate([trials, self.x[starting]])
        logdet, ok = self.ev.chol_logdet(entries, points)
        objs, logdet, ok = _dots(trials, self.cvec).tolist(), logdet.tolist(), ok.tolist()
        moved, accepted, derive, picked, ending = [], [], [], [], []
        for r, b in enumerate(rows):
            t, psi, gdx, step = self.t[b], self.psi[b], self.gdx[b], self.step[b]
            took = None     # the accepted entry, or -1 when the search stalls
            for e in range(r * count, (r + 1) * count):
                if ok[e]:
                    psit = t * objs[e] - logdet[e]
                    if psit <= psi + 1e-2 * step * gdx:
                        took = e
                        break
                step *= 0.5
                if not step > 1e-14:
                    took = -1
                    break
            self.step[b] = step
            if took is None:    # the halvings so far all failed
                self.searching.append(b)
                continue
            if took < 0:
                ending.append((b, True, False))
                continue
            e = took
            # a decrease lost in the roundoff of psi is no progress: the point
            # is as centered as float64 can tell
            if psi - psit <= self.psi_eps[b]:
                ending.append((b, False, False))
                continue
            moved.append(b)
            accepted.append(e)
            self.obj[b], self.logdet[b] = objs[e], logdet[e]
            if self.used[b] < self.budget[b]:
                picked.append(e)
                derive.append(b)
            else:
                ending.append((b, False, False))
        if moved:
            self.x[_rows(moved)] = trials[accepted]
        # a start that fails ends its program: a central start fails only where
        # it is not finite (``_initial_point``), and a resumed point evaluates
        # as when its own round accepted it, so no retry could succeed
        began = []
        for e, b in enumerate(starting, start=len(rows) * count):
            if ok[e]:
                self.started[b], self.logdet[b] = True, logdet[e]
                picked.append(e)
                derive.append(b)
                began.append(b)
            else:
                self.ended.append(b)
        # the barrier derivatives depend on x alone, so each program's are
        # kept until its x moves
        if derive:
            at = _rows(derive) if derive == sorted(derive) else derive
            self.grad_phi[at], self.hess[at] = self.ev.grad_hess(picked)
        if began:
            for b, obj in zip(began, _dots(self.x[began], self.cvec).tolist()):
                self.obj[b] = obj
                if self.t[b] is None:
                    self.t[b] = self.nu[b] / obj
        self._newton(self._end_stages(ending) + derive)


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
