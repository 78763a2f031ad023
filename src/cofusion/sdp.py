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
K J_i[:, d:])] by forward substitution (``core.ldl_forward``), and
E_i = P_a + P_b - X_i - X_i^T for the cross block X_i.  The upper
entries of all R_i form one (d(2d+1), n) array: the gradient is a row
sum of it, and each Hessian entry is two entries of its Gram matrix.

Units: ``build_problem`` divides P_a, P_b and the samples by 2^e, e the
binary exponent of tr(P_a + P_b), and ``_solution`` multiplies back what
it reports in covariance units.  A power of two scales a float exactly, so
inputs scaled by any 2^k give the solver bitwise the same arrays.

Feasibility is judged on the slacks alone: ``min_slack_eig`` is the least
eigenvalue of all n slacks C_i at the returned point, in the units of
the covariances.  It scales with them, as the objective does, whereas
the full blocks mix the units of Pbar with those of J_i^{-1}.

Certification: every Newton step dx at path parameter t where the
decrement lambda is below 1 yields a dual-feasible point
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

Batches: a barrier round is one ``_barrier`` generator, the method in
textbook order (start, path stages, damped Newton steps, backtracking)
with its state in local variables.  It yields a request for each
evaluation it needs: the logdet at its start, the objectives and logdets
of a trial step and its halving, the derivatives at a point it accepted,
or a Newton step.  ``_solve_batch`` runs the rounds of every prefix of
every problem it is given (all of one d) in one lockstep (``_Lockstep``),
which a round joins as soon as its prefix asks for it.  Each tick answers
every start and search with one evaluation, then the derivatives and the
Newton steps that follow, each kind with one batched call; a trial's
halving goes alongside it, so a step that backtracks once costs no
further tick.  The per-sample work of a tick (the slacks,
``core.ldl_pivots``, the derivatives) is one numpy call over the samples
of all rounds laid end to end.  Every product with a round's own K, and
every sum over a round's samples (logdet, the gradient's row sums, the
Gram matrix of the Hessian), stays per round: one stacked call per group
of rounds with the same sample count, which makes for each round the BLAS
call or reduction a lone solve makes.  Sums over the whole batch with zero
weights, or products padded to a common width, would change the order of
the additions.  So each answer, and with it a round's iterates, is bitwise
that of a lone solve, whatever shares its batch, and no solution depends
on which other prefixes or problems were solved with it.

Centering (``_barrier``): a stage centers until lambda^2 / 2 <=
_NEWTON_EPS, and a round stops at the first Newton step that certifies
its tolerance, centered or not.  Near the end of the path the float64
roundoff of the barrier objective psi = t * trace(Pbar) - logdet swamps
any absolute stopping rule, so centering also ends when lambda^2 / 2
falls below that roundoff, or when an accepted step lowers psi by no more
than it (no progress; the step is discarded).  A stage that raises the
certified lower bound no further means the tolerance is out of float64's
reach: the solve ends there with ``max_iterations``, as it does after 80
stages.
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
    ldl_forward,
    ldl_pivots,
    make_substream_seed,
    symmetrize,
)
from .fusion import _check_same_labels
from .sampler import CrossSparsityPattern, sample_cross, sample_set

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200
# a sample whose normalized joint covariance (``build_problem``) has a Cholesky
# pivot below this (an LDL^T pivot below MIN_PIVOT**2) is rejected
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
    """Marginals and sampled joints, ready to solve, in normalized units.

    ``p_a``, ``p_b`` and ``joints_last`` hold the marginals and the joint
    covariances J_i divided by 2^``exponent``, the joints samples last as
    one read-only (2d, 2d, n) array.  ``log_pivots`` holds the logs of each
    normalized J_i's Cholesky pivots, and ``joint_logdet`` is sum_i logdet
    J_i, twice their sum.  ``joints`` and ``samples`` are read-only copies
    in the units of the input, bitwise as given.
    """

    p_a: np.ndarray
    p_b: np.ndarray
    joints_last: np.ndarray
    joint_logdet: float
    log_pivots: np.ndarray
    d: int
    exponent: int

    @property
    def n(self) -> int:
        return self.joints_last.shape[-1]

    @property
    def joints(self) -> np.ndarray:
        """The (n, 2d, 2d) joint covariances."""
        out = np.ldexp(self.joints_last, self.exponent).transpose(2, 0, 1)
        out.flags.writeable = False
        return out

    @property
    def samples(self) -> np.ndarray:
        """The (n, d, d) cross-covariance samples."""
        return self.joints[:, :self.d, self.d:]


def _log10_trace(p: np.ndarray) -> float:
    """log10 tr(p) of an SPD p, its trace taken at a scale where it cannot overflow."""
    k = math.frexp(p.max())[1]
    return math.log10(np.trace(np.ldexp(p, -k))) + k * math.log10(2.0)


def build_problem(p_a, p_b, samples) -> SampledFusionProblem:
    """Assemble the sampled program; gates each joint once.

    P_a, P_b and the samples are divided by 2^e, e the binary exponent of
    tr(P_a + P_b) (``math.frexp``), so the program is held with its trace in
    [1/2, 1).  Each sample is a d x d cross-covariance; the implied joint
    [[P_a, S], [S^T, P_b]] must be positive definite with every LDL^T pivot
    at least MIN_PIVOT**2 = 1e-20 times 2^e, a gate relative to the trace,
    otherwise the sample is rejected (the raised error carries
    ``sample_index``, the first such sample, so callers can redraw it).
    A joint's first d pivots are P_a's, and its last d at most P_b's (the
    k-th pivot of M is 1/(M_[:k+1]^-1)_kk, and the Schur complement
    P_b - S^T P_a^-1 S lies below P_b), so marginals whose own pivots fail
    the gate, such as inputs far apart in scale, fail it with every
    sample; they are refused first, naming the traces' ratio.
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
    # tr(P_a + P_b) taken at a scale where the sum cannot overflow
    top = math.frexp(max(p_a.max(), p_b.max()))[1]
    exponent = math.frexp(float(np.trace(np.ldexp(p_a, -top) + np.ldexp(p_b, -top))))[1] + top
    marginals = (p_a, p_b)
    p_a, p_b, stack = (np.ldexp(a, -exponent) for a in (p_a, p_b, stack))
    # ldl_pivots factors in place
    if not ldl_pivots(np.stack([p_a, p_b], axis=-1)).min() >= MIN_PIVOT ** 2:
        decades = _log10_trace(marginals[0]) - _log10_trace(marginals[1])
        raise NotPositiveDefiniteError(
            f"the marginals fail the conditioning threshold before any cross-covariance "
            f"(an LDL^T pivot below {MIN_PIVOT ** 2:g} * 2^{exponent}), at a relative scale "
            f"tr(P_a) / tr(P_b) = 10^{decades:.1f}")
    joints = np.empty((2 * d, 2 * d, len(stack)))
    joints[:d, :d] = p_a[:, :, None]
    joints[d:, d:] = p_b[:, :, None]
    joints[:d, d:] = stack.transpose(1, 2, 0)
    joints[d:, :d] = stack.transpose(2, 1, 0)
    pivots = ldl_pivots(joints.copy())
    # a nan pivot (a sample that is not finite) fails too
    bad = np.flatnonzero(~(pivots.min(axis=0) >= MIN_PIVOT ** 2))
    if bad.size:
        err = NotPositiveDefiniteError(
            f"sample {bad[0]}: joint covariance fails the conditioning "
            f"threshold (an LDL^T pivot below {MIN_PIVOT ** 2:g} * 2^{exponent})")
        err.sample_index = int(bad[0])
        raise err
    joints.flags.writeable = False
    log_pivots = 0.5 * np.log(pivots.T)
    log_pivots.flags.writeable = False
    return SampledFusionProblem(p_a=p_a, p_b=p_b, joints_last=joints,
                                joint_logdet=2.0 * float(np.sum(log_pivots)),
                                log_pivots=log_pivots, d=d, exponent=exponent)


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
        joint_logdet=2.0 * float(np.sum(log_pivots)), log_pivots=log_pivots, d=problem.d,
        exponent=problem.exponent)


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
        docstring).  N_i is forward-substituted by ``core.ldl_forward`` with
        the factors ``chol_logdet`` kept."""
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
        ldl_forward(ldl, pivots, nmat)
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row a_r . b_r (b may be one shared vector), each the one BLAS
    dot product that ``a_r @ b_r`` takes."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _newton_steps(hess: np.ndarray, grad: np.ndarray):
    """(dx, lambda^2, broken down) of each Newton system H dx = -g in a batch,
    the last two as lists.

    At a strictly feasible point H is positive definite, so a system that
    does not solve, or whose lambda^2 = -g . dx is not finite and
    non-negative, has broken down in roundoff; it is not retried.
    """
    rhs = -grad
    try:
        dx = np.linalg.solve(hess, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve one by one, with
        # nan for those that fail
        dx = np.full_like(rhs, np.nan)
        for r, (h, g) in enumerate(zip(hess, rhs)):
            try:
                dx[r] = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                pass
    lam2 = _dots(rhs, dx).tolist()
    return dx, lam2, [not (math.isfinite(l2) and l2 >= 0.0) for l2 in lam2]


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
    well before the budget in the last two cases.  ``infeasible_numerics``
    means roundoff broke the method: a start whose arithmetic is not
    finite (``_initial_point``), or a Newton system that does not solve or
    gives a lambda^2 that is not finite and non-negative, which a
    positive definite barrier Hessian cannot; nothing is retried.
    Whatever the status, the returned point satisfies all n LMIs strictly,
    unless the start failed; then it is the central point K_a = I/2,
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
    on its full sample set, in the units of the input."""
    d = problem.d
    pbar, ka = _unpack(d, x)
    obj = float(_coords(d)[2] @ x)
    gap = (obj - lower) / max(abs(obj), 1e-300)
    if status is SolveStatus.OPTIMAL and (gap > tol or min_eig < -1e-7 * obj):
        status = SolveStatus.MAX_ITERATIONS
    # ka views x, and prefixes that end on a shared round share x
    e = problem.exponent
    return SdpSolution(gain_a=ka.copy(), gain_b=np.eye(d) - ka, bound=np.ldexp(symmetrize(pbar), e),
                       objective=math.ldexp(obj, e), status=status, gap=float(gap),
                       newton_iterations=used, min_slack_eig=math.ldexp(min_eig, e),
                       active_samples=active)


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


def _barrier(problem: SampledFusionProblem, tol: float, budget: int, resume, cvec: np.ndarray):
    """Barrier path-following on all of ``problem``'s samples, as a generator.

    It starts from the central point (``_initial_point``) with
    t = nu / trace(Pbar), or, given ``resume``, from the (x, t) an earlier
    run on the same problem ended at; it spends at most ``budget`` Newton
    steps and stops at the first step that certifies ``tol``.  Every
    evaluation is a request, answered by ``_Lockstep`` together with other
    programs' requests:

    - ("start", x): (logdet, strictly feasible) at x;
    - ("search", x, dx, step): the trial x + step dx and its halving
      x + (step / 2) dx as a (2, m) array, and lists of their objectives,
      logdets and feasibility;
    - ("derive", i): the gradient and Hessian of -sum_i logdet G_i at
      point i of the last evaluation;
    - ("newton", t, grad_phi, hess): the Newton step dx, lambda^2, whether
      the system broke down (``_newton_steps``), and grad_phi . dx.

    Returns ((x, t), status, Newton steps, best certified lower bound): the
    iterate and path parameter it ended at, and the status ``solve``
    documents, before its checks on the full sample set.  A central start
    fails only where its arithmetic is not finite (``_initial_point``), and
    a resumed point evaluates as when its own round accepted it, so no
    retry could succeed: a failed start returns the start point, t None,
    the status ``infeasible_numerics`` and the lower bound -inf.
    """
    x, t = (_initial_point(problem), None) if resume is None else resume
    logdet, ok = yield "start", x
    if not ok:
        return (x, None), SolveStatus.INFEASIBLE_NUMERICS, 0, -np.inf
    # the barrier derivatives depend on x alone, so they are kept until x moves
    grad_phi, hess = yield "derive", 0
    nu = float(3 * problem.d * problem.n)
    obj = _dots(x[None], cvec).tolist()[0]
    if t is None:
        t = nu / obj
    used, lower, stage_lower = 0, -np.inf, -np.inf
    for _ in range(80):     # path stages, each centering at t
        stalled = False
        while used < budget:
            dx, lam2, broke, phi_dx = yield "newton", t, grad_phi, hess
            if broke:
                return (x, t), SolveStatus.INFEASIBLE_NUMERICS, used, lower
            if lam2 < 1.0:
                # the dual point Z_i = (S_i - S_i dF S_i) / t, dF = sum_k dx_k A_k,
                # is feasible while lambda < 1, with gap (nu + grad_phi . dx) / t
                lower = max(lower, obj - (nu + phi_dx) / t)
                if (obj - lower) / max(abs(obj), 1e-300) <= tol:
                    # certified: centering further buys the round nothing
                    break
            psi = t * obj - logdet
            psi_eps = _ROUNDOFF * (abs(t * obj) + abs(logdet))
            if 0.5 * lam2 <= max(_NEWTON_EPS, psi_eps):
                break
            used += 1
            # backtracking from the full step, with the Armijo slope
            # grad . dx = -lambda^2 (exactly: negation commutes with every
            # product and sum of the dot product).  Each trial comes with its
            # halving, so a step that backtracks once costs no further evaluation
            step, at = 1.0, 2
            while True:
                if at == 2:
                    trials, objs, logdets, oks = yield "search", x, dx, step
                    at = 0
                if oks[at]:
                    psit = t * objs[at] - logdets[at]
                    if psit <= psi - 1e-2 * step * lam2:
                        break
                step *= 0.5
                at += 1
                if not step > 1e-14:
                    stalled = True
                    break
            # a decrease lost in the roundoff of psi is no progress: the point
            # is as centered as float64 can tell
            if stalled or psi - psit <= psi_eps:
                break
            x, obj, logdet = trials[at], objs[at], logdets[at]
            if used < budget:
                grad_phi, hess = yield "derive", at
        if (obj - lower) / max(abs(obj), 1e-300) <= tol:
            return (x, t), SolveStatus.OPTIMAL, used, lower
        # a stage that certifies nothing new means t has outrun float64
        if used >= budget or stalled or lower <= stage_lower:
            break
        t *= T_GROWTH
        stage_lower = lower
    return (x, t), SolveStatus.MAX_ITERATIONS, used, lower


class _Lockstep:
    """``_barrier`` programs of one d, stepped together.

    Programs join with ``add`` at any time, and between ticks each asks
    for a "start" or a "search".  A ``tick`` answers all of those with one
    ``_Batch.chol_logdet`` call (the searches' trial points built by one
    expression) and one ``_dots`` for the trials' objectives, then every
    "derive" that follows with one ``_Batch.grad_hess`` call, then the
    "newton" requests with one ``_newton_steps`` call at a time until none
    is left.  Each answer is bitwise the one a program alone gets
    (``_Batch``), so each follows exactly the path it follows alone.
    """

    def __init__(self, d: int):
        self.ev = _Batch(d)
        self.cvec = _coords(d)[2]
        self.m = len(self.cvec)
        self.programs, self.asks = {}, {}   # by id, of the programs still running
        self.results, self.ended = {}, []

    def add(self, rounds) -> list[int]:
        """Programs join, one per (problem, tol, budget, resume), and start at
        the next ``tick``; returns their ids.  Ids go in order of sample count
        within a call, which spares ``_Batch`` most reorderings."""
        first = len(self.ev.problems)
        order = sorted(range(len(rounds)), key=lambda b: rounds[b][0].n)
        self.ev.extend([rounds[b][0] for b in order])
        ids = [0] * len(rounds)
        for at, b in enumerate(order, start=first):
            self.programs[at] = _barrier(*rounds[b], self.cvec)
            self.asks[at] = next(self.programs[at])
            ids[b] = at
        return ids

    def finished(self) -> list[int]:
        """The programs done since the last call."""
        ended, self.ended = self.ended, []
        return ended

    def result(self, b: int):
        """What program ``b``'s ``_barrier`` returned.  Its samples are let go:
        a result is read once."""
        self.ev.problems[b] = self.ev.e_upper[b] = None
        return self.results.pop(b)

    def _answer(self, b: int, answer) -> str | None:
        """Send program ``b`` its answer; what it asks next, None once it is done."""
        try:
            self.asks[b] = self.programs[b].send(answer)
        except StopIteration as done:
            del self.programs[b], self.asks[b]
            self.results[b] = done.value
            self.ended.append(b)
            return None
        return self.asks[b][0]

    def tick(self) -> None:
        """One evaluation for every program that starts or searches, and the
        requests that follow from it until each asks for its next."""
        m, cvec = self.m, self.cvec
        searching = [(b, ask) for b, ask in self.asks.items() if ask[0] == "search"]
        starting = [(b, ask[1]) for b, ask in self.asks.items() if ask[0] == "start"]
        x, dx = (np.array([ask[k] for _, ask in searching]).reshape(-1, m) for k in (1, 2))
        lengths = np.array([ask[3] for _, ask in searching])[:, None] * np.array([1.0, 0.5])
        trials = (x[:, None] + lengths[..., None] * dx[:, None]).reshape(-1, m)
        entries = np.array([b for b, _ in searching for _ in range(2)] + [b for b, _ in starting],
                           dtype=int)
        points = np.concatenate([trials, [point for _, point in starting]]) if starting else trials
        logdet, ok = self.ev.chol_logdet(entries, points)
        objs, logdet, ok = _dots(trials, cvec).tolist(), logdet.tolist(), ok.tolist()
        derive = []     # (program, entry of its point)
        for e, (b, _) in zip(range(0, len(trials), 2), searching):
            asked = self._answer(b, (trials[e:e + 2], objs[e:e + 2], logdet[e:e + 2],
                                     ok[e:e + 2]))
            if asked == "derive":
                derive.append((b, e + self.asks[b][1]))
        for e, (b, _) in enumerate(starting, start=len(trials)):
            if self._answer(b, (logdet[e], ok[e])) == "derive":
                derive.append((b, e))
        if derive:
            grad_phi, hess = self.ev.grad_hess([e for _, e in derive])
            for (b, _), g, h in zip(derive, grad_phi, hess):
                self._answer(b, (g, h))
        while newton := [(b, ask) for b, ask in self.asks.items() if ask[0] == "newton"]:
            t, grad_phi, hess = (np.array([ask[k] for _, ask in newton]) for k in (1, 2, 3))
            dx, lam2, broke = _newton_steps(hess, t[:, None] * cvec + grad_phi)
            phi_dx = _dots(grad_phi, dx).tolist()
            for r, (b, _) in enumerate(newton):
                self._answer(b, (dx[r], lam2[r], broke[r], phi_dx[r]))


def robust_fuse(a: GaussianEstimate, b: GaussianEstimate, pattern: CrossSparsityPattern,
                n: int, seed: int, tol: float = DEFAULT_TOL) -> FusionResult:
    """Sample the admissible cross-covariances and solve for optimal gains.

    Composes the rejection sampler, problem assembly, and the barrier
    solver.  Samples rejected by the conditioning gate at build time are
    redrawn from a dedicated substream (at most 100 redraws).  Draws have
    the sampler's default attempt budget, and the solve ``solve``'s
    default of ``DEFAULT_MAX_ITERS`` Newton steps, in the normalized units
    of ``build_problem``, so the covariances' units change no status.  A
    ``tol`` that ``solve`` would refuse is refused before any sample is
    drawn.  Raises SolverError when the solve ends ``infeasible_numerics``;
    a budget exhaustion is returned with its status in the diagnostics.
    """
    _check_same_labels(a, b)
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
        raise SolverError(f"semidefinite solve broke down numerically (gap={sol.gap:.3e})")
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
