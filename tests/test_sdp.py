"""Sampled conservative-fusion program and the embedded barrier solver."""

from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from cofusion.core import (
    CrossSparsityPattern,
    DimensionError,
    GaussianEstimate,
    JointCovariance,
    NotPositiveDefiniteError,
    is_conservative,
    make_substream_seed,
    symmetrize,
)
from cofusion.fusion import ci_fuse, exact_fuse, realized_cov
from cofusion.sampler import sample_set
from cofusion import sdp
from cofusion.sdp import (
    ACTIVE_FACTOR,
    _SCREEN_TOL,
    _SHARED_FACTOR,
    SolveStatus,
    _Batch,
    _initial_point,
    _least_slack_eigs,
    _pack,
    _solve_batch,
    _subset,
    _unpack,
    build_problem,
    SdpSolution,
    robust_fuse,
    solve,
    solve_prefixes,
)


def rand_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def est(mean, cov):
    return GaussianEstimate(np.asarray(mean, dtype=float), cov)


# ---------------------------------------------------------------------------
# problem assembly

def test_build_problem_shapes_and_inverses():
    rng = np.random.default_rng(0)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    samples = [s.p_ab for s in
               sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), 5, seed=3)]
    prob = build_problem(pa, pb, samples)
    assert prob.n == 5 and prob.d == 2
    logdet = 0.0
    for i, s in enumerate(samples):
        joint = np.block([[pa, s], [s.T, pb]])
        np.testing.assert_array_equal(prob.joints[i], joint)
        logdet += np.linalg.slogdet(joint)[1]
        assert prob.samples[i].tobytes() == s.tobytes()
        assert not prob.samples[i].flags.writeable
    # the program is held divided by 2^e, e the binary exponent of the trace,
    # so each normalized joint's logdet is 4 e log 2 below the given one's
    e = prob.exponent
    assert 0.5 <= np.ldexp(np.trace(pa + pb), -e) < 1.0
    assert prob.joint_logdet == pytest.approx(logdet - 5 * 4 * e * np.log(2.0), rel=1e-12)
    np.testing.assert_array_equal(prob.p_a, np.ldexp(pa, -e))
    np.testing.assert_array_equal(prob.p_b, np.ldexp(pb, -e))
    # one read-only samples-last array; the joints and samples are read-only
    # copies of it in the given units
    stored = prob.joints_last
    assert stored.shape == (4, 4, 5) and stored.flags.c_contiguous
    assert not stored.flags.writeable
    for view in (prob.joints, prob.samples):
        assert not view.flags.writeable
    np.testing.assert_array_equal(prob.joints, np.ldexp(stored, e).transpose(2, 0, 1))
    # a slice of the samples views them, an index array gathers them
    for idx, shared in ((slice(1, 4), True), (np.array([0, 2, 4]), False)):
        sub = _subset(prob, idx).joints_last
        assert np.shares_memory(sub, stored) is shared and not sub.flags.writeable
        np.testing.assert_array_equal(sub, stored[..., idx])
    own = [np.array(s) for s in samples]
    kept = build_problem(pa, pb, own).samples
    own[0][0, 0] += 1.0     # the problem keeps its own copy
    assert kept[0].tobytes() == samples[0].tobytes()


def test_build_problem_validation():
    with pytest.raises(DimensionError):
        build_problem(np.eye(2), np.eye(3), [np.zeros((2, 3))])
    with pytest.raises(DimensionError):
        build_problem(np.eye(2), np.eye(2), [])
    with pytest.raises(DimensionError):
        build_problem(np.eye(2), np.eye(2), [np.zeros((3, 3))])
    with pytest.raises(DimensionError, match="sample 2 has shape"):
        build_problem(np.eye(2), np.eye(2),
                      [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3))])


def test_build_problem_rejects_degenerate_sample_with_index():
    ok = np.zeros((2, 2))
    for bad, at in [
        # a cross block equal to the (identical) marginals makes the joint singular
        ([ok, np.eye(2)], 1),
        ([ok, np.full((2, 2), np.nan)], 1),
        ([ok, ok, np.diag([0.5, np.inf])], 2),
        # one indefinite joint among many valid ones
        ([0.5 * np.eye(2)] * 137 + [np.diag([0.5, 2.0])] + [-0.5 * np.eye(2)] * 162, 137),
    ]:
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            build_problem(np.eye(2), np.eye(2), bad)
        assert excinfo.value.sample_index == at


# ---------------------------------------------------------------------------
# solver on problems with known answers

def test_solve_independent_sample_matches_exact_fusion():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        pa, pb = rand_spd(rng, d), rand_spd(rng, d)
        prob = build_problem(pa, pb, [np.zeros((d, d))])
        sol = solve(prob, tol=1e-8)
        assert sol.status is SolveStatus.OPTIMAL
        ref = exact_fuse(est(np.zeros(d), pa), est(np.zeros(d), pb),
                         np.zeros((d, d)))
        assert float(np.trace(sol.bound)) == pytest.approx(
            float(np.trace(ref.bound)), abs=1e-5)


def test_solve_scalar_two_point_support():
    # with cross samples at +/-r the optimal scalar bound is known to be
    # the smaller variance as r approaches its feasible extreme
    pa, pb = np.array([[3.0]]), np.array([[1.0]])
    r = 0.999 * np.sqrt(3.0)
    sol = solve(build_problem(pa, pb, [np.array([[r]]), np.array([[-r]])]),
                tol=1e-6)
    assert sol.status is SolveStatus.OPTIMAL
    assert float(sol.bound[0, 0]) == pytest.approx(1.0, abs=2e-2)


def test_solution_feasible_and_certified():
    rng = np.random.default_rng(2)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    samples = [s.p_ab for s in
               sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), 25, seed=4)]
    prob = build_problem(pa, pb, samples)
    sol = solve(prob, tol=1e-7)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.gap <= 1e-7
    assert sol.min_slack_eig >= -1e-7 * sol.objective
    np.testing.assert_allclose(sol.gain_a + sol.gain_b, np.eye(2), atol=1e-12)
    # the bound dominates the realized covariance at every sampled joint
    for s in samples:
        actual = realized_cov(sol.gain_a, sol.gain_b, JointCovariance(pa, pb, s))
        assert is_conservative(sol.bound, actual, tol=1e-6)
    # every full LMI block [[bound, K], [K^T, J_i^-1]] with K = [gain_a, gain_b]
    # is positive semidefinite
    bound = np.ldexp(sol.bound, -prob.exponent)
    assert np.linalg.eigvalsh(_full_blocks(prob, bound, sol.gain_a)).min() >= -1e-7


def _certified_instance():
    # the instance of test_solution_feasible_and_certified
    rng = np.random.default_rng(2)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    samples = [s.p_ab for s in
               sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), 25, seed=4)]
    return build_problem(pa, pb, samples)


def test_unreachable_tolerance_ends_early_with_best_certified_gap():
    # a relative gap of 1e-15 is a few ulps of the objective: float64
    # cannot certify it, and the solver must say so long before its budget
    # instead of spending it against roundoff
    sol = solve(_certified_instance(), tol=1e-15, max_iters=1000)
    assert sol.status is SolveStatus.MAX_ITERATIONS
    assert sol.newton_iterations <= 200
    # the reported gap is the best certified on the way, so at least as
    # good as the gap a solve to 1e-7 certifies
    assert np.isfinite(sol.gap) and 1e-15 < sol.gap <= 1e-7
    assert sol.min_slack_eig >= -1e-7 * sol.objective


def test_certified_gap_bounds_true_suboptimality():
    # with one zero cross sample the optimum is the trace of the exact
    # (independent) fusion bound, so the certificate can be checked
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        pa, pb = rand_spd(rng, d), rand_spd(rng, d)
        sol = solve(build_problem(pa, pb, [np.zeros((d, d))]), tol=1e-8)
        optimum = float(np.trace(exact_fuse(est(np.zeros(d), pa), est(np.zeros(d), pb),
                                            np.zeros((d, d))).bound))
        assert (sol.objective - optimum) / sol.objective <= sol.gap


def test_solve_deterministic():
    rng = np.random.default_rng(3)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    samples = [s.p_ab for s in
               sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), 10, seed=5)]
    s1 = solve(build_problem(pa, pb, samples))
    s2 = solve(build_problem(pa, pb, samples))
    np.testing.assert_array_equal(s1.bound, s2.bound)
    np.testing.assert_array_equal(s1.gain_a, s2.gain_a)
    assert s1.newton_iterations == s2.newton_iterations


def test_solve_budget_exhaustion_reports_status():
    rng = np.random.default_rng(4)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    samples = [s.p_ab for s in
               sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), 10, seed=6)]
    sol = solve(build_problem(pa, pb, samples), tol=1e-10, max_iters=2)
    assert sol.status is SolveStatus.MAX_ITERATIONS
    # even the truncated iterate is strictly feasible
    assert sol.min_slack_eig > 0.0


def test_solve_validation():
    prob = build_problem(np.eye(1), np.eye(1), [np.zeros((1, 1))])
    with pytest.raises(DimensionError):
        solve(prob, tol=0.0)
    with pytest.raises(DimensionError):
        solve(prob, max_iters=0)


def test_more_samples_never_shrink_the_optimum():
    # growing the sample set adds constraints, so the optimal trace
    # cannot decrease (up to solver tolerance)
    rng = np.random.default_rng(5)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    draws = [s.p_ab for s in
             sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), 64, seed=7)]
    prev = -np.inf
    for n in (1, 4, 16, 64):
        sol = solve(build_problem(pa, pb, draws[:n]), tol=1e-8)
        obj = float(np.trace(sol.bound))
        assert obj >= prev - 1e-6 * max(abs(obj), 1.0)
        prev = obj


def test_free_pattern_optimum_rises_to_ci_from_below():
    # with a fully free cross-covariance the trace-optimal bound over the
    # whole admissible set is CI's (Reinhardt, Noack & Hanebeck, 2015), so
    # the sampled optimum stays at or below it and rises toward it with n
    pa, pb = np.diag([3.0, 1.0]), np.diag([1.0, 4.0])   # comparison_2d
    ci_trace = float(np.trace(ci_fuse(est([0, 0], pa), est([0, 0], pb)).bound))
    draws = [s.p_ab for s in
             sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), 1000, seed=7)]
    prev = -np.inf
    for n in (10, 100, 1000):
        sol = solve(build_problem(pa, pb, draws[:n]), tol=1e-6)
        assert sol.status is SolveStatus.OPTIMAL
        obj = float(np.trace(sol.bound))
        assert obj <= ci_trace * (1 + 1e-6)
        assert obj >= prev * (1 - 1e-6)
        prev = obj


# ---------------------------------------------------------------------------
# composed sampling + solving

def test_robust_fuse_deterministic_and_documented():
    rng = np.random.default_rng(6)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    a, b = est(rng.standard_normal(2), pa), est(rng.standard_normal(2), pb)
    pat = CrossSparsityPattern(2, 2, frozenset({(0, 1)}))
    r1 = robust_fuse(a, b, pat, n=50, seed=11, tol=1e-6)
    r2 = robust_fuse(a, b, pat, n=50, seed=11, tol=1e-6)
    np.testing.assert_array_equal(r1.bound, r2.bound)
    assert r1.method.value == "SDP"
    diag = r1.diagnostics
    assert diag["n_samples"] == 50 and diag["seed"] == 11
    assert diag["status"] == "optimal"
    assert diag["redraws"] == 0
    with pytest.raises(DimensionError):
        robust_fuse(a, b, pat, n=0, seed=1)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_robust_fuse_refuses_marginals_far_apart_naming_their_scale(scale):
    # no cross-covariance passes the pivot gate with these marginals, so the
    # refusal names their relative scale, not a sample to redraw
    a = est(np.zeros(2), np.diag([1.0, 9.0]) * scale)
    b = est(np.zeros(2), np.array([[6.0, 1.0], [1.0, 1.5]]) / scale)
    want = "10^400.1" if scale > 1 else "10^-399.9"
    with pytest.raises(NotPositiveDefiniteError, match=r"relative scale tr\(P_a\) / tr\(P_b\) = "
                       + want.replace("^", r"\^")) as info:
        robust_fuse(a, b, CrossSparsityPattern.unconstrained(2, 2), n=20, seed=1)
    assert getattr(info.value, "sample_index", None) is None


def test_robust_fuse_bound_conservative_on_fresh_samples():
    # check against samples the solver never saw
    rng = np.random.default_rng(7)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    a, b = est(np.zeros(2), pa), est(np.zeros(2), pb)
    pat = CrossSparsityPattern.unconstrained(2, 2)
    r = robust_fuse(a, b, pat, n=400, seed=12)
    fresh = sample_set(pa, pb, pat, 100, seed=999)
    worst = min(
        float(np.linalg.eigvalsh(
            r.bound - realized_cov(r.gain_a, r.gain_b,
                                   JointCovariance(pa, pb, s.p_ab)))[0])
        for s in fresh)
    # a sampled program is only approximately robust; fresh draws may
    # violate slightly but not grossly
    assert worst > -0.05 * float(np.linalg.norm(r.bound, 2))


def test_random_pairs_meet_the_sdp_and_exact_sandwich_checks():
    # checks that share no code with either rule: CI's (bound, gain) is
    # feasible for every admissible sample, so the sampled optimum lies below
    # CI's trace; exact fusion's bound is what its own gains realize
    rng = np.random.default_rng(23)
    for d in (1, 2, 3):
        for seed in range(3):
            pa, pb = rand_spd(rng, d), rng.uniform(0.1, 10.0) * rand_spd(rng, d)
            a, b = est(np.zeros(d), pa), est(np.zeros(d), pb)
            r = robust_fuse(a, b, CrossSparsityPattern.unconstrained(d, d), n=50, seed=seed)
            gap = r.diagnostics["gap"]
            assert np.trace(r.bound) <= np.trace(ci_fuse(a, b).bound) * (1.0 + gap), (d, seed)
            c = rng.standard_normal((d, d))
            cross = np.linalg.cholesky(pa) @ (0.9 * c / np.linalg.norm(c, 2)) \
                @ np.linalg.cholesky(pb).T
            exact = exact_fuse(a, b, cross)
            joint = JointCovariance(a.covariance, b.covariance, cross)
            np.testing.assert_array_equal(
                exact.bound, realized_cov(exact.gain_a, exact.gain_b, joint))


# ---------------------------------------------------------------------------
# metamorphic relations: units, the order of the pair, the frame

def _free_pair(d):
    rng = np.random.default_rng(100)
    pa, pb = rand_spd(rng, d), rand_spd(rng, d)
    draws = sample_set(pa, pb, CrossSparsityPattern.unconstrained(d, d), 200, seed=100)
    return pa, pb, np.array([s.p_ab for s in draws]), rng


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 3])
def test_a_change_of_units_changes_no_verdict(d):
    # scaling every covariance by c scales the program by c: the same path,
    # the same status, and the bound and least slack in the new units.  The
    # program is solved divided by 2^e, e the binary exponent of its trace,
    # so any scale check_spd accepts, down to 1e-300 and up to 1e300, gates
    # and solves as unit scale does, and without a numpy warning
    pa, pb, cross, _ = _free_pair(d)
    ref = solve(build_problem(pa, pb, cross))
    assert ref.status is SolveStatus.OPTIMAL
    # the last scale is the largest power of two at which check_spd accepts
    # the marginals; at d = 3 tr(P_a + P_b) overflows there
    top = 1023 - int(np.frexp(max(pa.max(), pb.max()))[1])
    for k in (-900, -60, -1, 1, 60, 900, top):
        # a power of two scales a float exactly: bitwise the same solve
        c = 2.0 ** k
        sol = solve(build_problem(c * pa, c * pb, c * cross))
        assert sol.status is ref.status
        assert sol.newton_iterations == ref.newton_iterations
        assert sol.gain_a.tobytes() == ref.gain_a.tobytes()
        assert sol.gain_b.tobytes() == ref.gain_b.tobytes()
        assert (sol.bound / c).tobytes() == ref.bound.tobytes()
        assert sol.objective / c == ref.objective and sol.gap == ref.gap
        assert sol.min_slack_eig / c == ref.min_slack_eig
    for k in (-300, -200, -100, -20, -17, -16, -14, -12, -8, -4, 0, 4, 8, 12, 20, 100, 150, 160,
              200, 300):
        c = 10.0 ** k
        sol = solve(build_problem(c * pa, c * pb, c * cross))
        assert sol.status is ref.status
        assert sol.newton_iterations == ref.newton_iterations
        assert sol.gap == pytest.approx(ref.gap, rel=1e-6)
        assert sol.objective / c == pytest.approx(ref.objective, rel=1e-12)
        # the least slack is about 1e-11 of the trace, so its roundoff is a
        # large part of it: compare it on the scale of the trace
        assert abs(sol.min_slack_eig / c - ref.min_slack_eig) <= 1e-12 * ref.objective


@pytest.mark.parametrize("d", [2, 3])
def test_swapping_the_pair_or_rotating_the_frame_moves_the_solution_with_it(d):
    pa, pb, cross, rng = _free_pair(d)
    ref = solve(build_problem(pa, pb, cross))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    swapped = solve(build_problem(pb, pa, cross.transpose(0, 2, 1)))
    rotated = solve(build_problem(q @ pa @ q.T, q @ pb @ q.T, q @ cross @ q.T))
    atol = 1e-10 * np.abs(ref.bound).max()
    for sol, bound in ((swapped, ref.bound), (rotated, q @ ref.bound @ q.T)):
        assert sol.status is ref.status is SolveStatus.OPTIMAL
        assert sol.newton_iterations == ref.newton_iterations
        assert sol.objective == pytest.approx(ref.objective, rel=1e-12)
        np.testing.assert_allclose(sol.bound, bound, rtol=0, atol=atol)
    np.testing.assert_allclose(swapped.gain_a, ref.gain_b, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# the slack route against the full 3d x 3d LMI blocks

def _full_blocks(prob, pbar, ka):
    """The LMI blocks [[Pbar, K], [K^T, J_i^-1]], K = [K_a, I - K_a], of every
    sample, in the program's normalized units, with the joints inverted here
    as an independent reference."""
    d = prob.d
    k = np.hstack([ka, np.eye(d) - ka])
    g = np.empty((prob.n, 3 * d, 3 * d))
    g[:, :d, :d] = pbar
    g[:, :d, d:] = k
    g[:, d:, :d] = k.T
    g[:, d:, d:] = symmetrize(np.linalg.inv(prob.joints_last.transpose(2, 0, 1)))
    return g


def _random_problem(rng, d, n):
    # cross blocks S = L_a X L_b^T with ||X||_2 < 1 keep every joint PD
    # without the sampler, which is slow at d = 8
    pa, pb = rand_spd(rng, d), rand_spd(rng, d)
    la, lb = np.linalg.cholesky(pa), np.linalg.cholesky(pb)
    samples = []
    for _ in range(n):
        x = rng.standard_normal((d, d))
        x *= rng.uniform(0.0, 0.9) / np.linalg.norm(x, 2)
        samples.append(la @ x @ lb.T)
    return build_problem(pa, pb, samples)


def _trace(d, x):
    """tr Pbar at the point x, the program's objective."""
    return float(sdp._coords(d)[2] @ x)


def _barrier(rounds):
    """``_Lockstep.result`` of each (problem, tol, budget, resume) of ``rounds``,
    all of one d, run to their end together in one lockstep."""
    lock = sdp._Lockstep(rounds[0][0].d)
    ids = lock.add(rounds)
    while lock.asks:
        lock.tick()
    return [lock.result(b) for b in ids]


def _points(prob):
    # the start point, and an iterate a few Newton steps along the path, in
    # the program's normalized units
    sol = solve(prob, tol=1e-12, max_iters=6)
    return [_initial_point(prob), _pack(prob.d, np.ldexp(sol.bound, -prob.exponent), sol.gain_a)]


def _evaluate(problems, rows, xs):
    """(logdet, feasible, gradient, Hessian) of each program ``rows[r]`` at
    ``xs[r]``, from one ``_Batch`` over all of them; the derivatives are
    None where x is not strictly feasible."""
    ev = _Batch(problems[0].d)
    ev.extend(problems)
    logdet, ok = ev.chol_logdet(np.asarray(rows), np.asarray(xs))
    grads = [None] * len(rows)
    if ok.any():
        picked = np.flatnonzero(ok).tolist()
        for at, g, h in zip(picked, *ev.grad_hess(picked)):
            grads[at] = (g, h)
    return logdet, ok, grads


def _full_block_logdet(prob, x):
    g = _full_blocks(prob, *_unpack(prob.d, x))
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))


def test_chol_logdet_matches_full_block_cholesky():
    # every (problem, point) pair of a d is one batch: sizes 1, 7 and 300 side
    # by side, each problem at two points
    rng = np.random.default_rng(21)
    for d in (1, 2, 3, 8):
        problems = [_random_problem(rng, d, n) for n in (1, 7, 300)]
        pairs = [(b, x) for b, prob in enumerate(problems) for x in _points(prob)]
        logdets, ok, _ = _evaluate(problems, *zip(*pairs))
        assert ok.all()
        for (b, x), logdet in zip(pairs, logdets):
            ref = _full_block_logdet(problems[b], x)
            assert ref is not None
            assert logdet == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_chol_logdet_infeasible_exactly_when_a_full_block_is_not_pd():
    # zero cross blocks realize (P_a + P_b) / 4 = I / 2 at K_a = I / 2; the
    # single sample with cross 0.9 I realizes 0.95 I (in the given units; the
    # program holds them divided by 2^3)
    samples = [np.zeros((2, 2))] * 5 + [0.9 * np.eye(2)] + [np.zeros((2, 2))] * 3
    prob = build_problem(np.eye(2), np.eye(2), samples)
    assert prob.exponent == 3
    ka = 0.5 * np.eye(2)
    xs = [_pack(2, scale / 8 * np.eye(2), ka) for scale in (1.0, 0.7, 0.4)]
    logdets, ok, _ = _evaluate([prob], [0, 0, 0], xs)
    for x, logdet, feasible, expected in zip(xs, logdets, ok, (True, False, False)):
        bad = np.flatnonzero(np.linalg.eigvalsh(_full_blocks(prob, *_unpack(2, x)))[:, 0] <= 0.0)
        assert feasible == expected == (len(bad) == 0) == np.isfinite(logdet)
    # at Pbar = 0.7 I only the one sample's slack is indefinite
    g = _full_blocks(prob, 0.7 / 8 * np.eye(2), ka)
    assert list(np.flatnonzero(np.linalg.eigvalsh(g)[:, 0] <= 0.0)) == [5]
    # random points: feasible exactly when every full block is PD
    rng = np.random.default_rng(22)
    prob = _random_problem(rng, 3, 40)
    x0 = _initial_point(prob)
    xs = [x0 * rng.uniform(0.05, 1.0) + 0.5 * rng.standard_normal(x0.shape) for _ in range(200)]
    _, ok, _ = _evaluate([prob], [0] * len(xs), xs)
    for x, feasible in zip(xs, ok):
        assert feasible == (_full_block_logdet(prob, x) is not None)
    assert set(ok) == {True, False}


def _full_block_basis(d):
    """The A_k of the 3d x 3d LMI blocks: dG_i / dx_k, for x as ``_pack`` lays it out."""
    iu_r, iu_c = np.triu_indices(d)
    a = np.zeros((len(iu_r) + d * d, 3 * d, 3 * d))
    for k, (i, j) in enumerate(zip(iu_r, iu_c)):
        a[k, i, j] = a[k, j, i] = 1.0
    for k, (r, c) in enumerate(np.ndindex(d, d), start=len(iu_r)):
        a[k, r, d + c] = a[k, d + c, r] = 1.0
        a[k, r, 2 * d + c] = a[k, 2 * d + c, r] = -1.0
    return a


def test_barrier_derivatives_match_full_block_reference():
    # grad_k = -sum_i tr(S_i A_k) and H_kl = sum_i tr(S_i A_k S_i A_l) with
    # S_i the inverse of the full block, one sample at a time
    # every (problem, point) pair of a d is one batch, as in the test above
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 8):
        problems = [_random_problem(rng, d, n) for n in (1, 7, 300)]
        a = _full_block_basis(d)
        m = len(a)
        for prob in problems:
            # G_i is affine in x with slopes A_k
            x = _initial_point(prob)
            g = _full_blocks(prob, *_unpack(d, x))[0]
            for k, step in enumerate(np.eye(m)):
                np.testing.assert_allclose(_full_blocks(prob, *_unpack(d, x + step))[0] - g,
                                           a[k], rtol=0, atol=1e-12)
        pairs = [(b, x) for b, prob in enumerate(problems) for x in _points(prob)]
        _, ok, derivs = _evaluate(problems, *zip(*pairs))
        assert ok.all()
        for (b, x), (grad, hess) in zip(pairs, derivs):
            grad_ref = np.zeros(m)
            hess_ref = np.zeros((m, m))
            for g in _full_blocks(problems[b], *_unpack(d, x)):
                s = np.linalg.inv(g)
                u = (s @ a).reshape(m, -1)
                grad_ref -= np.einsum('pq,kqp->k', s, a)
                hess_ref += u @ (a @ s).reshape(m, -1).T
            np.testing.assert_allclose(
                grad, grad_ref, rtol=1e-9, atol=1e-9 * np.abs(grad_ref).max())
            np.testing.assert_allclose(
                hess, hess_ref, rtol=1e-9, atol=1e-9 * np.abs(hess_ref).max())


def test_min_slack_eig_is_the_least_slack_eigenvalue_at_the_returned_point():
    prob = _certified_instance()
    for tol, max_iters in ((1e-7, 200), (1e-10, 3)):
        sol = solve(prob, tol=tol, max_iters=max_iters)
        assert sol.min_slack_eig == float(np.min(_slack_eigs(prob, sol.bound, sol.gain_a)))


# ---------------------------------------------------------------------------
# the active set: rounds of the barrier method on growing subsets

def _first_set(d):
    return ACTIVE_FACTOR * (d * d + d * (d + 1) // 2)


def _free_2d_problem(n, seed):
    # comparison_2d's marginals with every cross entry free
    pa, pb = np.diag([3.0, 1.0]), np.diag([1.0, 4.0])
    draws = sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), n, seed=seed)
    return build_problem(pa, pb, [s.p_ab for s in draws])


def _round(problem, iterate, status, steps, lower):
    """A barrier round's result read as the fields ``solve`` reports, in the
    given units."""
    bound, gain_a = _unpack(problem.d, iterate[0])
    e = problem.exponent
    return SimpleNamespace(bound=np.ldexp(bound, e), gain_a=gain_a,
                           objective=np.ldexp(_trace(problem.d, iterate[0]), e),
                           status=status, newton_iterations=steps, active_samples=problem.n)


def _spy_rounds(monkeypatch, record):
    """Call ``record(problem, tol, resume, result)`` for every barrier round,
    one program each, as its result is read."""
    add, result = sdp._Lockstep.add, sdp._Lockstep.result
    asked = {}    # (lockstep, id) -> (problem, tol, budget, resume)

    def spy_add(self, rounds):
        ids = add(self, rounds)
        asked.update(((self, b), r) for b, r in zip(ids, rounds))
        return ids

    def spy_result(self, b):
        problem, tol, _, resume = asked.pop((self, b))
        out = result(self, b)
        record(problem, tol, resume, out)
        return out

    monkeypatch.setattr(sdp._Lockstep, "add", spy_add)
    monkeypatch.setattr(sdp._Lockstep, "result", spy_result)


@pytest.fixture
def rounds(monkeypatch):
    """(subset problem, round) of every barrier round while the test runs."""
    seen = []
    _spy_rounds(monkeypatch, lambda problem, tol, resume, out:
                seen.append((problem, _round(problem, *out))))
    return seen


def _slack_eigs(problem, bound, gain_a):
    """The least eigenvalue of each slack at (bound, gain_a), in the given units."""
    e = problem.exponent
    return np.ldexp(_least_slack_eigs(problem, _pack(problem.d, np.ldexp(bound, -e), gain_a)), e)


def _marginals(problem):
    """(P_a, P_b) in the given units."""
    return (np.ldexp(m, problem.exponent) for m in (problem.p_a, problem.p_b))


def test_subset_equals_build_problem_on_its_samples():
    prob = _random_problem(np.random.default_rng(24), 2, 50)
    for idx in (slice(30), np.array([0, 3, 4, 17, 49])):
        sub = _subset(prob, idx)
        ref = build_problem(*_marginals(prob), [prob.samples[i] for i in np.arange(50)[idx]])
        assert sub.n == ref.n and sub.d == ref.d
        for name in ("joints", "log_pivots"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(ref, name))
        assert sub.joint_logdet == ref.joint_logdet
        assert [a.tobytes() for a in sub.samples] == [a.tobytes() for a in ref.samples]


def test_active_set_solve_matches_the_whole_barrier(rounds):
    tol = 1e-7
    for seed in (7, 8):
        prob = _free_2d_problem(600, seed)
        assert prob.n > _first_set(2)
        sol = solve(prob, tol=tol)
        assert len(rounds) >= 2
        rounds.clear()
        whole = _round(prob, *_barrier([(prob, tol, 200, None)])[0])
        assert sol.status is whole.status is SolveStatus.OPTIMAL
        assert sol.active_samples < prob.n and whole.active_samples == prob.n
        assert sol.min_slack_eig > 0.0
        assert abs(sol.objective - whole.objective) <= tol * whole.objective
        np.testing.assert_allclose(sol.bound, whole.bound, rtol=0, atol=1e-5)


@pytest.mark.parametrize("d", [2, 3])
def test_a_round_resumed_after_screening_reaches_the_whole_solves_optimum(d):
    # the screening round stops at the first step that certifies _SCREEN_TOL,
    # wherever centering stands; the path resumed from there still ends at
    # the optimum a fresh solve reaches
    prob = _random_problem(np.random.default_rng(40 + d), d, 300)
    tol = 1e-7
    (x, t), status, _, lower = _barrier([(prob, _SCREEN_TOL, 200, None)])[0]
    obj = _trace(d, x)
    assert status is SolveStatus.OPTIMAL and tol < (obj - lower) / obj <= _SCREEN_TOL
    # the resumed round and a fresh one, side by side in one batch
    ((x, _), status, _, _), ((fresh, _), fresh_status, _, _) = _barrier(
        [(prob, tol, 200, (x, t)), (prob, tol, 200, None)])
    assert status is fresh_status is SolveStatus.OPTIMAL
    assert _trace(d, x) == pytest.approx(_trace(d, fresh), rel=tol)


@pytest.mark.parametrize("d", [2, 3])
def test_rounds_joining_a_running_lockstep_follow_their_lone_paths(d):
    # fresh and resumed rounds join one lockstep at ticks 0, 3 and 7, while
    # the earlier ones are still running; each ends bitwise as it does alone
    rng = np.random.default_rng(70 + d)
    problems = [_random_problem(rng, d, n) for n in (40, 90, 40, 150, 60, 90)]
    screened = _barrier([(problems[k], _SCREEN_TOL, 200, None) for k in (1, 3, 4)])
    resumed = {k: out[0] for k, out in zip((1, 3, 4), screened)}
    joins = {0: [(problems[0], 1e-7, 200, None), (problems[1], 1e-7, 200, resumed[1])],
             3: [(problems[2], _SCREEN_TOL, 200, None), (problems[3], 1e-7, 12, resumed[3])],
             7: [(problems[4], 1e-7, 200, resumed[4]), (problems[5], 1e-7, 200, None)]}
    lock = sdp._Lockstep(d)
    ids, tick = [], 0
    while tick <= max(joins) or lock.asks:
        if tick in joins:
            assert tick == 0 or lock.asks
            ids += lock.add(joins[tick])
        lock.tick()
        tick += 1
    together = [lock.result(b) for b in ids]
    alone = [_barrier([r])[0] for r in (r for rounds in joins.values() for r in rounds)]
    for ((x, t), status, steps, lower), ((ref_x, ref_t), *ref) in zip(together, alone):
        assert x.tobytes() == ref_x.tobytes()
        assert (t, status, steps, lower) == (ref_t, *ref)


def test_binding_sample_after_the_first_set_joins_the_active_set(rounds):
    # near-zero crosses fill the first set; the one extreme cross comes last
    # and alone forces the bound up from I / 2 to 0.975 I
    rng = np.random.default_rng(25)
    first = _first_set(2)
    extreme = 0.95 * np.eye(2)
    samples = [0.01 * rng.uniform(-1.0, 1.0, (2, 2)) for _ in range(2 * first)] + [extreme]
    prob = build_problem(np.eye(2), np.eye(2), samples)
    sol = solve(prob, tol=1e-7)
    assert sol.status is SolveStatus.OPTIMAL
    assert first < sol.active_samples < prob.n
    last = rounds[-1][0]
    assert last.n == sol.active_samples
    assert any(s.tobytes() == extreme.tobytes() for s in last.samples)
    actual = realized_cov(sol.gain_a, sol.gain_b, JointCovariance(np.eye(2), np.eye(2), extreme))
    assert is_conservative(sol.bound, actual, tol=1e-9)
    assert float(np.trace(sol.bound)) == pytest.approx(1.95, rel=1e-6)


def test_max_iters_caps_newton_steps_summed_over_rounds(rounds):
    prob = _free_2d_problem(600, 7)
    full = solve(prob, tol=1e-7)
    steps = [s.newton_iterations for _, s in rounds]
    assert len(steps) >= 2 and full.newton_iterations == sum(steps)
    cap = steps[0] + 10     # the second round gets 10 steps
    rounds.clear()
    sol = solve(prob, tol=1e-7, max_iters=cap)
    assert sol.newton_iterations == sum(s.newton_iterations for _, s in rounds) == cap
    assert sol.status is SolveStatus.MAX_ITERATIONS
    assert sol.min_slack_eig > 0.0


def test_budget_exhausted_solve_returns_a_point_feasible_for_every_sample(rounds):
    # the last round ends on the budget at a point that violates samples
    # outside its subset; the returned point lifts its bound past them
    prob = _random_problem(np.random.default_rng(26), 3, 2000)
    budget = 50     # the first round screens in 54 steps
    sol = solve(prob, tol=1e-7, max_iters=budget)
    sub, last = rounds[-1]
    assert sub.n < prob.n
    assert _slack_eigs(prob, last.bound, last.gain_a).min() < 0.0
    assert sol.status is SolveStatus.MAX_ITERATIONS
    assert sol.newton_iterations == budget
    np.testing.assert_array_equal(sol.gain_a, last.gain_a)
    lift = sol.bound - last.bound
    delta = lift[0, 0]
    assert delta > 0.0
    np.testing.assert_allclose(lift, delta * np.eye(3), rtol=0, atol=1e-14 * delta)
    assert sol.objective == pytest.approx(last.objective + 3 * delta, rel=1e-14)
    # the repaired point's least slack eigenvalue is taken over every sample
    assert sol.min_slack_eig == _slack_eigs(prob, sol.bound, sol.gain_a).min() > 0.0
    # the gap is certified against a relaxation, so it stays honest
    assert np.isfinite(sol.gap) and sol.gap > 0.0


def test_robust_fuse_reports_the_active_set():
    rng = np.random.default_rng(27)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    a, b = est(np.zeros(2), pa), est(np.zeros(2), pb)
    pat = CrossSparsityPattern.unconstrained(2, 2)
    small = robust_fuse(a, b, pat, n=50, seed=13)
    assert small.diagnostics["active_samples"] == 50
    large = robust_fuse(a, b, pat, n=400, seed=13)
    assert _first_set(2) <= large.diagnostics["active_samples"] < 400


def _no_feasible_start(monkeypatch, problems=None):
    """Starts that are infeasible (Pbar = -I in normalized units), for
    ``problems`` (all when None); returns that start's (Pbar, K_a)."""
    central = sdp._initial_point

    def start(problem):
        if problems is not None and not any(problem.p_a is p.p_a for p in problems):
            return central(problem)
        return _pack(problem.d, -np.eye(problem.d), 0.5 * np.eye(problem.d))

    monkeypatch.setattr(sdp, "_initial_point", start)
    return -np.eye(2), 0.5 * np.eye(2)


def test_failed_start_reports_its_start_point_on_either_path(monkeypatch):
    # no strictly feasible start: a whole solve reports the start point
    # with its real least slack eigenvalue; an active-set solve reports it
    # repaired, lifted just past every sample's violation
    pbar, ka = _no_feasible_start(monkeypatch)
    big = _free_2d_problem(400, 9)
    small = build_problem(*_marginals(big), list(big.samples[:50]))
    assert small.n <= _first_set(2) < big.n
    sols = [solve(prob, tol=1e-7) for prob in (small, big)]
    for prob, sol in zip((small, big), sols):
        assert sol.status is SolveStatus.INFEASIBLE_NUMERICS
        assert sol.gap == np.inf and sol.newton_iterations == 0
        np.testing.assert_array_equal(sol.gain_a, ka)
        assert sol.min_slack_eig == _slack_eigs(prob, sol.bound, ka).min()
    np.testing.assert_array_equal(sols[0].bound, np.ldexp(pbar, small.exponent))
    assert sols[0].min_slack_eig < 0.0
    assert np.linalg.eigvalsh(_full_blocks(small, pbar, ka)).min() < 0.0
    lift = sols[1].bound - np.ldexp(pbar, big.exponent)
    np.testing.assert_allclose(lift, lift[0, 0] * np.eye(2), rtol=0, atol=1e-15)
    assert sols[1].min_slack_eig > 0.0
    assert (sols[0].active_samples, sols[1].active_samples) == (50, _first_set(2))


def test_the_start_is_the_central_point_when_it_is_feasible():
    prob = _free_2d_problem(50, 9)
    np.testing.assert_array_equal(
        _initial_point(prob), _pack(2, 2.0 * symmetrize(prob.p_a + prob.p_b), 0.5 * np.eye(2)))
    (x, _), status, _, _ = _barrier([(prob, 1e-7, 1, None)])[0]
    assert status is SolveStatus.MAX_ITERATIONS
    assert not np.array_equal(x, _initial_point(prob))    # one step from it


def test_the_central_start_clears_every_slack_at_any_conditioning():
    # at the central start every slack is (7/4) S - (X_i + X_i^T) / 4 >= (3/2) S,
    # S = P_a + P_b, so its first evaluation succeeds whatever the conditioning
    rng = np.random.default_rng(40)
    for d in (1, 2, 3, 4):
        off = frozenset((i, j) for i in range(d) for j in range(d) if i != j)
        for cond in (1.0, 1e5, 1e10):
            # scaling the axes keeps the correlations, and so the sampler's pace
            spread = np.diag(cond ** -np.linspace(0.0, 0.5, d))
            pa, pb = (spread @ rand_spd(rng, d) @ spread for _ in range(2))
            samples = [s.p_ab for pattern in (CrossSparsityPattern.unconstrained(d, d),
                                              CrossSparsityPattern(d, d, off))
                       for s in sample_set(pa, pb, pattern, 3, seed=d)]
            # rank-one crosses L_a u v^T L_b^T just inside the admissible set, for
            # random unit u, v and for those that load S's least eigenvector
            la, lb = np.linalg.cholesky(pa), np.linalg.cholesky(pb)
            least = np.linalg.eigh(pa + pb)[1][:, 0]
            for u, v in ((rng.standard_normal(d), rng.standard_normal(d)),
                         (la.T @ least, lb.T @ least)):
                u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
                samples.append(la @ np.outer(u, v) @ lb.T * (1.0 - 1e-6))
            prob = build_problem(pa, pb, samples)
            x = _initial_point(prob)
            floor = 1.5 * np.linalg.eigvalsh(prob.p_a + prob.p_b)[0] * (1.0 - 1e-9)
            assert _least_slack_eigs(prob, x).min() >= floor
            ev = _Batch(d)
            ev.extend([prob])
            assert ev.chol_logdet(np.array([0]), x[None])[1].all()


# ---------------------------------------------------------------------------
# nested prefixes solved in one pass

PREFIXES = [1, 10, 50, 200, 1000, 2000]


def _prefix_problem(zeros, n, seed):
    pa, pb = np.diag([3.0, 1.0]), np.diag([1.0, 4.0])
    draws = sample_set(pa, pb, CrossSparsityPattern(2, 2, frozenset(zeros)), n, seed=seed)
    return build_problem(pa, pb, [s.p_ab for s in draws])


def _same(a, b):
    """Field for field, bitwise."""
    for f in fields(SdpSolution):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


def _shared_set(d):
    return _SHARED_FACTOR * (d * d + d * (d + 1) // 2)


@pytest.fixture
def fresh_rounds(monkeypatch):
    """Sample count of every barrier round that starts afresh while the test runs."""
    seen = []
    _spy_rounds(monkeypatch, lambda problem, tol, resume, out:
                resume is None and seen.append(problem.n))
    return seen


@pytest.mark.parametrize("zeros, seed", [({(0, 1), (1, 0)}, 2), ((), 6)],
                         ids=["comparison_2d", "fully_free"])
def test_prefixes_past_the_shared_set_run_their_first_round_once(zeros, seed, fresh_rounds):
    prob = _prefix_problem(zeros, PREFIXES[-1], seed)
    shared = _shared_set(2)
    assert PREFIXES[2] < shared < PREFIXES[3]
    sols = solve_prefixes(prob, PREFIXES, tol=1e-6)
    assert fresh_rounds.count(shared) == 1
    assert len(sols) == len(PREFIXES)
    for n, sol in zip(PREFIXES, sols):
        assert sol.status is SolveStatus.OPTIMAL and sol.min_slack_eig > 0.0
        alone = solve(_subset(prob, slice(n)), tol=1e-6)
        if n <= shared:
            assert _same(sol, alone)
            continue
        # the same solve as when this prefix runs the first round itself,
        # certified to tol like the lone solve, which starts on fewer samples
        assert _same(sol, solve_prefixes(prob, [n, n], tol=1e-6)[0])
        assert sol.objective == pytest.approx(alone.objective, rel=1.1e-6)
        assert sol.active_samples >= shared


def test_a_lone_prefix_past_the_shared_set_is_solved_as_solve_solves_it(fresh_rounds):
    prob = _prefix_problem({(0, 1), (1, 0)}, 1000, 2)
    sols = solve_prefixes(prob, [50, 1000], tol=1e-6)
    assert _shared_set(2) not in fresh_rounds
    assert _same(sols[0], solve(_subset(prob, slice(50)), tol=1e-6))
    assert _same(sols[1], solve(prob, tol=1e-6))


def test_a_prefix_solution_does_not_depend_on_the_order_of_sizes():
    prob = _prefix_problem({(0, 1), (1, 0)}, 1000, 2)
    mixed = solve_prefixes(prob, [1000, 50, 200], tol=1e-6)
    ordered = solve_prefixes(prob, [50, 200, 1000], tol=1e-6)
    assert _same(mixed[1], solve(_subset(prob, slice(50)), tol=1e-6))
    for a, b in ((mixed[0], ordered[2]), (mixed[1], ordered[0]), (mixed[2], ordered[1])):
        assert _same(a, b)


def test_each_prefix_spends_its_own_budget_on_the_shared_round(fresh_rounds):
    prob = _prefix_problem((), 2000, 3)
    sols = solve_prefixes(prob, [1000, 2000], tol=1e-6, max_iters=5)
    assert fresh_rounds == [_shared_set(2)]
    for n, sol in zip((1000, 2000), sols):
        # the budget ran out in the shared round; the point still satisfies
        # every LMI of its own prefix
        assert sol.status is SolveStatus.MAX_ITERATIONS
        assert sol.newton_iterations == 5
        assert sol.min_slack_eig > 0.0
        assert _same(sol, solve_prefixes(prob, [n, n], tol=1e-6, max_iters=5)[0])


@pytest.fixture
def all_rounds(monkeypatch):
    """(samples, tol, fresh, Newton steps) of every barrier round the test runs."""
    seen = []
    _spy_rounds(monkeypatch, lambda problem, tol, resume, out:
                seen.append((problem.n, tol, resume is None, out[2])))
    return seen


def test_prefixes_share_the_screening_and_the_resumed_round_of_the_shared_set(all_rounds):
    prob = _prefix_problem({(0, 1), (1, 0)}, PREFIXES[-1], 2)
    shared = _shared_set(2)
    sols = solve_prefixes(prob, PREFIXES, tol=1e-6)
    on_shared = [(tol, fresh) for n, tol, fresh, _ in all_rounds if n == shared]
    assert on_shared == [(_SCREEN_TOL, True), (1e-6, False)]
    for n, sol in zip(PREFIXES, sols):
        assert sol.status is SolveStatus.OPTIMAL
        if n > shared:
            assert sol.active_samples == shared


@pytest.mark.parametrize("zeros, seed", [({(0, 1), (1, 0)}, 2), ((), 6)],
                         ids=["comparison_2d", "fully_free"])
def test_prefix_min_slack_eig_is_taken_on_its_own_slacks(zeros, seed):
    prob = _prefix_problem(zeros, PREFIXES[-1], seed)
    for n, sol in zip(PREFIXES, solve_prefixes(prob, PREFIXES, tol=1e-6)):
        own = _slack_eigs(_subset(prob, slice(n)), sol.bound, sol.gain_a).min()
        assert sol.min_slack_eig == own


def test_a_budget_that_runs_out_in_the_second_shared_round(all_rounds):
    prob = _prefix_problem({(0, 1), (1, 0)}, PREFIXES[-1], 2)
    shared = _shared_set(2)
    solve_prefixes(prob, PREFIXES, tol=1e-6)
    screen, resumed = [steps for n, _, _, steps in all_rounds if n == shared]
    budget = screen + resumed // 2
    assert screen < budget < screen + resumed
    all_rounds.clear()
    sols = solve_prefixes(prob, PREFIXES, tol=1e-6, max_iters=budget)
    assert [fresh for n, _, fresh, _ in all_rounds if n == shared] == [True, False]
    for n, sol in zip(PREFIXES, sols):
        if n <= shared:
            continue
        assert sol.status is SolveStatus.MAX_ITERATIONS
        assert sol.newton_iterations == budget
        assert sol.min_slack_eig > 0.0
        assert _same(sol, solve_prefixes(prob, [n, n], tol=1e-6, max_iters=budget)[0])


@pytest.mark.parametrize("slot", [1, 9, 19, 20, 21, 25, 26, 30])
def test_a_prefix_that_leaves_the_shared_rounds_is_solved_on_its_own(slot):
    # compare on comparison_2d at --mc 3 --seed slot: one of its runs holds
    # prefixes whose active set grows past the shared set
    pa, pb = np.diag([3.0, 1.0]), np.diag([1.0, 4.0])
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    sizes = [10, 50, 200, 1000, 2000]
    shared = _shared_set(2)
    leaving_runs = 0
    for r in range(3):
        draws = sample_set(pa, pb, pattern, sizes[-1],
                           make_substream_seed(slot, "samples", r))
        prob = build_problem(pa, pb, [s.p_ab for s in draws])
        left = False
        for n, sol in zip(sizes, solve_prefixes(prob, sizes, tol=1e-6)):
            if n > shared and sol.active_samples > shared:
                left = True
                assert _same(sol, solve_prefixes(prob, [n, n], tol=1e-6)[0])
        leaving_runs += left
    assert leaving_runs == 1


# ---------------------------------------------------------------------------
# a batch of problems solved in one lockstep

@pytest.mark.parametrize("d, sizes, seeds", [(2, [20, 200, 400], (25, 22, 23)),
                                             (3, [30, 400, 800], (29, 20, 22))])
def test_a_batch_of_problems_is_solved_as_each_alone(monkeypatch, d, sizes, seeds):
    # at a budget of 60 Newton steps: the shortest prefixes certify; the first
    # problem's longer prefixes run out of budget on their shared set and are
    # repaired; the second's longest grows its active set; the third has no
    # strictly feasible start.  Every field of every solution is bitwise the
    # one its problem gets alone, and the prefixes past the shared set share
    # their rounds
    problems = [_random_problem(np.random.default_rng(seed), d, sizes[-1]) for seed in seeds]
    _no_feasible_start(monkeypatch, problems[2:])
    rounds = []     # (samples, fresh, objective, gains) of every round
    _spy_rounds(monkeypatch, lambda problem, tol, resume, out: rounds.append(
        (problem.n, resume is None, *(lambda r: (r.objective, r.gain_a))(_round(problem, *out)))))
    tol, budget, shared = 1e-6, 60, _shared_set(d)
    batch = _solve_batch(problems, sizes, tol, budget)
    assert sum(n == shared and fresh for n, fresh, _, _ in rounds) == len(problems)
    for prob, sols in zip(problems, batch):
        assert all(_same(a, b) for a, b in zip(sols, solve_prefixes(prob, sizes, tol, budget)))
        assert _same(sols[0], solve(_subset(prob, slice(sizes[0])), tol, budget))
    repaired, grown, unstarted = batch
    assert repaired[0].status is grown[0].status is SolveStatus.OPTIMAL
    for sol in repaired[1:]:
        # a round's point lifted past the samples it violates: the same
        # gains, a larger bound
        assert sol.status is SolveStatus.MAX_ITERATIONS and sol.newton_iterations == budget
        assert sol.active_samples == shared and sol.min_slack_eig > 0.0
        assert any(np.array_equal(sol.gain_a, gains) and sol.objective > obj
                   for _, _, obj, gains in rounds)
    assert grown[-1].active_samples > shared
    assert all(sol.status is SolveStatus.INFEASIBLE_NUMERICS for sol in unstarted)


@pytest.mark.parametrize("spoil", [np.zeros_like, np.negative], ids=["singular", "indefinite"])
def test_a_newton_system_that_breaks_down_ends_only_its_own_program(monkeypatch, spoil):
    # one program of three in a lockstep gets a zero (or negated) barrier
    # Hessian, so its first Newton system has no solution (or a negative
    # lambda^2): it ends infeasible_numerics at its start, with no retry, and
    # the other two are bitwise what they are alone
    problems = [_random_problem(np.random.default_rng(seed), 2, 60) for seed in (30, 31, 32)]
    broken = problems[1]
    chol_logdet, grad_hess = _Batch.chol_logdet, _Batch.grad_hess
    entries = {}    # evaluator -> the programs of its last chol_logdet entries

    def spy(self, rows, xs):
        entries[self] = rows
        return chol_logdet(self, rows, xs)

    def spoiled(self, picked):
        grads, hess = grad_hess(self, picked)
        for r, e in enumerate(picked):
            if self.problems[entries[self][e]].p_a is broken.p_a:
                hess[r] = spoil(hess[r])
        return grads, hess

    monkeypatch.setattr(_Batch, "chol_logdet", spy)
    monkeypatch.setattr(_Batch, "grad_hess", spoiled)
    tol, sizes = 1e-7, [60]
    batch = _solve_batch(problems, sizes, tol)
    sol = batch[1][0]
    assert sol.status is SolveStatus.INFEASIBLE_NUMERICS
    assert sol.newton_iterations == 0 and sol.gap == np.inf
    np.testing.assert_array_equal(sol.gain_a, 0.5 * np.eye(2))
    assert sol.min_slack_eig > 0.0
    for prob, sols in zip(problems[::2], batch[::2]):
        assert sols[0].status is SolveStatus.OPTIMAL
        assert _same(sols[0], solve_prefixes(prob, sizes, tol)[0])


def test_solve_prefixes_validation():
    prob = _prefix_problem((), 20, 4)
    for sizes in ([], [0], [prob.n + 1], [5, 0, 10]):
        with pytest.raises(DimensionError):
            solve_prefixes(prob, sizes)
    with pytest.raises(DimensionError):
        solve_prefixes(prob, [5], tol=0.0)
    with pytest.raises(DimensionError):
        solve_prefixes(prob, [5], max_iters=0)
