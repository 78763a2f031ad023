"""Sampled conservative-fusion program and the embedded barrier solver."""

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
    symmetrize,
)
from cofusion.fusion import ci_fuse, exact_fuse, realized_cov
from cofusion.sampler import sample_set
from cofusion import sdp
from cofusion.sdp import (
    ACTIVE_FACTOR,
    SolveStatus,
    _barrier,
    _initial_point,
    _subset,
    _Workspace,
    build_problem,
    robust_fuse,
    solve,
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
        np.testing.assert_allclose(prob.joint_inverses[i] @ joint, np.eye(4),
                                   atol=1e-9)
        logdet += np.linalg.slogdet(joint)[1]
        assert prob.samples[i].tobytes() == s.tobytes()
        assert not prob.samples[i].flags.writeable
    assert prob.joint_logdet == pytest.approx(logdet, rel=1e-12)
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
    # a cross block equal to the (identical) marginals makes the joint singular
    bad = [np.zeros((2, 2)), np.eye(2)]
    with pytest.raises(NotPositiveDefiniteError) as excinfo:
        build_problem(np.eye(2), np.eye(2), bad)
    assert excinfo.value.sample_index == 1


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
    assert sol.min_lmi_eig >= -1e-7
    np.testing.assert_allclose(sol.gain_a + sol.gain_b, np.eye(2), atol=1e-12)
    # the bound dominates the realized covariance at every sampled joint
    for s in samples:
        actual = realized_cov(sol.gain_a, sol.gain_b, JointCovariance(pa, pb, s))
        assert is_conservative(sol.bound, actual, tol=1e-6)
    # every full LMI block [[bound, K], [K^T, J_i^-1]] with K = [gain_a, gain_b]
    # is positive semidefinite
    k = np.hstack([sol.gain_a, sol.gain_b])
    g = np.empty((prob.n, 6, 6))
    g[:, :2, :2] = sol.bound
    g[:, :2, 2:] = k
    g[:, 2:, :2] = k.T
    g[:, 2:, 2:] = prob.joint_inverses
    assert np.linalg.eigvalsh(g).min() >= -1e-7


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
    assert sol.min_lmi_eig >= -1e-7


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
    assert sol.min_lmi_eig > 0.0


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


# ---------------------------------------------------------------------------
# the slack route against the full 3d x 3d LMI blocks

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


def _points(ws, prob):
    # the start point, and an iterate a few Newton steps along the path
    x0 = _initial_point(ws, prob)[0]
    sol = solve(prob, tol=1e-12, max_iters=6)
    return [x0, ws.pack(sol.bound, sol.gain_a)]


def _full_block_logdet(ws, x):
    g = ws.lmis(x)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))


def test_lmis_are_the_full_blocks():
    rng = np.random.default_rng(20)
    prob = _random_problem(rng, 2, 4)
    ws = _Workspace(prob)
    pbar, ka = rand_spd(rng, 2), rng.standard_normal((2, 2))
    g = ws.lmis(ws.pack(pbar, ka))
    k = np.hstack([ka, np.eye(2) - ka])
    for i, s in enumerate(prob.samples):
        jinv = np.linalg.inv(np.block([[prob.p_a, s], [s.T, prob.p_b]]))
        np.testing.assert_allclose(g[i], np.block([[pbar, k], [k.T, jinv]]),
                                   rtol=1e-12, atol=1e-12)


def test_chol_logdet_matches_full_block_cholesky():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3, 8):
        for n in (1, 7, 300):
            prob = _random_problem(rng, d, n)
            ws = _Workspace(prob)
            for x in _points(ws, prob):
                factors, logdet = ws.chol_logdet(x)
                ref = _full_block_logdet(ws, x)
                assert factors is not None and ref is not None
                assert logdet == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_chol_logdet_infeasible_exactly_when_a_full_block_is_not_pd():
    # zero cross blocks realize (P_a + P_b) / 4 = I / 2 at K_a = I / 2; the
    # single sample with cross 0.9 I realizes 0.95 I
    samples = [np.zeros((2, 2))] * 5 + [0.9 * np.eye(2)] + [np.zeros((2, 2))] * 3
    prob = build_problem(np.eye(2), np.eye(2), samples)
    ws = _Workspace(prob)
    ka = 0.5 * np.eye(2)
    for scale, feasible in ((1.0, True), (0.7, False), (0.4, False)):
        x = ws.pack(scale * np.eye(2), ka)
        factors, logdet = ws.chol_logdet(x)
        bad = np.flatnonzero(np.linalg.eigvalsh(ws.lmis(x))[:, 0] <= 0.0)
        assert (factors is not None) == feasible == (len(bad) == 0)
        if not feasible:
            assert logdet == -np.inf
    # at Pbar = 0.7 I only the one sample's slack is indefinite
    x = ws.pack(0.7 * np.eye(2), ka)
    assert list(np.flatnonzero(np.linalg.eigvalsh(ws.lmis(x))[:, 0] <= 0.0)) == [5]
    # random points: feasible exactly when every full block is PD
    rng = np.random.default_rng(22)
    prob = _random_problem(rng, 3, 40)
    ws = _Workspace(prob)
    x0 = _initial_point(ws, prob)[0]
    outcomes = set()
    for _ in range(200):
        x = x0 * rng.uniform(0.05, 1.0) + 0.5 * rng.standard_normal(x0.shape)
        feasible = ws.chol_logdet(x)[0] is not None
        assert feasible == (_full_block_logdet(ws, x) is not None)
        outcomes.add(feasible)
    assert outcomes == {True, False}


def test_barrier_derivatives_match_full_block_reference():
    # grad_k = -sum_i tr(S_i A_k) and H_kl = sum_i tr(S_i A_k S_i A_l) with
    # S_i the inverse of the full block, one sample at a time
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 8):
        for n in (1, 7, 300):
            prob = _random_problem(rng, d, n)
            ws = _Workspace(prob)
            a = ws.basis.reshape(ws.m, ws.p3, ws.p3)
            for x in _points(ws, prob):
                grad, hess = ws.barrier_grad_hess(ws.chol_logdet(x)[0])
                grad_ref = np.zeros(ws.m)
                hess_ref = np.zeros((ws.m, ws.m))
                for g in ws.lmis(x):
                    s = np.linalg.inv(g)
                    u = (s @ a).reshape(ws.m, -1)
                    grad_ref -= np.einsum('pq,kqp->k', s, a)
                    hess_ref += u @ (a @ s).reshape(ws.m, -1).T
                np.testing.assert_allclose(
                    grad, grad_ref, rtol=1e-9, atol=1e-9 * np.abs(grad_ref).max())
                np.testing.assert_allclose(
                    hess, hess_ref, rtol=1e-9, atol=1e-9 * np.abs(hess_ref).max())


def test_min_lmi_eig_is_taken_on_the_full_blocks():
    prob = _certified_instance()
    ws = _Workspace(prob)
    for tol, max_iters in ((1e-7, 200), (1e-10, 3)):
        sol = solve(prob, tol=tol, max_iters=max_iters)
        x = ws.pack(sol.bound, sol.gain_a)
        assert sol.min_lmi_eig == float(np.min(np.linalg.eigvalsh(ws.lmis(x))))


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
    """A barrier round's result read as the fields ``solve`` reports."""
    ws = _Workspace(problem)
    bound, gain_a = ws.unpack(iterate[0])
    return SimpleNamespace(bound=bound, gain_a=gain_a, objective=float(ws.cvec @ iterate[0]),
                           status=status, newton_iterations=steps, active_samples=problem.n)


@pytest.fixture
def rounds(monkeypatch):
    """(subset problem, round) of every barrier round while the test runs."""
    seen = []
    barrier = sdp._barrier

    def spy(problem, *args):
        out = barrier(problem, *args)
        seen.append((problem, _round(problem, *out)))
        return out

    monkeypatch.setattr(sdp, "_barrier", spy)
    return seen


def _slack_eigs(problem, bound, gain_a):
    ws = _Workspace(problem)
    return np.linalg.eigvalsh(ws.slacks(ws.pack(bound, gain_a))[0])[:, 0]


def test_subset_equals_build_problem_on_its_samples():
    prob = _random_problem(np.random.default_rng(24), 2, 50)
    for idx in (slice(30), np.array([0, 3, 4, 17, 49])):
        sub = _subset(prob, idx)
        ref = build_problem(prob.p_a, prob.p_b, [prob.samples[i] for i in np.arange(50)[idx]])
        assert sub.n == ref.n and sub.d == ref.d
        for name in ("joints", "joint_inverses", "log_pivots"):
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
        whole = _round(prob, *_barrier(prob, tol, 200))
        assert sol.status is whole.status is SolveStatus.OPTIMAL
        assert sol.active_samples < prob.n and whole.active_samples == prob.n
        assert sol.min_lmi_eig > 0.0
        assert abs(sol.objective - whole.objective) <= tol * whole.objective
        np.testing.assert_allclose(sol.bound, whole.bound, rtol=0, atol=1e-5)


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
    assert sol.min_lmi_eig > 0.0


def test_budget_exhausted_solve_returns_a_point_feasible_for_every_sample(rounds):
    # the last round ends on the budget at a point that violates samples
    # outside its subset; the returned point lifts its bound past them
    prob = _random_problem(np.random.default_rng(26), 3, 2000)
    sol = solve(prob, tol=1e-7, max_iters=60)
    sub, last = rounds[-1]
    assert sub.n < prob.n
    assert _slack_eigs(prob, last.bound, last.gain_a).min() < 0.0
    assert sol.status is SolveStatus.MAX_ITERATIONS
    assert sol.newton_iterations == 60
    np.testing.assert_array_equal(sol.gain_a, last.gain_a)
    lift = sol.bound - last.bound
    delta = lift[0, 0]
    assert delta > 0.0
    np.testing.assert_allclose(lift, delta * np.eye(3), rtol=0, atol=1e-14 * delta)
    assert sol.objective == pytest.approx(last.objective + 3 * delta, rel=1e-14)
    assert _slack_eigs(prob, sol.bound, sol.gain_a).min() > 0.0
    assert sol.min_lmi_eig > 0.0
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


def test_failed_start_reports_the_central_point_on_either_path(monkeypatch):
    # no strictly feasible start: a whole solve and an active-set solve
    # report the same central point with its real LMI eigenvalue
    monkeypatch.setattr(sdp, "_initial_point", lambda ws, problem: None)
    big = _free_2d_problem(400, 9)
    small = build_problem(big.p_a, big.p_b, list(big.samples[:50]))
    assert small.n <= _first_set(2) < big.n
    central = 2.0 * symmetrize(big.p_a + big.p_b)
    sols = []
    for prob in (small, big):
        sol = solve(prob, tol=1e-7)
        ws = _Workspace(prob)
        lmi_eig = np.linalg.eigvalsh(ws.lmis(ws.pack(central, 0.5 * np.eye(2)))).min()
        assert sol.status is SolveStatus.INFEASIBLE_NUMERICS
        assert sol.gap == np.inf and sol.newton_iterations == 0
        np.testing.assert_array_equal(sol.bound, central)
        np.testing.assert_array_equal(sol.gain_a, 0.5 * np.eye(2))
        assert sol.min_lmi_eig == lmi_eig > 0.0
        sols.append(sol)
    assert sols[0].objective == sols[1].objective
    assert (sols[0].active_samples, sols[1].active_samples) == (50, _first_set(2))
