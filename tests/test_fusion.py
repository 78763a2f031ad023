"""Closed-form fusion rules: intersection, block-wise intersection, exact."""

import numpy as np
import pytest

from cofusion.core import (
    BlockPartition,
    CrossSparsityPattern,
    DimensionError,
    GaussianEstimate,
    JointCovariance,
    NotPositiveDefiniteError,
    StackLayout,
    is_conservative,
)
from cofusion.fusion import (
    OFF_BLOCK_TOL,
    _ci,
    _nmci,
    _off_mass,
    _Pieces,
    _trace_terms,
    ci_fuse,
    exact_fuse,
    nmci_fuse,
    optimize_ci_omega,
    realized_cov,
)
from cofusion.sampler import sample_cross

P_A = np.diag([3.0, 1.0])
P_B = np.diag([1.0, 4.0])


def rand_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


def est(mean, cov, labels=None):
    return GaussianEstimate(np.asarray(mean, dtype=float), cov,
                            tuple(labels) if labels else ())


# ---------------------------------------------------------------------------
# weight optimization

def test_optimize_omega_interior_minimum():
    # frozen oracle values for the diag(3,1) / diag(1,4) pair
    w = optimize_ci_omega(P_A, P_B)
    assert w == pytest.approx(0.556349177898, abs=1e-6)
    ia, ib = np.linalg.inv(P_A), np.linalg.inv(P_B)
    f = float(np.trace(np.linalg.inv(w * ia + (1 - w) * ib)))
    assert f == pytest.approx(3.088232977134, abs=1e-9)
    # the endpoint objectives are the swapped traces
    assert float(np.trace(P_B)) == 5.0
    assert float(np.trace(P_A)) == 4.0
    assert f < 4.0


@pytest.mark.parametrize("va, vb, expected", [
    (3.0, 1.0, 0.0),   # all weight on the tighter estimate
    (1.0, 4.0, 1.0),
])
def test_optimize_omega_endpoint_snap(va, vb, expected):
    assert optimize_ci_omega([[va]], [[vb]]) == expected


def test_optimize_omega_tie_resolves_to_half():
    assert optimize_ci_omega(np.eye(3), np.eye(3)) == 0.5


def test_optimize_omega_objective_is_minimal_on_grid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pa, pb = rand_spd(rng, 3), rand_spd(rng, 3)
        ia, ib = np.linalg.inv(pa), np.linalg.inv(pb)

        def f(w):
            return float(np.trace(np.linalg.inv(w * ia + (1 - w) * ib)))

        w = optimize_ci_omega(pa, pb)
        best = min(f(v) for v in np.linspace(0.0, 1.0, 201))
        assert f(w) <= best + 1e-6 * abs(best)


def inverse_form_objective(pa, pb):
    ia, ib = np.linalg.inv(pa), np.linalg.inv(pb)
    return lambda w: float(np.trace(np.linalg.inv(w * ia + (1 - w) * ib)))


@pytest.mark.parametrize("d", [2, 8, 24, 112])
def test_closed_form_objective_matches_inverse_form(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3):
        pa, pb = rand_spd(rng, d), rand_spd(rng, d, scale=rng.uniform(0.1, 10.0))
        a, b = _trace_terms(pa, pb)
        f = inverse_form_objective(pa, pb)
        for w in (0.0, 0.1, 0.5, 0.93, 1.0):
            closed = float(np.sum(a * b / (w * b + (1 - w) * a)))
            assert closed == pytest.approx(f(w), rel=1e-10)


@pytest.mark.parametrize("d", [24, 112])
def test_optimize_omega_objective_is_minimal_on_grid_at_tracking_sizes(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(3):
        pa, pb = rand_spd(rng, d), rand_spd(rng, d, scale=rng.uniform(0.5, 2.0))
        f = inverse_form_objective(pa, pb)
        w = optimize_ci_omega(pa, pb)
        best = min(f(v) for v in np.linspace(0.0, 1.0, 201))
        assert f(w) <= best * (1 + 1e-12)


@pytest.mark.parametrize("d", [3, 8, 30])
def test_optimize_omega_stays_optimal_on_ill_conditioned_pairs(d):
    # condition numbers of 1e11 each, so the generalized eigenvalues span
    # ~22 decades; taken from one eigh, the smallest are lost, and with
    # them the weight (it snaps to 0 at d = 3 and 8)
    rng = np.random.default_rng(300 + d)
    spectrum = np.diag(np.logspace(0.0, 11.0, d))
    pa, pb = [q @ spectrum @ q.T for q in
              (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))]
    pa, pb = 0.5 * (pa + pa.T), 0.5 * (pb + pb.T)

    def f(w):
        # trace(P_b S^-1 P_a) with S = w*P_b + (1-w)*P_a
        return float(np.trace(np.linalg.solve(w * pb + (1 - w) * pa, pb).T @ pa))

    w = optimize_ci_omega(pa, pb)
    best = min(f(v) for v in np.linspace(0.0, 1.0, 201))
    assert f(w) <= best * (1 + 1e-9)


def test_public_entry_points_still_reject_non_spd():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        optimize_ci_omega(indefinite, np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        optimize_ci_omega(np.eye(2), indefinite)
    with pytest.raises(NotPositiveDefiniteError):
        GaussianEstimate(np.zeros(2), indefinite)
    with pytest.raises(NotPositiveDefiniteError):
        ci_fuse(est(np.zeros(2), indefinite), est(np.zeros(2), np.eye(2)))


# ---------------------------------------------------------------------------
# monolithic intersection

def test_ci_endpoints_return_inputs_exactly():
    rng = np.random.default_rng(6)
    a = est(rng.standard_normal(2), rand_spd(rng, 2))
    b = est(rng.standard_normal(2), rand_spd(rng, 2))
    r0 = ci_fuse(a, b, omega=0.0)
    np.testing.assert_array_equal(r0.bound, b.covariance)
    np.testing.assert_array_equal(r0.fused_mean, b.mean)
    r1 = ci_fuse(a, b, omega=1.0)
    np.testing.assert_array_equal(r1.bound, a.covariance)
    np.testing.assert_array_equal(r1.fused_mean, a.mean)


def test_ci_information_identity():
    rng = np.random.default_rng(7)
    a = est(rng.standard_normal(3), rand_spd(rng, 3))
    b = est(rng.standard_normal(3), rand_spd(rng, 3))
    w = 0.3
    r = ci_fuse(a, b, omega=w)
    info = w * np.linalg.inv(a.covariance) + (1 - w) * np.linalg.inv(b.covariance)
    np.testing.assert_allclose(np.linalg.inv(r.bound), info, rtol=1e-10)
    np.testing.assert_allclose(r.gain_a + r.gain_b, np.eye(3), atol=1e-12)
    # the fused mean is the gain-weighted mean
    np.testing.assert_allclose(r.fused_mean, r.gain_a @ a.mean + r.gain_b @ b.mean,
                               rtol=1e-10, atol=1e-12)


def test_ci_optimized_never_worse_than_endpoints():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = est(np.zeros(2), rand_spd(rng, 2))
        b = est(np.zeros(2), rand_spd(rng, 2))
        r = ci_fuse(a, b)
        t = float(np.trace(r.bound))
        assert t <= float(np.trace(a.covariance)) + 1e-9
        assert t <= float(np.trace(b.covariance)) + 1e-9
        assert r.diagnostics["omega_source"] == "optimized"


def test_ci_conservative_under_any_admissible_joint():
    rng = np.random.default_rng(9)
    pat = CrossSparsityPattern.unconstrained(2, 2)
    for k in range(25):
        pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
        a, b = est(np.zeros(2), pa), est(np.zeros(2), pb)
        r = ci_fuse(a, b)
        cross = sample_cross(pa, pb, pat, seed=1000 + k).p_ab
        actual = realized_cov(r.gain_a, r.gain_b, JointCovariance(pa, pb, cross))
        assert is_conservative(r.bound, actual, tol=1e-9)


def test_ci_rejects_mismatched_labels():
    a = est(np.zeros(2), np.eye(2), ("p", "q"))
    b = est(np.zeros(2), np.eye(2), ("q", "p"))
    c = est(np.zeros(2), np.eye(2), ("r", "s"))
    with pytest.raises(DimensionError, match="reindex"):
        ci_fuse(a, b)
    with pytest.raises(DimensionError):
        ci_fuse(a, c)
    with pytest.raises(DimensionError):
        ci_fuse(a, est(np.zeros(2), np.eye(2), ("p", "q")), omega=1.5)


# ---------------------------------------------------------------------------
# block-wise intersection

def test_nmci_reference_pair():
    a, b = est([0.0, 0.0], P_A), est([0.0, 0.0], P_B)
    r = nmci_fuse(a, b, BlockPartition(((0,), (1,))))
    np.testing.assert_allclose(r.bound, np.eye(2), atol=1e-6)
    np.testing.assert_allclose(r.omega, [0.0, 1.0], atol=1e-6)


def test_nmci_never_above_monolithic_trace():
    rng = np.random.default_rng(10)
    part = BlockPartition(((0, 1), (2, 3)))
    for _ in range(10):
        ca = np.zeros((4, 4))
        cb = np.zeros((4, 4))
        for blk in part.blocks:
            ix = np.ix_(blk, blk)
            ca[ix] = rand_spd(rng, 2)
            cb[ix] = rand_spd(rng, 2)
        a, b = est(rng.standard_normal(4), ca), est(rng.standard_normal(4), cb)
        nm = nmci_fuse(a, b, part)
        mono = ci_fuse(a, b)
        assert float(np.trace(nm.bound)) <= float(np.trace(mono.bound)) + 1e-9


def test_nmci_block_means_match_per_block_ci():
    rng = np.random.default_rng(11)
    part = BlockPartition(((0, 1), (2,)))
    ca = np.zeros((3, 3))
    cb = np.zeros((3, 3))
    ca[:2, :2], ca[2, 2] = rand_spd(rng, 2), 2.0
    cb[:2, :2], cb[2, 2] = rand_spd(rng, 2), 0.5
    a, b = est(rng.standard_normal(3), ca), est(rng.standard_normal(3), cb)
    r = nmci_fuse(a, b, part)
    for blk in part.blocks:
        sub = ci_fuse(a.marginal(blk), b.marginal(blk))
        np.testing.assert_allclose(r.fused_mean[list(blk)], sub.fused_mean, rtol=1e-10)
        np.testing.assert_allclose(r.bound[np.ix_(blk, blk)], sub.bound, rtol=1e-10)


@pytest.mark.parametrize("strict", [True, False])
def test_nmci_core_equals_the_public_rule_bitwise(strict):
    rng = np.random.default_rng(16)
    part = BlockPartition(((0, 3), (1,), (2, 4, 5)))
    covs = []
    for _ in range(2):
        c = np.zeros((6, 6))
        for blk in part.blocks:
            c[np.ix_(blk, blk)] = rand_spd(rng, len(blk))
        covs.append(c)
    if not strict:
        covs[0] = covs[0] + 0.2 * rand_spd(rng, 6)     # couples the blocks
    a, b = est(rng.standard_normal(6), covs[0]), est(rng.standard_normal(6), covs[1])
    # a dense covariance is a stack of one block; the core reads only the
    # entries inside the partition blocks, so a coupling changes nothing
    omegas, (gain_a,), (bound,) = _nmci(
        (a.covariance[None],), (b.covariance[None],), _Pieces(StackLayout([range(6)]), part))
    gain_a, bound = gain_a[0], bound[0]
    r = nmci_fuse(a, b, part, strict=strict)
    np.testing.assert_array_equal(omegas, r.omega)
    np.testing.assert_array_equal(gain_a, r.gain_a)
    np.testing.assert_array_equal(np.eye(6) - gain_a, r.gain_b)
    np.testing.assert_array_equal(bound, r.bound)
    assert (r.diagnostics["dropped_mass_a"] > 0.0) is not strict
    assert r.diagnostics["dropped_mass_b"] == 0.0
    # each block is the monolithic rule on that block's marginals
    for k, blk in enumerate(part.blocks):
        sub = ci_fuse(a.marginal(blk), b.marginal(blk))
        assert omegas[k] == sub.omega[0]
        np.testing.assert_array_equal(bound[np.ix_(blk, blk)], sub.bound)
        np.testing.assert_array_equal(gain_a[np.ix_(blk, blk)], sub.gain_a)


# ---------------------------------------------------------------------------
# stacked covariances against the assembled matrices

STACKED = StackLayout([(0, 5, 9, 12), (1, 2, 3, 4), (6, 7, 8, 10), (11, 13), (14, 15)])


def _block_diagonal(rng, layout):
    m = np.zeros((layout.dim, layout.dim))
    for group in layout.groups:
        for states in group:
            m[np.ix_(states, states)] = rand_spd(rng, states.size, scale=rng.uniform(0.3, 3.0))
    return m


def _assembled(layout, stacks):
    m = np.zeros((layout.dim, layout.dim))
    for group, stack in zip(layout.groups, stacks):
        m[group[:, :, None], group[:, None, :]] = stack
    return m


def _assert_close_relative(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


# monolithic intersection is block-wise intersection over one block
ONE_BLOCK = BlockPartition((tuple(range(STACKED.dim)),))
DENSE = StackLayout([range(STACKED.dim)])


def test_stacked_omega_and_ci_match_the_assembled_matrix():
    stacked, dense = _Pieces(STACKED, ONE_BLOCK), _Pieces(DENSE, ONE_BLOCK)
    rng = np.random.default_rng(17)
    for _ in range(10):
        pa, pb = _block_diagonal(rng, STACKED), _block_diagonal(rng, STACKED)
        (w,), gain, bound = _nmci(STACKED.split(pa), STACKED.split(pb), stacked)
        (w_dense,), _, _ = _nmci((pa[None],), (pb[None],), dense)
        assert abs(w - w_dense) <= 1e-12
        assert 0.0 < w < 1.0
        want_gain, want_bound = _ci(pa, pb, w)
        _assert_close_relative(_assembled(STACKED, bound), want_bound, 1e-12)
        _assert_close_relative(_assembled(STACKED, gain), want_gain, 1e-12)


def test_one_block_nmci_is_ci_bitwise():
    rng = np.random.default_rng(19)
    for _ in range(5):
        pa, pb = _block_diagonal(rng, STACKED), _block_diagonal(rng, STACKED)
        # a dense covariance as a stack of one block: the public weight search
        (w,), (gain,), (bound,) = _nmci((pa[None],), (pb[None],), _Pieces(DENSE, ONE_BLOCK))
        assert w == optimize_ci_omega(pa, pb)
        want_gain, want_bound = _ci(pa, pb, w)
        np.testing.assert_array_equal(gain[0], want_gain)
        np.testing.assert_array_equal(bound[0], want_bound)
        # on block stacks every stack is read and returned whole
        sa, sb = STACKED.split(pa), STACKED.split(pb)
        (w,), gain, bound = _nmci(sa, sb, _Pieces(STACKED, ONE_BLOCK))
        for xa, xb, g, bd in zip(sa, sb, gain, bound):
            want_gain, want_bound = _ci(xa, xb, w)
            np.testing.assert_array_equal(g, want_gain)
            np.testing.assert_array_equal(bd, want_bound)


def test_partition_of_stack_blocks_gives_per_block_ci():
    # every stack block is one partition block, listed in reverse order
    blocks = [tuple(states) for group in STACKED.groups for states in group.tolist()]
    part = BlockPartition(tuple(reversed(blocks)))
    pieces = _Pieces(STACKED, part)
    assert all(ix is ... for _, ix, _ in pieces.groups)
    rng = np.random.default_rng(20)
    for _ in range(5):
        pa, pb = _block_diagonal(rng, STACKED), _block_diagonal(rng, STACKED)
        omegas, gain, bound = _nmci(STACKED.split(pa), STACKED.split(pb), pieces)
        assert omegas.size == len(blocks)
        gain, bound = _assembled(STACKED, gain), _assembled(STACKED, bound)
        for k, blk in enumerate(part.blocks):
            ix = np.ix_(blk, blk)
            want = ci_fuse(est(np.zeros(len(blk)), pa[ix]), est(np.zeros(len(blk)), pb[ix]))
            assert omegas[k] == want.omega[0]
            np.testing.assert_array_equal(bound[ix], want.bound)
            np.testing.assert_array_equal(gain[ix], want.gain_a)


def test_stacked_nmci_matches_the_assembled_matrix():
    # partition blocks that span stack blocks and split them: 8 pieces of 2
    _check_stacked_nmci(BlockPartition(((0, 5, 1, 2), (9, 12, 3, 4, 6, 7),
                                        (8, 10, 11, 13, 14, 15))))
    # whole stack blocks beside split ones of the same size
    _check_stacked_nmci(BlockPartition(((0, 5, 9, 12), (1, 2, 6, 7, 8, 10),
                                        (3, 4, 11, 13, 14), (15,))))


def _check_stacked_nmci(part):
    pieces = _Pieces(STACKED, part)
    rng = np.random.default_rng(18)
    for _ in range(5):
        pa, pb = _block_diagonal(rng, STACKED), _block_diagonal(rng, STACKED)
        omegas, gain, bound = _nmci(STACKED.split(pa), STACKED.split(pb), pieces)
        want = nmci_fuse(est(np.zeros(16), pa), est(np.zeros(16), pb), part, strict=False)
        np.testing.assert_allclose(omegas, want.omega, rtol=0.0, atol=1e-12)
        _assert_close_relative(_assembled(STACKED, bound), want.bound, 1e-12)
        _assert_close_relative(_assembled(STACKED, gain), want.gain_a, 1e-12)
        # the entries the stacks leave out are the ones lenient mode drops
        dropped = [_off_mass(STACKED.split(p), pieces.off) for p in (pa, pb)]
        np.testing.assert_allclose(dropped, (want.diagnostics["dropped_mass_a"],
                                             want.diagnostics["dropped_mass_b"]), rtol=1e-12)


@pytest.mark.parametrize("part", [
    ONE_BLOCK,
    BlockPartition(((0, 5, 1, 2), (9, 12, 3, 4, 6, 7), (8, 10, 11, 13, 14, 15))),
    BlockPartition(((0, 5, 9, 12), (1, 2, 6, 7, 8, 10), (3, 4, 11, 13, 14), (15,))),
], ids=["one-block", "split", "mixed"])
def test_batched_nmci_equals_separate_calls_bitwise(part):
    pieces = _Pieces(STACKED, part)
    rng = np.random.default_rng(21)
    pairs = [(_block_diagonal(rng, STACKED), _block_diagonal(rng, STACKED)) for _ in range(4)]
    pairs += [(pairs[0][0], pairs[0][0]), (1e-6 * pairs[1][1], pairs[1][1])]   # 0.5 and 1
    stacks = [[np.stack([STACKED.split(p[side])[g] for p in pairs]).reshape((2, 3) + shape)
               for g, shape in enumerate(x.shape for x in STACKED.split(pairs[0][0]))]
              for side in (0, 1)]
    omegas, gain, bound = _nmci(*stacks, pieces)
    assert omegas.shape == (2, 3, part.n_blocks)
    assert np.all(omegas[1, 1] == 0.5) and np.all(omegas[1, 2] == 1.0)
    dropped = [_off_mass(side, pieces.off) for side in stacks]
    for e in np.ndindex(2, 3):
        w, g, b = _nmci(*([x[e] for x in side] for side in stacks), pieces)
        np.testing.assert_array_equal(omegas[e], w)
        for got, want in zip(gain + bound, g + b):
            np.testing.assert_array_equal(got[e], want)
        # a batched sum of squares may add in another order
        np.testing.assert_allclose([m[e] for m in dropped],
                                   [_off_mass([x[e] for x in side], pieces.off)
                                    for side in stacks], rtol=1e-14)


def test_nmci_strict_rejects_coupling_lenient_drops_it():
    part = BlockPartition(((0,), (1,)))
    coupled = est([0.0, 0.0], np.array([[2.0, 0.8], [0.8, 2.0]]))
    plain = est([0.0, 0.0], np.eye(2))
    # A is checked before B, and only the coupled side reports dropped mass
    for a, b, side in ((coupled, plain, "A"), (plain, coupled, "B"), (coupled, coupled, "A")):
        with pytest.raises(DimensionError, match=f"covariance {side} couples.*lenient"):
            nmci_fuse(a, b, part, strict=True)
        r = nmci_fuse(a, b, part, strict=False)
        assert (r.diagnostics["dropped_mass_a"] > 0.0) is (a is coupled)
        assert (r.diagnostics["dropped_mass_b"] > 0.0) is (b is coupled)
        # off-block entries of the bound are zero after the projection
        assert r.bound[0, 1] == 0.0
    # a coupling within the tolerance passes strict mode and counts as none
    tiny = est([0.0, 0.0], np.array([[2.0, 1e-11], [1e-11, 2.0]]))
    assert _off_mass((tiny.covariance[None],), _Pieces(StackLayout([range(2)]), part).off) \
        < OFF_BLOCK_TOL
    r = nmci_fuse(tiny, plain, part, strict=True)
    assert r.diagnostics["dropped_mass_a"] == r.diagnostics["dropped_mass_b"] == 0.0


def test_nmci_partition_must_cover_state():
    a = est(np.zeros(3), np.eye(3))
    with pytest.raises(DimensionError):
        nmci_fuse(a, a, BlockPartition(((0,), (1,))))


# ---------------------------------------------------------------------------
# exact fusion with known cross-covariance

def test_exact_independent_matches_information_form():
    rng = np.random.default_rng(12)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    a, b = est(rng.standard_normal(2), pa), est(rng.standard_normal(2), pb)
    r = exact_fuse(a, b, np.zeros((2, 2)))
    info = np.linalg.inv(pa) + np.linalg.inv(pb)
    expected_cov = np.linalg.inv(info)
    expected_mean = expected_cov @ (np.linalg.inv(pa) @ a.mean
                                    + np.linalg.inv(pb) @ b.mean)
    np.testing.assert_allclose(r.bound, expected_cov, rtol=1e-9)
    np.testing.assert_allclose(r.fused_mean, expected_mean, rtol=1e-9)


def test_exact_identical_inputs_degenerate_joint():
    a = est([1.0, -1.0], np.eye(2))
    r = exact_fuse(a, a, np.eye(2))
    np.testing.assert_allclose(r.bound, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(r.fused_mean, a.mean)
    np.testing.assert_allclose(r.gain_a, np.zeros((2, 2)), atol=1e-12)
    assert r.diagnostics["innovation_rank"] == 0


def test_exact_bound_not_above_either_marginal():
    rng = np.random.default_rng(13)
    pat = CrossSparsityPattern.unconstrained(2, 2)
    for k in range(10):
        pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
        cross = sample_cross(pa, pb, pat, seed=2000 + k).p_ab
        a, b = est(np.zeros(2), pa), est(np.zeros(2), pb)
        r = exact_fuse(a, b, cross)
        assert is_conservative(pa, r.bound)
        assert is_conservative(pb, r.bound)
        # and it is the realized covariance of its own gains
        np.testing.assert_allclose(
            r.bound, realized_cov(r.gain_a, r.gain_b, JointCovariance(pa, pb, cross)),
            atol=1e-12)


def test_exact_rejects_inconsistent_cross():
    a = est([0.0], [[1.0]])
    b = est([0.0], [[1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        exact_fuse(a, b, [[2.0]])


# ---------------------------------------------------------------------------
# realized covariance

def test_realized_cov_identity_gains():
    rng = np.random.default_rng(14)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    joint = JointCovariance(pa, pb, np.zeros((2, 2)))
    np.testing.assert_allclose(realized_cov(np.eye(2), np.zeros((2, 2)), joint), pa)
    np.testing.assert_allclose(realized_cov(np.zeros((2, 2)), np.eye(2), joint), pb)
    half = realized_cov(0.5 * np.eye(2), 0.5 * np.eye(2), joint)
    np.testing.assert_allclose(half, 0.25 * (pa + pb), rtol=1e-12)


def test_realized_cov_shape_checks():
    joint = JointCovariance(np.eye(2), np.eye(3), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        realized_cov(np.eye(3), np.eye(3), joint)
