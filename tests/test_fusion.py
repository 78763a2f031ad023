"""Closed-form fusion rules: intersection, block-wise intersection, exact."""

import warnings

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
    OMEGA_TOL,
    _ci,
    _Fold,
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


def _inside(part, p):
    """p with its entries outside the partition blocks zeroed."""
    mask = np.zeros(p.shape, dtype=bool)
    for blk in part.blocks:
        mask[np.ix_(blk, blk)] = True
    return np.where(mask, p, 0.0)


@pytest.mark.parametrize("exact", [True, False])
def test_nmci_core_equals_the_public_rule_bitwise(exact):
    rng = np.random.default_rng(16)
    part = BlockPartition(((0, 3), (1,), (2, 4, 5)))
    covs = []
    for _ in range(2):
        c = np.zeros((6, 6))
        for blk in part.blocks:
            c[np.ix_(blk, blk)] = rand_spd(rng, len(blk))
        covs.append(c)
    if not exact:
        covs[0] = covs[0] + 0.2 * rand_spd(rng, 6)     # couples the blocks
    a, b = est(rng.standard_normal(6), covs[0]), est(rng.standard_normal(6), covs[1])
    # a dense covariance is a stack of one block; the core reads only the
    # entries inside the partition blocks, so it fuses a coupled input as
    # the public rule fuses that input with the coupling zeroed
    omegas, (gain_a,), (bound,) = _nmci(
        (a.covariance[None],), (b.covariance[None],), _Pieces(StackLayout([range(6)]), part))
    gain_a, bound = gain_a[0], bound[0]
    if not exact:
        with pytest.raises(DimensionError, match="covariance A couples"):
            nmci_fuse(a, b, part)
        a = est(a.mean, _inside(part, a.covariance))
    r = nmci_fuse(a, b, part)
    np.testing.assert_array_equal(omegas, r.omega)
    np.testing.assert_array_equal(gain_a, r.gain_a)
    np.testing.assert_array_equal(np.eye(6) - gain_a, r.gain_b)
    np.testing.assert_array_equal(bound, r.bound)
    assert r.diagnostics == {"trace": float(np.trace(bound))}
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


@pytest.mark.parametrize("n", [1, 2, 4, 14])
def test_ci_solves_only_the_open_weights_of_a_mixed_stack(monkeypatch, n):
    rng = np.random.default_rng(41 + n)
    pa, pb = (np.stack([rand_spd(rng, n) for _ in range(9)]) for _ in range(2))
    w = np.array([0.0, 1.0, 0.3, 0.0, 0.5, 1.0, 0.9, 0.2, 0.0])
    solved = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda s, b: solved.append(len(s)) or solve(s, b))
    gain, bound = _ci(pa, pb, w)
    # settled weights are copies, not solves
    assert solved == [4]
    for i, wi in enumerate(w):
        want_gain, want_bound = _ci(pa[i], pb[i], wi)
        np.testing.assert_array_equal(gain[i], want_gain)
        np.testing.assert_array_equal(bound[i], want_bound)
    np.testing.assert_array_equal(gain[w == 0.0], 0.0)
    np.testing.assert_array_equal(gain[w == 1.0], np.broadcast_to(np.eye(n), (2, n, n)))
    np.testing.assert_array_equal(bound[w == 0.0], pb[w == 0.0])
    np.testing.assert_array_equal(bound[w == 1.0], pa[w == 1.0])
    # the layout of an all-open stack, so that products with the gains round alike
    open_gain, open_bound = _ci(pa, pb, np.full(9, 0.5))
    assert (gain.strides, bound.strides) == (open_gain.strides, open_bound.strides)


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
        # the stack blocks that a partition block splits couple the blocks
        with pytest.raises(DimensionError, match="covariance A couples"):
            nmci_fuse(est(np.zeros(16), pa), est(np.zeros(16), pb), part)
        want = nmci_fuse(est(np.zeros(16), _inside(part, pa)),
                         est(np.zeros(16), _inside(part, pb)), part)
        np.testing.assert_allclose(omegas, want.omega, rtol=0.0, atol=1e-12)
        _assert_close_relative(_assembled(STACKED, bound), want.bound, 1e-12)
        _assert_close_relative(_assembled(STACKED, gain), want.gain_a, 1e-12)
        # the entries the stacks leave out are the ones outside the partition
        # blocks of the dense matrices
        dense = _Pieces(DENSE, part)
        np.testing.assert_allclose([_off_mass(STACKED.split(p), pieces.off) for p in (pa, pb)],
                                   [_off_mass((p[None],), dense.off) for p in (pa, pb)],
                                   rtol=1e-12)


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


def test_nmci_rejects_coupling_naming_the_coupled_side():
    part = BlockPartition(((0,), (1,)))
    coupled = est([0.0, 0.0], np.array([[2.0, 0.8], [0.8, 2.0]]))
    plain = est([0.0, 0.0], np.eye(2))
    # A is checked before B
    for a, b, side in ((coupled, plain, "A"), (plain, coupled, "B"), (coupled, coupled, "A")):
        with pytest.raises(DimensionError, match=f"covariance {side} couples"):
            nmci_fuse(a, b, part)
    # a coupling within the tolerance passes and is not fused
    tiny = est([0.0, 0.0], np.array([[2.0, 1e-11], [1e-11, 2.0]]))
    assert _off_mass((tiny.covariance[None],), _Pieces(StackLayout([range(2)]), part).off) \
        < OFF_BLOCK_TOL
    r = nmci_fuse(tiny, plain, part)
    assert r.bound[0, 1] == 0.0 and r.gain_a[0, 1] == 0.0
    assert list(r.diagnostics) == ["trace"]


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-170, 1e160, 1e200, 1e300])
def test_nmci_rejects_coupling_at_any_scale(c):
    # off-block mass 0.23: its squares would underflow or overflow unscaled
    part = BlockPartition(((0,), (1, 2)))
    p = np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 2.0]])
    coupled = est(np.zeros(3), c * p)
    plain = est(np.zeros(3), c * np.eye(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="covariance A couples"):
            nmci_fuse(coupled, plain, part)


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
    # the same joint scaled by 1e-12
    tiny = est([0.0], [[1e-12]])
    with pytest.raises(NotPositiveDefiniteError):
        exact_fuse(tiny, tiny, [[2e-12]])


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


@pytest.mark.parametrize("part", [
    ONE_BLOCK,
    BlockPartition(((0, 5, 1, 2), (9, 12, 3, 4, 6, 7), (8, 10, 11, 13, 14, 15))),
    BlockPartition(((0, 5, 9, 12), (1, 2, 6, 7, 8, 10), (3, 4, 11, 13, 14), (15,))),
], ids=["one-block", "split", "mixed"])
def test_a_folded_batch_computes_each_class_once_bitwise(part):
    # blocks drawn from two or three matrices per size: many (entry, piece)
    # pairs repeat, some of them under other weights
    pieces = _Pieces(STACKED, part)
    rng = np.random.default_rng(22)
    for _ in range(5):
        stacks, classes = [[], []], [[], []]
        for states in STACKED.groups:
            k, n = states.shape
            mats = np.stack([rand_spd(rng, n, scale=rng.uniform(0.3, 3.0))
                             for _ in range(rng.integers(2, 4))])
            for side in (0, 1):
                c = rng.integers(0, mats.shape[0], size=(6, k))
                classes[side].append(c)
                stacks[side].append(mats[c])
        fold, out = _Fold.of(pieces, *classes)
        omegas, gain, bound = _nmci(*stacks, pieces, fold)
        want = _nmci(*stacks, pieces)
        np.testing.assert_array_equal(omegas, want[0])
        for got, ref in zip(gain + bound, want[1] + want[2]):
            np.testing.assert_array_equal(got, ref)
        assert sum(p.size for p, _, _ in fold.fused) < sum(i.size for _, _, i in fold.fused)
        # blocks of one bound class are equal
        for o, b in zip(out, bound):
            for cls in np.unique(o):
                same = b[o == cls]
                assert np.all(same == same[0])


# ---------------------------------------------------------------------------
# the same answers in any units, order and frame (metamorphic relations)

# README's CI pair and its trace-optimal weight
README_A = np.diag([1.0, 9.0])
README_B = np.array([[6.0, 1.0], [1.0, 1.5]])
README_OMEGA = 0.4468772884


def _metamorphic_pairs():
    """(P_a, P_b, partition): README's pair, then random pairs at d 1 to 3."""
    rng = np.random.default_rng(43)
    pairs = [(README_A, README_B, BlockPartition(((0,), (1,))))]
    for d, blocks in ((1, ((0,),)), (2, ((0,), (1,))), (3, ((0, 2), (1,)))):
        for _ in range(3):
            pairs.append((rand_spd(rng, d), rand_spd(rng, d, scale=rng.uniform(0.1, 10.0)),
                          BlockPartition(blocks)))
    return pairs


def _fused(pa, pb, part):
    """The weight search, CI, and nmCI on the pair's parts inside the partition's blocks."""
    z = np.zeros(len(pa))
    return (optimize_ci_omega(pa, pb), ci_fuse(est(z, pa), est(z, pb)),
            nmci_fuse(est(z, _inside(part, pa)), est(z, _inside(part, pb)), part))


@pytest.mark.filterwarnings("error")
def test_a_power_of_two_scales_ci_and_nmci_bitwise():
    # the search runs in each segment's own units, so a scale that rounds
    # nothing moves no step: the same weights and gains, the bound times c
    for pa, pb, part in _metamorphic_pairs():
        ref = _fused(pa, pb, part)
        # the largest power of two at which check_spd accepts both inputs
        top = 1023 - int(np.frexp(max(pa.max(), pb.max()))[1])
        for k in (-1000, -999, -500, -61, -60, -1, 1, 60, 61, 500, top - 1, top):
            c = 2.0 ** k
            got = _fused(c * pa, c * pb, part)
            assert got[0] == ref[0]
            for r, g in zip(ref[1:], got[1:]):
                assert g.omega.tobytes() == r.omega.tobytes()
                assert g.gain_a.tobytes() == r.gain_a.tobytes()
                assert g.gain_b.tobytes() == r.gain_b.tobytes()
                assert (g.bound / c).tobytes() == r.bound.tobytes()


@pytest.mark.filterwarnings("error")
def test_a_change_of_units_moves_no_weight():
    rng = np.random.default_rng(44)
    for pa, pb, part in _metamorphic_pairs():
        ref = _fused(pa, pb, part)
        c = rng.standard_normal((len(pa), len(pa)))
        cross = np.linalg.cholesky(pa) @ (0.5 * c / np.linalg.norm(c, 2)) \
            @ np.linalg.cholesky(pb).T
        ref_exact = exact_fuse(est(np.zeros(len(pa)), pa), est(np.zeros(len(pa)), pb), cross)
        for k in range(-300, 301, 25):
            c = 10.0 ** k
            got = _fused(c * pa, c * pb, part)
            assert abs(got[0] - ref[0]) <= OMEGA_TOL
            for r, g in zip(ref[1:], got[1:]):
                np.testing.assert_allclose(g.omega, r.omega, rtol=0, atol=OMEGA_TOL)
                _assert_close_relative(g.gain_a, r.gain_a, 1e-10)
                _assert_close_relative(g.bound / c, r.bound, 1e-10)
            exact = exact_fuse(est(np.zeros(len(pa)), c * pa), est(np.zeros(len(pa)), c * pb),
                               c * cross)
            _assert_close_relative(exact.bound / c, ref_exact.bound, 1e-10)


@pytest.mark.filterwarnings("error")
def test_readme_pair_has_one_weight_in_every_unit():
    for k in range(-300, 301):
        c = 10.0 ** k
        assert abs(optimize_ci_omega(c * README_A, c * README_B) - README_OMEGA) <= OMEGA_TOL


def test_swapping_the_inputs_swaps_the_weights():
    for pa, pb, part in _metamorphic_pairs():
        for ref, got in zip(_fused(pa, pb, part), _fused(pb, pa, part)):
            if isinstance(ref, float):
                assert abs(got - (1.0 - ref)) <= OMEGA_TOL
                continue
            np.testing.assert_allclose(got.omega, 1.0 - ref.omega, rtol=0, atol=OMEGA_TOL)
            _assert_close_relative(got.gain_a, ref.gain_b, 1e-10)
            _assert_close_relative(got.bound, ref.bound, 1e-10)


def test_an_orthogonal_change_of_frame_rotates_the_bound():
    # CI in any frame; nmCI in frames that turn each partition block on its own
    rng = np.random.default_rng(45)
    for pa, pb, part in _metamorphic_pairs():
        d = len(pa)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        q_part = np.zeros((d, d))
        for blk in part.blocks:
            q_part[np.ix_(blk, blk)] = np.linalg.qr(rng.standard_normal((len(blk),) * 2))[0]
        ref = _fused(pa, pb, part)
        z = np.zeros(d)
        ci = ci_fuse(est(z, q @ pa @ q.T), est(z, q @ pb @ q.T))
        assert abs(ci.omega[0] - ref[1].omega[0]) <= OMEGA_TOL
        _assert_close_relative(ci.bound, q @ ref[1].bound @ q.T, 1e-10)
        na, nb = (q_part @ _inside(part, p) @ q_part.T for p in (pa, pb))
        nm = nmci_fuse(est(z, na), est(z, nb), part)
        np.testing.assert_allclose(nm.omega, ref[2].omega, rtol=0, atol=OMEGA_TOL)
        _assert_close_relative(nm.bound, q_part @ ref[2].bound @ q_part.T, 1e-10)


@pytest.mark.filterwarnings("error")
def test_an_input_far_tighter_than_the_other_takes_all_the_weight():
    # the tie slack is relative to f, and f(1) is taken at b itself: a tight
    # b is not tied with the midpoint, whose bound is twice b's trace
    part = BlockPartition(((0,), (1,)))
    z = np.zeros(2)
    for k in range(12, 101):
        pb = README_B * 10.0 ** -k
        assert optimize_ci_omega(README_A, pb) == 0.0
        r = ci_fuse(est(z, README_A), est(z, pb))
        assert r.omega[0] == 0.0
        np.testing.assert_array_equal(r.bound, pb)
        nm = nmci_fuse(est(z, README_A), est(z, _inside(part, pb)), part)
        np.testing.assert_array_equal(nm.omega, [0.0, 0.0])
        np.testing.assert_array_equal(nm.bound, _inside(part, pb))
