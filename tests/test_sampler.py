"""Rejection sampler over admissible cross-covariances."""

import numpy as np
import pytest

from cofusion import sampler
from cofusion.core import (
    ConfigError,
    CrossSparsityPattern,
    DimensionError,
    JointCovariance,
    SamplingError,
    cov_to_corr,
)
from cofusion.sampler import (
    _FIRST_BATCH,
    _MAX_BATCH,
    _accept,
    PD_MARGIN,
    UncertaintySample,
    sample_cross,
    sample_set,
)


def rand_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def test_sample_respects_pattern_exactly():
    rng = np.random.default_rng(0)
    pa, pb = rand_spd(rng, 3), rand_spd(rng, 3)
    pat = CrossSparsityPattern(3, 3, frozenset({(0, 1), (1, 2), (2, 0)}))
    for s in sample_set(pa, pb, pat, 50, seed=1):
        assert s.p_ab[0, 1] == 0.0
        assert s.p_ab[1, 2] == 0.0
        assert s.p_ab[2, 0] == 0.0


def test_samples_live_in_uncertainty_set():
    rng = np.random.default_rng(1)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 3)
    pat = CrossSparsityPattern(2, 3, frozenset({(0, 2)}))
    for s in sample_set(pa, pb, pat, 100, seed=2):
        joint = JointCovariance(pa, pb, s.p_ab)
        assert joint.in_uncertainty_set(pat, atol=0.0)


def test_sample_determinism():
    rng = np.random.default_rng(2)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    pat = CrossSparsityPattern.unconstrained(2, 2)
    one = sample_cross(pa, pb, pat, seed=7)
    two = sample_cross(pa, pb, pat, seed=7)
    np.testing.assert_array_equal(one.p_ab, two.p_ab)
    assert one.attempts == two.attempts
    other = sample_cross(pa, pb, pat, seed=8)
    assert not np.array_equal(one.p_ab, other.p_ab)


def test_sample_sets_are_nested_prefixes():
    rng = np.random.default_rng(3)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    pat = CrossSparsityPattern(2, 2, frozenset({(1, 0)}))
    long = sample_set(pa, pb, pat, 30, seed=11)
    short = sample_set(pa, pb, pat, 10, seed=11)
    for s, l in zip(short, long):
        np.testing.assert_array_equal(s.p_ab, l.p_ab)


def test_all_zero_pattern_draws_zero_without_rejection():
    all_zero = CrossSparsityPattern(2, 2, frozenset(np.ndindex(2, 2)))
    s = sample_cross(np.eye(2), np.eye(2), all_zero, seed=0)
    np.testing.assert_array_equal(s.p_ab, np.zeros((2, 2)))
    assert s.attempts == 1


def test_correlation_scaling_tracks_marginals():
    # doubling the marginal scales rescales every sample by the std products
    pa = np.diag([4.0, 1.0])
    pb = np.diag([1.0, 9.0])
    pat = CrossSparsityPattern.unconstrained(2, 2)
    base = sample_set(np.eye(2), np.eye(2), pat, 20, seed=5)
    scaled = sample_set(pa, pb, pat, 20, seed=5)
    stds = np.outer([2.0, 1.0], [1.0, 3.0])
    for b, s in zip(base, scaled):
        np.testing.assert_allclose(s.p_ab, b.p_ab * stds, rtol=1e-12)


def test_attempt_budget_exhaustion_raises():
    # seed 0 needs more than one proposal for this instance
    pat = CrossSparsityPattern.unconstrained(3, 3)
    probe = sample_cross(np.eye(3), np.eye(3), pat, seed=0)
    assert probe.attempts > 1
    with pytest.raises(SamplingError):
        sample_cross(np.eye(3), np.eye(3), pat, seed=0, max_attempts=1)


def test_sample_set_validation():
    pat = CrossSparsityPattern.unconstrained(2, 2)
    with pytest.raises(DimensionError):
        sample_set(np.eye(2), np.eye(2), pat, 0, seed=1)
    with pytest.raises(DimensionError):
        sample_set(np.eye(3), np.eye(2), pat, 5, seed=1)


@pytest.mark.parametrize("seed", [-1, -(1 << 70), 1.5, True, "3", 1 << 64])
def test_seed_must_be_a_non_negative_integer(seed):
    pat = CrossSparsityPattern.unconstrained(2, 2)
    with pytest.raises(ConfigError, match="seed"):
        sample_cross(np.eye(2), np.eye(2), pat, seed)
    with pytest.raises(ConfigError, match="seed"):
        sample_set(np.eye(2), np.eye(2), pat, 3, seed)


def test_numpy_integer_seed_draws_the_int_seed_stream():
    pat = CrossSparsityPattern.unconstrained(2, 2)
    for seed in (0, 11, (1 << 64) - 1):
        want = sample_set(np.eye(2), np.eye(2), pat, 5, seed)
        got = sample_set(np.eye(2), np.eye(2), pat, 5, np.uint64(seed))
        assert [s.attempts for s in got] == [s.attempts for s in want]
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x.p_ab, y.p_ab)


def test_uncertainty_sample_is_frozen():
    s = UncertaintySample(np.zeros((2, 2)), 3)
    assert not s.p_ab.flags.writeable
    with pytest.raises(DimensionError):
        UncertaintySample(np.zeros((2, 2)), 0)


# ---------------------------------------------------------------------------
# batched proposals against one proposal at a time

def sequential_reference(p_a, p_b, pattern, n, seed, max_attempts=1_000_000):
    """The sampler as a loop of one proposal and one eigvalsh per attempt.

    Returns [(p_ab, attempts)] for n draws from one seeded stream; raises
    SamplingError when a draw exhausts max_attempts.
    """
    corr_a, std_a = cov_to_corr(p_a)
    corr_b, std_b = cov_to_corr(p_b)
    da, db = pattern.dim_a, pattern.dim_b
    joint = np.zeros((da + db, da + db))
    joint[:da, :da] = corr_a
    joint[da:, da:] = corr_b
    free = pattern.free_indices()
    rows = np.array([i for i, _ in free], dtype=int)
    cols = np.array([j for _, j in free], dtype=int)
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(n):
        if not free:
            out.append((np.zeros((da, db)), 1))
            continue
        for attempt in range(1, max_attempts + 1):
            c = rng.uniform(-1.0, 1.0, size=len(free))
            joint[rows, da + cols] = c
            joint[da + cols, rows] = c
            if np.linalg.eigvalsh(joint)[0] > PD_MARGIN:
                c_ab = np.zeros((da, db))
                c_ab[rows, cols] = c
                out.append((c_ab * np.outer(std_a, std_b), attempt))
                break
        else:
            raise SamplingError(f"no sample in {max_attempts} attempts")
    return out


def assert_same_stream(samples, reference):
    assert len(samples) == len(reference)
    for s, (p_ab, attempts) in zip(samples, reference):
        assert s.attempts == attempts
        assert s.p_ab.tobytes() == p_ab.tobytes()


def hard_pair_3d():
    # rotated spectra (1, 3, 9): a few hundred proposals per accepted draw
    rng = np.random.default_rng(7)
    qa, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    qb, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    spectrum = np.diag([1.0, 3.0, 9.0])
    return qa @ spectrum @ qa.T, qb @ spectrum @ qb.T


@pytest.fixture
def batch_sizes(monkeypatch):
    """Sizes of the batches the sampler decided while the test runs."""
    sizes = []
    accept = sampler._accept

    def spy(stack):
        sizes.append(len(stack))
        return accept(stack)

    monkeypatch.setattr(sampler, "_accept", spy)
    return sizes


def test_batched_stream_matches_sequential_on_random_patterns():
    rng = np.random.default_rng(12)
    for _ in range(40):
        da, db = (int(v) for v in rng.integers(1, 4, size=2))
        zero = frozenset((i, j) for i in range(da) for j in range(db)
                         if rng.random() < 0.4)
        pat = CrossSparsityPattern(da, db, zero)
        pa, pb = rand_spd(rng, da), rand_spd(rng, db)
        n, seed = int(rng.integers(1, 40)), int(rng.integers(1 << 30))
        assert_same_stream(sample_set(pa, pb, pat, n, seed),
                           sequential_reference(pa, pb, pat, n, seed))
        assert_same_stream([sample_cross(pa, pb, pat, seed)],
                           sequential_reference(pa, pb, pat, 1, seed))


def test_batched_stream_matches_sequential_on_all_zero_pattern(batch_sizes):
    pat = CrossSparsityPattern(2, 3, frozenset(np.ndindex(2, 3)))
    rng = np.random.default_rng(13)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 3)
    assert_same_stream(sample_set(pa, pb, pat, 5, seed=3),
                       sequential_reference(pa, pb, pat, 5, seed=3))
    assert batch_sizes == []


def test_batched_stream_matches_sequential_across_cap_sized_batches(batch_sizes):
    pa, pb = hard_pair_3d()
    pat = CrossSparsityPattern.unconstrained(3, 3)
    samples = sample_set(pa, pb, pat, 40, seed=5)
    assert_same_stream(samples, sequential_reference(pa, pb, pat, 40, seed=5))
    assert batch_sizes[0] == _FIRST_BATCH
    assert batch_sizes.count(_MAX_BATCH) >= 3
    assert max(batch_sizes) == _MAX_BATCH


def test_attempt_budget_is_exact_across_batches(batch_sizes):
    pa, pb = hard_pair_3d()
    pat = CrossSparsityPattern.unconstrained(3, 3)
    need = sequential_reference(pa, pb, pat, 1, seed=2)[0][1]
    assert need > 2 * _FIRST_BATCH   # the budget ends inside a later batch
    s = sample_cross(pa, pb, pat, seed=2, max_attempts=need)
    assert_same_stream([s], sequential_reference(pa, pb, pat, 1, seed=2))
    with pytest.raises(SamplingError):
        sequential_reference(pa, pb, pat, 1, seed=2, max_attempts=need - 1)
    with pytest.raises(SamplingError):
        sample_cross(pa, pb, pat, seed=2, max_attempts=need - 1)
    # no proposal past the budget is ever tested
    assert sum(batch_sizes) == 2 * need - 1


def test_attempt_budget_is_exact_for_buffered_proposals():
    # a draw that starts inside a batch may not accept past its own budget
    pa, pb = hard_pair_3d()
    pat = CrossSparsityPattern.unconstrained(3, 3)
    ref = sequential_reference(pa, pb, pat, 40, seed=5)
    attempts = [a for _, a in ref]
    records = [j for j in range(1, 40) if attempts[j] > max(attempts[:j])]
    assert records
    for j in records:
        budget = attempts[j] - 1
        assert_same_stream(
            sample_set(pa, pb, pat, j, seed=5, max_attempts=budget), ref[:j])
        with pytest.raises(SamplingError):
            sample_set(pa, pb, pat, j + 1, seed=5, max_attempts=budget)


def test_prefixes_hold_when_the_buffer_refills_mid_set(batch_sizes):
    rng = np.random.default_rng(14)
    pa, pb = rand_spd(rng, 2), rand_spd(rng, 2)
    pat = CrossSparsityPattern.unconstrained(2, 2)
    long = sample_set(pa, pb, pat, 30, seed=21)
    assert len(batch_sizes) > 1
    assert_same_stream(long, sequential_reference(pa, pb, pat, 30, seed=21))
    first = batch_sizes[0]
    # the draw that straddles the end of the first batch
    k = next(i for i in range(1, 31)
             if sum(s.attempts for s in long[:i]) > first)
    for m in (k - 1, k, k + 1):
        short = sample_set(pa, pb, pat, m, seed=21)
        assert_same_stream(short, [(s.p_ab, s.attempts) for s in long[:m]])


# ---------------------------------------------------------------------------
# the pivot test against eigvalsh

def proposal_stack(rng, k, da, db, cond):
    """k joint correlations as the sampler builds them, marginals of condition up to cond."""
    def corr(d):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return cov_to_corr(q @ np.diag(np.geomspace(1.0, cond, d)) @ q.T)[0]

    m = da + db
    joint = np.zeros((m, m))
    joint[:da, :da] = corr(da)
    joint[da:, da:] = corr(db)
    stack = np.repeat(joint[None], k, axis=0)
    cross = rng.uniform(-1.0, 1.0, size=(k, da, db))
    stack[:, :da, da:] = cross
    stack[:, da:, :da] = cross.transpose(0, 2, 1)
    return stack


def with_smallest_eigenvalue(rng, m, lam):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    spectrum = np.concatenate([[lam], rng.uniform(0.1, 2.0, m - 1)])
    return (q * spectrum) @ q.T


def test_accept_matches_eigvalsh_on_long_random_stacks():
    rng = np.random.default_rng(30)
    for da in range(1, 5):
        for db in range(1, 5):
            for cond in (1.0, 1e3, 1e6):
                stack = proposal_stack(rng, 4000, da, db, cond)
                want = np.linalg.eigvalsh(stack)[:, 0] > PD_MARGIN
                np.testing.assert_array_equal(_accept(stack), want)


def test_only_knife_edge_matrices_reach_eigvalsh(monkeypatch):
    rng = np.random.default_rng(32)
    m, k = 6, 200
    edge = rng.random(k) < 0.25
    # knife-edge: within 1e-12 of the margin, well inside the band of
    # half-width 1e-10; the rest at least 1e-6 away
    offsets = np.where(edge, rng.uniform(-1e-12, 1e-12, k),
                       rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-6, 0, k))
    stack = np.stack([with_smallest_eigenvalue(rng, m, PD_MARGIN + o) for o in offsets])
    want = np.linalg.eigvalsh(stack)[:, 0] > PD_MARGIN
    assert 0 < want[edge].sum() < edge.sum()    # the band holds both decisions
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = _accept(stack)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], stack[edge])
    np.testing.assert_array_equal(got, want)
