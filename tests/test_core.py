"""Shared types: matrix checks, estimates, partitions, patterns, results."""

import json

import numpy as np
import pytest

from cofusion.core import (
    BlockPartition,
    ConfigError,
    CrossSparsityPattern,
    DimensionError,
    FusionMethod,
    FusionResult,
    GaussianEstimate,
    JointCovariance,
    NotPositiveDefiniteError,
    NotSymmetricError,
    StackLayout,
    check_spd,
    check_spd_stacks,
    check_symmetric,
    cov_to_corr,
    is_conservative,
    ldl_forward,
    ldl_pivots,
    make_substream,
    make_substream_seed,
    min_eigenvalue,
    partition_from_sparsity,
    partition_to_sparsity,
    symmetrize,
    validate_omega,
)


def rand_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


# ---------------------------------------------------------------------------
# matrix checks

def test_check_symmetric_accepts_and_symmetrizes():
    m = np.array([[2.0, 1.0 + 1e-13], [1.0, 3.0]])
    out = check_symmetric(m)
    np.testing.assert_allclose(out, out.T)


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 2.0], [0.5, 1.0]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
])
def test_check_symmetric_rejects(bad):
    with pytest.raises(NotSymmetricError):
        check_symmetric(bad)


@pytest.mark.filterwarnings("error")
def test_the_symmetry_check_holds_at_any_scale():
    # from entries of about 1e154 the Frobenius norms themselves overflow, so
    # an unscaled check compares inf with inf and lets any matrix through
    lopsided = np.array([[1.0, 0.9], [0.0, 1.0]])
    for c in (1e160, 1e300):
        with pytest.raises(NotSymmetricError):
            GaussianEstimate(np.zeros(2), c * lopsided)
    sym = np.array([[2.0, 0.5], [0.5, 1.0]])
    for c in (1e300, 1e-300):
        np.testing.assert_array_equal(GaussianEstimate(np.zeros(2), c * sym).covariance, c * sym)


@pytest.mark.filterwarnings("error")
def test_symmetrizing_entries_near_the_float64_limit_does_not_overflow():
    # 1.5e308 + 1.5e308 overflows; each half does not
    big = np.diag([1.5e308, 1e308])
    np.testing.assert_array_equal(GaussianEstimate(np.zeros(2), big).covariance, big)
    np.testing.assert_array_equal(symmetrize(np.array([[1.5e308, 1e308], [1.4e308, 1.0]])),
                                  [[1.5e308, 1.2e308], [1.2e308, 1.0]])


def test_check_symmetric_rejects_nonsquare():
    with pytest.raises(DimensionError):
        check_symmetric(np.ones((2, 3)))


def test_check_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        check_spd(np.diag([1.0, -0.5]))
    with pytest.raises(NotPositiveDefiniteError):
        check_spd(np.zeros((2, 2)))


def _filter_stacks(rng):
    """Two matrices stored as stacks: three 4x4 and two 2x2 SPD blocks each."""
    return [np.stack([np.stack([rand_spd(rng, n) for _ in range(k)]) for _ in range(2)])
            for k, n in ((3, 4), (2, 2))]


def test_check_spd_stacks_fails_when_exactly_one_block_is_indefinite():
    rng = np.random.default_rng(40)
    stacks = _filter_stacks(rng)
    check_spd_stacks(stacks)
    stacks[1][1, 0] = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveDefiniteError, match="covariance"):
        check_spd_stacks(stacks, name="covariance")
    # a stack of one matrix's blocks, and one dense matrix, are checked alike
    with pytest.raises(NotPositiveDefiniteError):
        check_spd_stacks([stacks[0][1], stacks[1][1]])
    check_spd_stacks([stacks[0][0], stacks[1][0]])
    with pytest.raises(NotPositiveDefiniteError):
        check_spd_stacks([np.diag([1.0, -0.5])])


def test_check_spd_stacks_compares_eigenvalues_across_blocks():
    # each block alone is perfectly conditioned; together they are not
    blocks = np.stack([np.eye(2), 1e-13 * np.eye(2)])
    for one in (blocks[0], blocks[1]):
        check_spd(one)
    with pytest.raises(NotPositiveDefiniteError):
        check_spd_stacks([blocks])
    with pytest.raises(NotPositiveDefiniteError):
        check_spd(np.diag([1.0, 1.0, 1e-13, 1e-13]))


def test_check_spd_stacks_with_members_checks_each_matrix_of_shared_blocks():
    # three distinct blocks, laid out as two matrices of two blocks each
    blocks = np.stack([np.eye(2), 2.0 * np.eye(2), 1e-13 * np.eye(2)])
    check_spd_stacks([blocks], members=[np.array([[0, 1], [1, 1]])])
    # a block shared by both matrices is compared with each one's others
    with pytest.raises(NotPositiveDefiniteError, match="1.000e-13"):
        check_spd_stacks([blocks], members=[np.array([[0, 1], [1, 2]])])
    blocks[1] = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveDefiniteError):
        check_spd_stacks([blocks], members=[np.array([[0, 0], [1, 1]])])


def test_check_spd_stacks_rejects_non_finite_entries():
    stacks = _filter_stacks(np.random.default_rng(41))
    stacks[0][0, 2, 1, 1] = np.nan
    with pytest.raises(NotSymmetricError):
        check_spd_stacks(stacks)


def test_stack_layout_groups_blocks_by_size():
    pattern = np.eye(7, dtype=bool)
    for i, j in ((0, 4), (4, 6), (1, 5), (2, 3)):
        pattern[i, j] = pattern[j, i] = True
    layout = StackLayout.from_pattern(pattern)
    assert layout.dim == 7
    assert [g.tolist() for g in layout.groups] == [[[0, 4, 6]], [[1, 5], [2, 3]]]
    np.testing.assert_array_equal(layout.perm, [0, 4, 6, 1, 5, 2, 3])
    np.testing.assert_array_equal(layout.perm[layout.position], np.arange(7))
    m = np.arange(49.0).reshape(7, 7)
    big, small = layout.split(m)
    np.testing.assert_array_equal(big[0], m[np.ix_([0, 4, 6], [0, 4, 6])])
    np.testing.assert_array_equal(small[1], m[np.ix_([2, 3], [2, 3])])
    # views of permuted vectors write through
    x = np.arange(7.0)[layout.perm][None].repeat(2, axis=0)
    v_big, v_small = layout.views(x)
    assert v_big.shape == (2, 1, 3) and v_small.shape == (2, 2, 2)
    v_small[:, 1] = -1.0
    np.testing.assert_array_equal(x[0, layout.position], [0, 1, -1, -1, 4, 5, 6])
    with pytest.raises(DimensionError):
        StackLayout([(0, 1), (1, 2)])


def test_min_eigenvalue_matches_numpy():
    rng = np.random.default_rng(0)
    m = rand_spd(rng, 4)
    assert min_eigenvalue(m) == pytest.approx(np.linalg.eigvalsh(m)[0])


@pytest.mark.parametrize("batch", [(6,), (2, 6)], ids=["n", "2_n"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_ldl_pivots_are_the_squared_cholesky_diagonal(m, batch):
    rng = np.random.default_rng(m)
    mats = np.array([rand_spd(rng, m, scale=10.0 ** rng.uniform(-3, 3))
                     for _ in range(np.prod(batch))]).reshape(batch + (m, m))
    a = np.moveaxis(mats, (-2, -1), (0, 1)).copy()
    piv = ldl_pivots(a)
    assert piv.shape == (m,) + batch and np.shares_memory(piv, a)
    want = np.diagonal(np.linalg.cholesky(mats), axis1=-2, axis2=-1) ** 2
    np.testing.assert_allclose(np.moveaxis(piv, 0, -1), want, rtol=1e-12, atol=0)
    # below the diagonal, the factored stack holds L_ij D_j
    low = np.moveaxis(np.tril(np.moveaxis(a, (0, 1), (-2, -1)), -1), (-2, -1), (0, 1))
    unit = low / piv[None] + np.eye(m).reshape((m, m) + (1,) * len(batch))
    rebuilt = np.einsum("ik...,k...,jk...->...ij", unit, piv, unit)
    np.testing.assert_allclose(rebuilt, mats, rtol=1e-12, atol=1e-12 * np.abs(mats).max())


def test_ldl_pivots_flag_exactly_the_matrices_that_are_not_positive_definite():
    rng = np.random.default_rng(3)
    good = np.array([rand_spd(rng, 4) for _ in range(17)])
    bad = {3: np.diag([1.0, 2.0, -1.0, 3.0]),     # indefinite
           9: np.ones((4, 4)),                    # singular
           14: np.full((4, 4), np.nan)}
    mats = list(good)
    for i in sorted(bad):
        mats.insert(i, bad[i])
    piv = ldl_pivots(np.array(mats).transpose(1, 2, 0).copy())
    assert np.flatnonzero(~(piv > 0).all(axis=0)).tolist() == sorted(bad)
    rest = np.setdiff1d(np.arange(len(mats)), sorted(bad))
    alone = ldl_pivots(good.transpose(1, 2, 0).copy())
    assert np.array_equal(piv[:, rest], alone)


@pytest.mark.parametrize("m", [1, 2, 3, 6, 14])
def test_ldl_forward_gives_each_right_hand_sides_quadratic_form(m):
    rng = np.random.default_rng(m)
    mats = np.array([rand_spd(rng, m, scale=10.0 ** rng.uniform(-3, 3)) for _ in range(5)])
    x = rng.standard_normal((3, 5, m))      # three right-hand sides per matrix
    ldl = np.moveaxis(mats, (-2, -1), (0, 1)).copy()
    piv = ldl_pivots(ldl)
    y = np.moveaxis(x, -1, 0).copy()
    ldl_forward(ldl, piv, y)
    want = np.sum(x * np.linalg.solve(mats, x[..., None])[..., 0], axis=-1)
    np.testing.assert_allclose(np.sum(y ** 2 / piv[:, None], axis=0), want, rtol=1e-10)
    # a right-hand side alone is bitwise the same as in the batch
    for r in range(3):
        alone = np.moveaxis(x[r], -1, 0).copy()
        ldl_forward(ldl, piv, alone)
        assert np.array_equal(alone, y[:, r])


def test_is_conservative_basic():
    assert is_conservative(2.0 * np.eye(2), np.eye(2))
    assert not is_conservative(np.eye(2), 2.0 * np.eye(2))
    # equality counts as conservative
    assert is_conservative(np.eye(3), np.eye(3))


def test_is_conservative_scale_invariant():
    bound = np.diag([1e8, 2e8])
    actual = bound - np.diag([1.0, 1.0])    # tiny slack at huge scale
    assert is_conservative(bound, actual)
    assert is_conservative(bound * 1e-8, actual * 1e-8)


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e9])
def test_is_conservative_refuses_half_the_covariance_in_any_units(c):
    assert not is_conservative(0.5 * c * np.eye(2), c * np.eye(2))


def test_cov_corr_round_trip():
    rng = np.random.default_rng(1)
    p = rand_spd(rng, 3)
    corr, stds = cov_to_corr(p)
    np.testing.assert_allclose(np.diag(corr), 1.0)
    np.testing.assert_allclose(corr * np.outer(stds, stds), p, atol=1e-12)


# ---------------------------------------------------------------------------
# estimates

def test_estimate_defaults_and_dim():
    e = GaussianEstimate(np.zeros(3), np.eye(3))
    assert e.dim == 3
    assert e.labels == ("x0", "x1", "x2")
    assert not e.mean.flags.writeable
    assert not e.covariance.flags.writeable


def test_estimate_rejects_bad_inputs():
    with pytest.raises(NotPositiveDefiniteError):
        GaussianEstimate(np.zeros(2), np.diag([1.0, 0.0]))
    with pytest.raises(DimensionError):
        GaussianEstimate(np.zeros(3), np.eye(2))
    with pytest.raises(DimensionError):
        GaussianEstimate(np.array([np.inf, 0.0]), np.eye(2))
    with pytest.raises(DimensionError):
        GaussianEstimate(np.array([np.nan, 0.0]), np.eye(2))
    with pytest.raises(NotSymmetricError):
        GaussianEstimate(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotSymmetricError):
        GaussianEstimate(np.zeros(2), np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(DimensionError):
        GaussianEstimate(np.zeros(2), np.eye(2), labels=("a",))
    with pytest.raises(DimensionError):
        GaussianEstimate(np.zeros(2), np.eye(2), labels=("a", "a"))
    # a string is not split into one-letter labels, and labels are strings
    with pytest.raises(DimensionError):
        GaussianEstimate(np.zeros(2), np.eye(2), labels="xy")
    with pytest.raises(DimensionError):
        GaussianEstimate(np.zeros(2), np.eye(2), labels=(1, 2))


def test_estimate_marginal_picks_indices():
    cov = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    e = GaussianEstimate(np.array([1.0, 2.0, 3.0]), cov, ("a", "b", "c"))
    sub = e.marginal([2, 0])
    np.testing.assert_allclose(sub.mean, [3.0, 1.0])
    np.testing.assert_allclose(sub.covariance, [[2.0, 0.0], [0.0, 4.0]])
    assert sub.labels == ("c", "a")


def test_marginal_of_validated_estimate_is_bitwise_the_checked_one():
    rng = np.random.default_rng(4)
    e = GaussianEstimate(rng.standard_normal(6), rand_spd(rng, 6))
    idx = [4, 1, 2]
    sub = e.marginal(idx)
    checked = GaussianEstimate(e.mean[idx], e.covariance[np.ix_(idx, idx)],
                               tuple(e.labels[i] for i in idx))
    np.testing.assert_array_equal(sub.covariance, checked.covariance)
    np.testing.assert_array_equal(sub.mean, checked.mean)
    assert not sub.covariance.flags.writeable


def test_estimate_reindex_round_trip():
    rng = np.random.default_rng(2)
    e = GaussianEstimate(rng.standard_normal(3), rand_spd(rng, 3), ("a", "b", "c"))
    r = e.reindex(("c", "a", "b"))
    back = r.reindex(("a", "b", "c"))
    np.testing.assert_allclose(back.mean, e.mean)
    np.testing.assert_allclose(back.covariance, e.covariance)
    with pytest.raises(DimensionError):
        e.reindex(("a", "b", "d"))


def test_estimate_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    e = GaussianEstimate(rng.standard_normal(2), rand_spd(rng, 2), ("px", "py"))
    path = tmp_path / "est.json"
    e.save(path)
    loaded = GaussianEstimate.load(path)
    np.testing.assert_allclose(loaded.mean, e.mean)
    np.testing.assert_allclose(loaded.covariance, e.covariance)
    assert loaded.labels == e.labels


def test_estimate_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(ConfigError):
        GaussianEstimate.load(bad)
    # text json cannot read: UTF-16 bytes, an integer past the conversion
    # limit, nesting past the parser's recursion
    for raw in ('{"mean": [0.0], "covariance": [[1.0]]}'.encode("utf-16"),
                b'{"mean": [' + b"1" * 5000 + b'], "covariance": [[1.0]]}',
                b"[" * 100_000 + b"]" * 100_000):
        bad.write_bytes(raw)
        with pytest.raises(ConfigError, match=r"bad\.json: not valid JSON \("):
            GaussianEstimate.load(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        GaussianEstimate.load(arr)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"mean": [0.0]}))
    with pytest.raises(ConfigError):
        GaussianEstimate.load(missing)
    for labels in ("xy", [1, 2]):
        spelled = tmp_path / "labels.json"
        spelled.write_text(json.dumps({"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]],
                                       "labels": labels}))
        with pytest.raises(DimensionError):
            GaussianEstimate.load(spelled)


# ---------------------------------------------------------------------------
# partitions and sparsity patterns

def test_partition_contiguous():
    p = BlockPartition(((0, 1), (2, 3, 4), (5,)))
    assert p.blocks == ((0, 1), (2, 3, 4), (5,))
    assert p.dim == 6
    assert p.n_blocks == 3


@pytest.mark.parametrize("blocks", [
    (),
    ((0, 1), ()),
    ((0, 1), (1, 2)),
    ((0,), (2,)),
])
def test_partition_rejects_bad_blocks(blocks):
    with pytest.raises(DimensionError):
        BlockPartition(blocks)


def test_partition_round_trip():
    p = BlockPartition(((0, 2), (1, 3)))
    assert BlockPartition.from_dict(p.to_dict()).blocks == p.blocks
    with pytest.raises(ConfigError):
        BlockPartition.from_dict({})


def test_pattern_validation_and_helpers():
    pat = CrossSparsityPattern(2, 3, frozenset({(0, 0), (1, 2)}))
    assert len(pat.free_indices()) == 4
    assert (0, 0) not in pat.free_indices()
    mask = pat.zero_mask()
    assert mask[0, 0] and mask[1, 2] and mask.sum() == 2
    with pytest.raises(DimensionError):
        CrossSparsityPattern(0, 2)
    with pytest.raises(DimensionError):
        CrossSparsityPattern(2, 2, frozenset({(2, 0)}))


def test_pattern_constructors():
    assert len(CrossSparsityPattern.unconstrained(2, 2).free_indices()) == 4
    az = CrossSparsityPattern(2, 3, frozenset(np.ndindex(2, 3)))
    assert az.free_indices() == []
    assert az.zero_mask().all()


def test_pattern_round_trip():
    pat = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    again = CrossSparsityPattern.from_dict(pat.to_dict())
    assert again == pat
    # serialized zero list is sorted for reproducible files
    d = pat.to_dict()
    assert d["zero_indices"] == sorted(d["zero_indices"])


def test_partition_sparsity_inverse():
    p = BlockPartition(((0, 1), (2,), (3, 4)))
    pat = partition_to_sparsity(p)
    assert partition_from_sparsity(pat).blocks == p.blocks
    # every cross-block entry is zeroed, within-block entries are free
    assert (0, 2) in pat.zero_indices and (2, 3) in pat.zero_indices
    assert (0, 1) not in pat.zero_indices and (3, 4) not in pat.zero_indices


def test_partition_from_sparsity_requires_square():
    with pytest.raises(DimensionError):
        partition_from_sparsity(CrossSparsityPattern(2, 3))


def test_partition_from_sparsity_merges_chains():
    # free entries (0,1) and (1,2) chain indices 0-1-2 into one block
    zeros = {(i, j) for i in range(3) for j in range(3)} - {(0, 1), (1, 2)}
    pat = CrossSparsityPattern(3, 3, frozenset(zeros))
    assert partition_from_sparsity(pat).blocks == ((0, 1, 2),)


# ---------------------------------------------------------------------------
# joint covariance

def test_joint_assembled_and_pd():
    j = JointCovariance(np.eye(2), np.eye(2), 0.5 * np.eye(2))
    g = j.assembled()
    assert g.shape == (4, 4)
    np.testing.assert_allclose(g[:2, 2:], 0.5 * np.eye(2))
    assert j.is_positive_definite()
    singular = JointCovariance(np.eye(2), np.eye(2), np.eye(2))
    assert min_eigenvalue(singular.assembled()) == pytest.approx(0.0, abs=1e-12)


def test_joint_rejects_bad_cross():
    with pytest.raises(DimensionError):
        JointCovariance(np.eye(2), np.eye(3), np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        JointCovariance(np.eye(2), np.eye(2), np.full((2, 2), np.nan))


def test_joint_respects_pattern():
    pat = CrossSparsityPattern(2, 2, frozenset({(0, 1)}))
    ok = JointCovariance(np.eye(2), np.eye(2), np.array([[0.1, 0.0], [0.2, 0.3]]))
    bad = JointCovariance(np.eye(2), np.eye(2), np.array([[0.1, 0.5], [0.2, 0.3]]))
    assert ok.respects(pat)
    assert not bad.respects(pat)
    assert ok.in_uncertainty_set(pat)
    with pytest.raises(DimensionError):
        ok.respects(CrossSparsityPattern(3, 3))


# ---------------------------------------------------------------------------
# fusion results

def test_fusion_result_enforces_gain_sum():
    d = 2
    with pytest.raises(DimensionError):
        FusionResult(gain_a=np.eye(d), gain_b=np.eye(d),
                     fused_mean=np.zeros(d), bound=np.eye(d),
                     method=FusionMethod.CI)


def test_fusion_result_rejects_indefinite_bound():
    with pytest.raises(NotPositiveDefiniteError):
        FusionResult(gain_a=0.5 * np.eye(2), gain_b=0.5 * np.eye(2),
                     fused_mean=np.zeros(2), bound=np.diag([1.0, -1.0]),
                     method=FusionMethod.CI)
    # the tolerance scales with the bound, so a bound below unit norm is
    # held to the same relative test
    with pytest.raises(NotPositiveDefiniteError):
        FusionResult(gain_a=0.5 * np.eye(2), gain_b=0.5 * np.eye(2),
                     fused_mean=np.zeros(2), bound=-1e-13 * np.eye(2),
                     method=FusionMethod.CI)


def test_fusion_result_to_dict_is_json_ready():
    r = FusionResult(gain_a=0.25 * np.eye(2), gain_b=0.75 * np.eye(2),
                     fused_mean=np.zeros(2), bound=np.eye(2),
                     method="CI", omega=np.array([0.25]),
                     diagnostics={"trace": np.float64(2.0),
                                  "nested": {"w": np.array([1.0])}})
    d = r.to_dict()
    json.dumps(d)
    assert d["method"] == "CI"
    assert d["omega"] == [0.25]
    assert d["diagnostics"]["nested"]["w"] == [1.0]


def test_validate_omega():
    np.testing.assert_allclose(validate_omega([0.0, 1.0, 0.5], 3), [0.0, 1.0, 0.5])
    with pytest.raises(DimensionError):
        validate_omega([0.5], 2)
    with pytest.raises(DimensionError):
        validate_omega([1.5], 1)
    with pytest.raises(DimensionError):
        validate_omega([-0.1], 1)


# ---------------------------------------------------------------------------
# substreams

def test_substream_seed_deterministic_and_distinct():
    s1 = make_substream_seed(7, "truth", 0)
    s2 = make_substream_seed(7, "truth", 0)
    s3 = make_substream_seed(7, "truth", 1)
    s4 = make_substream_seed(7, "meas", 0)
    assert s1 == s2
    assert len({s1, s3, s4}) == 3


def test_substream_generators_reproduce():
    a = make_substream(3, "x", 1).standard_normal(5)
    b = make_substream(3, "x", 1).standard_normal(5)
    np.testing.assert_array_equal(a, b)
