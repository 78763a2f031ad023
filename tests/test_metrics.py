"""Chi-square machinery, point metrics, and the bound-convergence sweep."""

import csv
import io

import numpy as np
import pytest

from cofusion import metrics
from cofusion.core import (
    ConfigError,
    CrossSparsityPattern,
    DimensionError,
    GaussianEstimate,
    make_substream_seed,
)
from cofusion.metrics import (
    SWEEP_CSV_COLUMNS,
    chi2_band,
    chi2_cdf,
    chi2_quantile,
    conservativeness_sweep,
    nees,
    sweep_blocks,
    write_csv,
)
from cofusion.sampler import sample_set
from cofusion.sdp import build_problem, solve_prefixes

# quantile reference values frozen from an independent implementation
CHI2_QUANTILES = [
    (0.025, 1, 0.0009820691),
    (0.975, 1, 5.0238861873),
    (0.025, 2, 0.0506356160),
    (0.975, 2, 7.3777589082),
    (0.05, 2, 0.1025865888),
    (0.95, 2, 5.9914645471),
    (0.025, 5, 0.8312116135),
    (0.975, 5, 12.8325019940),
    (0.5, 10, 9.3418177656),
    (0.025, 24, 12.4011502174),
    (0.975, 24, 39.3640770266),
    (0.025, 100, 74.2219274749),
    (0.975, 100, 129.5611971858),
    (0.025, 360, 309.3278012451),
    (0.975, 360, 414.4592941787),
    (0.025, 2400, 2266.1138308231),
    (0.975, 2400, 2537.6745538716),
    (0.025, 224, 184.4409070651),
    (0.975, 224, 267.3452647810),
    (0.999999, 1, 23.9281269769),
    (0.001, 3, 0.0242975858),
    (0.999, 3, 16.2662361962),
]


@pytest.mark.parametrize("p, dof, expected", CHI2_QUANTILES)
def test_chi2_quantile_reference_values(p, dof, expected):
    assert chi2_quantile(p, dof) == pytest.approx(expected, rel=1e-6)


def test_chi2_quantile_inverts_cdf():
    for p in (0.01, 0.25, 0.5, 0.9, 0.999):
        for dof in (1, 3, 24, 112):
            assert chi2_cdf(chi2_quantile(p, dof), dof) == pytest.approx(p, abs=1e-10)


def test_chi2_quantile_validation():
    with pytest.raises(DimensionError):
        chi2_quantile(0.0, 2)
    with pytest.raises(DimensionError):
        chi2_quantile(1.0, 2)
    with pytest.raises(DimensionError):
        chi2_quantile(0.5, 0)


# band reference values frozen alongside the quantiles
CHI2_BANDS = [
    (2, 1, 0.95, 0.0506356160, 7.3777589082),
    (2, 100, 0.95, 1.6272798250, 2.4105789551),
    (24, 15, 0.95, 20.6218534163, 27.6306196119),
    (112, 2, 0.95, 92.2204535326, 133.6726323905),
    (4, 50, 0.99, 3.0448198337, 5.1052831090),
]


@pytest.mark.parametrize("dof, runs, level, lo, hi", CHI2_BANDS)
def test_chi2_band_reference_values(dof, runs, level, lo, hi):
    got = chi2_band(dof, runs, level)
    assert got[0] == pytest.approx(lo, rel=1e-6)
    assert got[1] == pytest.approx(hi, rel=1e-6)


def test_chi2_band_tightens_with_runs():
    lo1, hi1 = chi2_band(24, 1)
    lo2, hi2 = chi2_band(24, 50)
    assert lo1 < lo2 < 24 < hi2 < hi1
    with pytest.raises(DimensionError):
        chi2_band(0, 10)
    with pytest.raises(DimensionError):
        chi2_band(2, 10, level=1.0)


# ---------------------------------------------------------------------------
# point metrics

def test_nees_hand_value():
    e = GaussianEstimate(np.array([1.0, 2.0]), np.diag([4.0, 1.0]))
    # error (1, -1): 1/4 + 1 = 1.25
    assert nees(e, np.array([0.0, 3.0])) == pytest.approx(1.25)
    assert nees(e, e.mean) == 0.0
    with pytest.raises(DimensionError):
        nees(e, np.zeros(3))


# ---------------------------------------------------------------------------
# bound-convergence sweep

@pytest.fixture(scope="module")
def small_sweep():
    p_a = np.diag([3.0, 1.0])
    p_b = np.diag([1.0, 4.0])
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    return conservativeness_sweep(p_a, p_b, pattern, [5, 20], mc_runs=4, seed=7)


def test_sweep_row_contract(small_sweep):
    rows = small_sweep.rows
    assert len(rows) == 4 * 2 * 2
    assert set(rows[0]) == set(SWEEP_CSV_COLUMNS)
    # per run and n: one sampled-program row, then one block-wise row
    assert [r["method"] for r in rows[:4]] == ["SDP", "nmCI", "SDP", "nmCI"]
    assert [r["n"] for r in rows[:4]] == [5, 5, 20, 20]
    for r in rows:
        if r["method"] == "nmCI":
            assert r["deviation_2norm"] == 0.0
            assert r["solver_status"] == ""
            assert r["newton_iterations"] == r["active_samples"] == ""
        else:
            assert isinstance(r["newton_iterations"], int)
            assert 1 <= r["active_samples"] <= r["n"]


def test_sweep_statistics_shape(small_sweep):
    dev = small_sweep.deviation
    assert dev["n"] == [5, 20]
    assert len(dev["median"]) == 2
    cons = small_sweep.conservativeness
    assert set(cons) == {"SDP", "nmCI"}
    # block-wise intersection is conservative at the true cross-covariance
    assert min(cons["nmCI"]["min"]) >= -1e-9


def test_a_runs_rows_depend_on_neither_the_run_count_nor_the_other_runs():
    # all runs are solved in one lockstep batch; a run's rows are bitwise the
    # same with 2 runs or 4, and its SDP rows are those of solve_prefixes on
    # its own program
    p_a = np.diag([3.0, 1.0])
    p_b = np.diag([1.0, 4.0])
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    sizes = [10, 50, 200, 400]
    two = conservativeness_sweep(p_a, p_b, pattern, sizes, mc_runs=2, seed=9).rows
    four = conservativeness_sweep(p_a, p_b, pattern, sizes, mc_runs=4, seed=9).rows
    assert [repr(row) for row in four if row["run"] < 2] == [repr(row) for row in two]
    for r in range(4):
        draws = sample_set(p_a, p_b, pattern, sizes[-1], make_substream_seed(9, "samples", r))
        problem = build_problem(p_a, p_b, [s.p_ab for s in draws])
        sdp_rows = [row for row in four if row["run"] == r and row["method"] == "SDP"]
        for row, sol in zip(sdp_rows, solve_prefixes(problem, sizes, 1e-6, 200)):
            assert row["bound_trace"] == float(np.trace(sol.bound))
            assert (row["solver_status"], row["solver_gap"], row["newton_iterations"],
                    row["active_samples"]) == (sol.status.value, sol.gap,
                                               sol.newton_iterations, sol.active_samples)


def test_sweep_per_run_deviation_nonincreasing(small_sweep):
    by_run = {}
    for r in small_sweep.rows:
        if r["method"] == "SDP":
            by_run.setdefault(r["run"], []).append((r["n"], r["deviation_2norm"]))
    for pairs in by_run.values():
        pairs.sort()
        devs = [d for _, d in pairs]
        assert devs[1] <= devs[0] + 1e-6


def test_sweep_sizes_out_of_order_match_per_n_fresh_solves():
    # a prefix after a longer one never takes that one's point: each row
    # equals the row of a sweep over that n alone
    p_a = np.diag([3.0, 1.0])
    p_b = np.diag([1.0, 4.0])
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    both = conservativeness_sweep(p_a, p_b, pattern, [10, 5], mc_runs=3, seed=7).rows
    for n in (10, 5):
        alone = conservativeness_sweep(p_a, p_b, pattern, [n], mc_runs=3, seed=7).rows
        assert [r for r in both if r["n"] == n] == alone
    assert all(r["newton_iterations"] > 0 for r in both if r["method"] == "SDP")


def test_sweep_validation():
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(DimensionError):
        conservativeness_sweep(np.eye(2), np.eye(2), pattern, [], 3, 0)
    with pytest.raises(DimensionError):
        conservativeness_sweep(np.eye(2), np.eye(2), pattern, [5], 0, 0)


@pytest.mark.parametrize("solver", [{"solver_tol": float("nan")}, {"solver_tol": 0.0},
                                    {"solver_max_iters": 0}])
def test_sweep_rejects_bad_solver_settings_before_sampling(monkeypatch, solver):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(metrics, "sample_cross", no_sampling)
    monkeypatch.setattr(metrics, "sample_set", no_sampling)
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(DimensionError):
        conservativeness_sweep(np.eye(2), np.eye(2), pattern, [5], 1, 0, **solver)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5])
def test_sweep_rejects_a_seed_the_substreams_would_alias(monkeypatch, seed):
    # substream seeds take the master seed modulo 2**64
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(metrics, "sample_cross", no_sampling)
    monkeypatch.setattr(metrics, "sample_set", no_sampling)
    pattern = CrossSparsityPattern(2, 2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(ConfigError, match="seed"):
        conservativeness_sweep(np.eye(2), np.eye(2), pattern, [5], 1, seed)


# ---------------------------------------------------------------------------
# CSV emission

def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    # blocks are whole lines, written as they come after the header
    blocks = iter(["1,%.12g,x\r\n" % 0.1234567890123456, "2,%.12g,\r\n" % 1e-300])
    write_csv(path, ["a", "b", "c"], blocks)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.123456789012,x"
    assert lines[2] == "2,1e-300,"
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["a"] == "1"
    assert parsed[1] == {"a": "2", "b": "1e-300", "c": ""}
    # line ends are CRLF, as csv.writer writes them
    assert path.read_bytes().count(b"\r\n") == 3


def test_sweep_blocks_write_the_dict_row_bytes(small_sweep, tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(path, SWEEP_CSV_COLUMNS, sweep_blocks(small_sweep.rows))
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(SWEEP_CSV_COLUMNS)
    for row in small_sweep.rows:
        w.writerow([f"{row[c]:.12g}" if isinstance(row[c], float) else str(row[c])
                    for c in SWEEP_CSV_COLUMNS])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
