"""Multi-agent tracking simulator: config, filters, fusion rounds, rollups."""

import csv
import io

import numpy as np
import pytest

from cofusion.core import ConfigError, FusionError, GaussianEstimate
from cofusion.metrics import (
    OMEGA_CSV_COLUMNS,
    TRACK_CSV_COLUMNS,
    TRUTH_CSV_COLUMNS,
    nees,
    write_csv,
)
from cofusion.sim import (
    ESTIMATE_CSV_COLUMNS,
    GroupSpec,
    ScenarioConfig,
    StateLayout,
    agent_filter_model,
    build_partition,
    centralized_model,
    draw_run,
    estimate_blocks,
    fusion_round,
    global_transition,
    local_filter_step,
    measure,
    noise_factors,
    omega_blocks,
    partition_is_exact,
    propagate_truth,
    run_scenario,
    simulate_run,
    summarize,
    track_blocks,
    truth_blocks,
)


def tiny_scenario(**overrides):
    """Two agents in one group watching two targets, fused over one edge."""
    base = dict(name="tiny", seed=3, n_steps=6, mc_runs=2,
                groups=(GroupSpec((0, 1), (0, 1)),), edges=((0, 1),),
                methods=("centralized", "CI", "nmCI"))
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# configuration

def test_scenario_defaults_derive_assignments():
    scn = tiny_scenario()
    assert scn.n_agents == 2 and scn.n_targets == 2
    assert scn.assignments == ((0, 1), (0, 1))
    assert scn.layout().dim == 4 * 2 + 2 * 2


@pytest.mark.parametrize("overrides", [
    {"groups": ()},
    {"groups": (GroupSpec((0, 2), (0,)),)},
    {"edges": ((0, 0),)},
    {"edges": ((0, 5),)},
    {"edges": ((0, 1), (1, 0))},
    {"assignments": ((0,),)},
    {"assignments": ((), (0,))},
    {"r_target": ((1.0, 0.0), (0.0, -1.0))},
    {"methods": ("teleport",)},
    {"methods": ("SDP",)},
    {"methods": ()},
    {"partition_scheme": "bogus"},
    {"report_agent": 9},
    {"record_estimates": "some"},
    {"n_steps": 0},
    {"fusion_every": 0},
    {"fusion_start": -1},
    {"prior_bias_var": 0.0},
    {"agent_r_target": (((1.0, 0.0), (0.0, 1.0)),)},
    # a group without targets leaves its agents nothing to measure
    {"groups": (GroupSpec((0,), (0,)), GroupSpec((1,), ()))},
    {"partition_scheme": "per_target_bias"},
])
def test_scenario_rejects_bad_configs(overrides):
    with pytest.raises(FusionError):
        tiny_scenario(**overrides)


def test_scenario_assignment_must_stay_in_group():
    with pytest.raises(ConfigError, match="own group"):
        ScenarioConfig(name="x", groups=(GroupSpec((0,), (0,)),
                                         GroupSpec((1,), (1,))),
                       assignments=((0,), (0,)))


def test_scenario_round_trip_and_schema():
    scn = tiny_scenario(agent_r_target=(((1.0, 0.0), (0.0, 1.0)),
                                        ((0.5, 0.0), (0.0, 0.5))))
    d = scn.to_dict()
    assert d["schema"] == "cofusion-scenario-v1"
    assert ScenarioConfig.from_dict(d) == scn
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**d, "schema": "other"})
    # the tracker has no sampled-program method, so its old knobs are unknown too
    for key, value in (("warp_speed", 9), ("sdp_samples", 100), ("sdp_tol", 1e-6)):
        with pytest.raises(ConfigError, match="unknown"):
            ScenarioConfig.from_dict({**d, key: value})


def test_scenario_load_rejects_bad_json(tmp_path):
    p = tmp_path / "scn.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError):
        ScenarioConfig.load(p)


# ---------------------------------------------------------------------------
# state layout and dynamics

def test_layout_indices_and_labels():
    lay = StateLayout(2, 3)
    assert lay.dim == 14
    assert lay.target_indices(1) == [4, 5, 6, 7]
    assert lay.bias_indices(0) == [8, 9]
    assert lay.bias_indices(2) == [12, 13]
    labels = lay.labels()
    assert len(labels) == 14 and len(set(labels)) == 14
    assert lay.position_indices() == [0, 2, 4, 6]


def test_global_transition_block_structure():
    lay = StateLayout(1, 1)
    f, q = global_transition(lay, dt=0.5, q=0.1)
    # position picks up velocity * dt, biases are static
    assert f[0, 1] == 0.5 and f[2, 3] == 0.5
    np.testing.assert_allclose(f[4:, 4:], np.eye(2))
    assert np.all(np.diag(f) == 1.0)
    # process noise acts on target states only
    assert np.all(q[4:, 4:] == 0.0)
    w = np.linalg.eigvalsh(q[:4, :4])
    assert w[0] >= 0.0 and w[-1] > 0.0


def test_propagate_truth_moves_with_velocity():
    rng = np.random.default_rng(0)
    state = np.array([0.0, 2.0, 1.0, -1.0])
    out = propagate_truth(state, dt=1.0, q=0.0, rng=rng)
    np.testing.assert_allclose(out, [2.0, 2.0, 0.0, -1.0])


# ---------------------------------------------------------------------------
# measurements and local filtering

def test_measure_contains_bias_and_assigned_targets():
    scn = tiny_scenario()
    lay = scn.layout()
    rng = np.random.default_rng(1)
    from cofusion.sim import _make_agents

    agents = _make_agents(scn, np.array([[1.0, -1.0], [0.0, 0.5]]))
    truth = rng.standard_normal(lay.dim)
    m = measure(agents[0], truth, lay, np.random.default_rng(2), noise_factors(agents[0]))
    # rows: target 0, target 1, then the landmark
    assert m.shape == (2 * 2 + 2,)
    assert m[4:].shape == (2,)
    # with a zeroed noise draw the measurement is position + bias; with
    # real noise it stays within a few sigmas
    t0 = lay.target_indices(0)
    expected = truth[[t0[0], t0[2]]] + agents[0].bias
    assert np.all(np.abs(m[:2] - expected) < 6.0)


def test_local_filter_step_matches_manual_kalman():
    scn = tiny_scenario()
    lay = scn.layout()
    from cofusion.sim import _make_agents, _prior_covariance

    agents = _make_agents(scn, np.zeros((2, 2)))
    model = agent_filter_model(agents[0], lay, scn.dt, scn.q)
    p0 = _prior_covariance(scn)
    rng = np.random.default_rng(3)
    belief = GaussianEstimate(rng.standard_normal(lay.dim), p0, lay.labels())
    z = rng.standard_normal(model.h.shape[0])
    out = local_filter_step(belief, model, z)

    mean_p = model.f @ belief.mean
    cov_p = model.f @ belief.covariance @ model.f.T + model.q
    s = model.h @ cov_p @ model.h.T + model.r
    k = cov_p @ model.h.T @ np.linalg.inv(s)
    np.testing.assert_allclose(out.mean, mean_p + k @ (z - model.h @ mean_p),
                               rtol=1e-9, atol=1e-9)
    ikh = np.eye(lay.dim) - k @ model.h
    np.testing.assert_allclose(out.covariance,
                               ikh @ cov_p @ ikh.T + k @ model.r @ k.T,
                               rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("assignments", [None, ((1, 0), (1,))])
def test_measurement_rows_follow_the_models(assignments):
    scn = tiny_scenario(assignments=assignments)
    lay = scn.layout()
    from cofusion.sim import _make_agents

    agents = _make_agents(scn, np.array([[1.0, -1.0], [0.0, 0.5]]))
    models = [agent_filter_model(a, lay, scn.dt, scn.q) for a in agents]
    truth = np.random.default_rng(4).standard_normal(lay.dim)
    for a in agents:
        truth[lay.bias_indices(a.id)] = a.bias
    # without noise an agent measures exactly H x, row for row
    zero = (np.zeros((2, 2)), np.zeros((2, 2)))
    z = [measure(a, truth, lay, np.random.default_rng(5), zero) for a in agents]
    for zi, m in zip(z, models):
        np.testing.assert_array_equal(zi, m.h @ truth)
    # the agents' row blocks tile the centralized rows in id order
    central = centralized_model(models)
    r = np.zeros_like(central.r)
    at = 0
    for m in models:
        rows = slice(at, at + m.h.shape[0])
        np.testing.assert_array_equal(central.h[rows], m.h)
        r[rows, rows] = m.r
        at = rows.stop
    assert at == central.h.shape[0]
    np.testing.assert_array_equal(central.r, r)
    np.testing.assert_array_equal(np.concatenate(z), central.h @ truth)
    assert draw_run(scn, 0).meas.shape == (scn.n_steps, at)


# ---------------------------------------------------------------------------
# partitions

def test_build_partition_schemes_cover_state():
    scn = tiny_scenario()
    for scheme in ("group_target_bias", "group_axes"):
        part = build_partition(scn, scheme)
        assert part.dim == scn.layout().dim


def test_group_target_bias_blocks():
    scn = tiny_scenario()
    part = build_partition(scn, "group_target_bias")
    assert part.blocks == ((0, 1, 2, 3, 4, 5, 6, 7), (8, 9, 10, 11))


def test_group_axes_blocks_split_by_axis():
    scn = tiny_scenario()
    part = build_partition(scn, "group_axes")
    x, y = part.blocks
    assert set(x) == {0, 1, 4, 5, 8, 10}
    assert set(y) == {2, 3, 6, 7, 9, 11}


def test_partition_is_exact_only_for_axes_with_diagonal_noise():
    assert partition_is_exact(tiny_scenario(partition_scheme="group_axes"))
    assert not partition_is_exact(tiny_scenario())
    skew = tiny_scenario(partition_scheme="group_axes",
                         r_target=((1.0, 0.3), (0.3, 1.0)))
    assert not partition_is_exact(skew)
    # with agent_r_target set, each agent measures with its own matrix and
    # r_target goes unused
    skew_agent = tiny_scenario(partition_scheme="group_axes",
                               agent_r_target=(((1.0, 0.3), (0.3, 1.0)),
                                               ((1.0, 0.0), (0.0, 1.0))))
    assert not partition_is_exact(skew_agent)
    diag_agents = tiny_scenario(partition_scheme="group_axes",
                                r_target=((1.0, 0.3), (0.3, 1.0)),
                                agent_r_target=(((1.0, 0.0), (0.0, 1.0)),
                                                ((2.0, 0.0), (0.0, 0.5))))
    assert partition_is_exact(diag_agents)
    skew_landmark = tiny_scenario(partition_scheme="group_axes",
                                  r_landmark=((0.25, 0.1), (0.1, 0.25)))
    assert not partition_is_exact(skew_landmark)
    # lenient block-wise fusion runs where strict fusion would reject the
    # coupling the skewed agent's noise creates
    data = run_scenario(skew_agent, methods=("nmCI",), mc_runs=1)
    assert np.all(np.isfinite(data.runs[0]["methods"]["nmCI"]["nees"]))


# ---------------------------------------------------------------------------
# fusion rounds

def _beliefs_for(scn, seed=0):
    lay = scn.layout()
    from cofusion.sim import _prior_covariance

    rng = np.random.default_rng(seed)
    p0 = _prior_covariance(scn)
    return [GaussianEstimate(rng.standard_normal(lay.dim), p0, lay.labels())
            for _ in range(scn.n_agents)]


def test_fusion_round_none_is_identity():
    scn = tiny_scenario()
    beliefs = _beliefs_for(scn)
    out, recs = fusion_round(beliefs, scn.edges, "none", 0, build_partition(scn))
    assert out == beliefs and recs == []


def test_fusion_round_endpoints_share_result():
    scn = tiny_scenario()
    beliefs = _beliefs_for(scn)
    out, recs = fusion_round(beliefs, scn.edges, "CI", 4, build_partition(scn))
    np.testing.assert_array_equal(out[0].mean, out[1].mean)
    np.testing.assert_array_equal(out[0].covariance, out[1].covariance)
    assert len(recs) == 1
    assert recs[0]["edge"] == "0-1" and recs[0]["step"] == 4
    assert 0.0 <= recs[0]["omega"] <= 1.0


def test_fusion_round_block_weights_per_edge():
    scn = tiny_scenario()
    beliefs = _beliefs_for(scn)
    part = build_partition(scn)
    out, recs = fusion_round(beliefs, scn.edges, "nmCI", 0, part)
    assert len(recs) == part.n_blocks
    assert [r["block"] for r in recs] == list(range(part.n_blocks))


def test_fusion_round_rejects_unknown_method():
    scn = tiny_scenario()
    with pytest.raises(ConfigError):
        fusion_round(_beliefs_for(scn), scn.edges, "centralized", 0, build_partition(scn))


# ---------------------------------------------------------------------------
# full runs

def test_simulate_run_is_deterministic():
    scn = tiny_scenario()
    a = simulate_run(scn, 0)
    b = simulate_run(scn, 0)
    np.testing.assert_array_equal(a["truth"], b["truth"])
    for m in scn.methods:
        np.testing.assert_array_equal(a["methods"][m]["nees"],
                                      b["methods"][m]["nees"])
    c = simulate_run(scn, 1)
    assert not np.array_equal(a["truth"], c["truth"])


def test_methods_replay_identical_truth():
    scn = tiny_scenario()
    rec = simulate_run(scn, 0)
    # centralized tracks one column, the rest one per agent
    assert rec["methods"]["centralized"]["nees"].shape == (scn.n_steps, 1)
    assert rec["methods"]["CI"]["nees"].shape == (scn.n_steps, 2)
    assert np.all(np.isfinite(rec["methods"]["nmCI"]["nees"]))


def test_run_scenario_overrides():
    scn = tiny_scenario()
    data = run_scenario(scn, methods=("none",), mc_runs=1, seed=99)
    assert data.methods == ("none",)
    assert len(data.runs) == 1
    assert data.scenario.seed == 99
    with pytest.raises(ConfigError):
        run_scenario(scn, methods=("warp",))


# ---------------------------------------------------------------------------
# lockstep runs against the per-run maths

LOCKSTEP_METHODS = ("centralized", "CI", "nmCI", "none")
RUN_ARRAYS = ("nees", "pos_err", "avg2sig", "cov_trace", "est_mean", "est_std")
SHARED_ARRAYS = ("avg2sig", "cov_trace", "est_std")


def _reference_run(scn, run_idx, method):
    """One run of one method, one estimate at a time through the public API."""
    from cofusion.sim import _prior_covariance

    lay = scn.layout()
    draws = draw_run(scn, run_idx)
    part = build_partition(scn)
    agent_models = [agent_filter_model(a, lay, scn.dt, scn.q) for a in draws.agents]
    if method == "centralized":
        models, rows = [centralized_model(agent_models)], [slice(None)]
    else:
        # each agent's rows follow the previous agent's
        ends = np.cumsum([m.h.shape[0] for m in agent_models])
        models = agent_models
        rows = [slice(e - m.h.shape[0], e) for m, e in zip(models, ends)]
    beliefs = [GaussianEstimate(draws.prior_mean, _prior_covariance(scn), lay.labels())
               for _ in models]
    pos = lay.position_indices()
    shape = (scn.n_steps, len(models))
    out = {key: np.empty(shape) for key in ("nees", "pos_err", "avg2sig", "cov_trace")}
    out["est_mean"] = np.empty(shape + (lay.dim,))
    out["est_std"] = np.empty(shape + (lay.dim,))
    omega = []
    for k in range(scn.n_steps):
        beliefs = [local_filter_step(b, m, draws.meas[k, rs])
                   for b, m, rs in zip(beliefs, models, rows)]
        if method in ("CI", "nmCI"):
            beliefs, recs = fusion_round(beliefs, scn.edges, method, k, part,
                                         strict=partition_is_exact(scn))
            omega += recs
        for c, est in enumerate(beliefs):
            out["nees"][k, c] = nees(est, draws.truth[k])
            out["pos_err"][k, c] = np.linalg.norm(est.mean[pos] - draws.truth[k][pos])
            out["avg2sig"][k, c] = 2.0 * np.sqrt(np.mean(np.diag(est.covariance)[pos]))
            out["cov_trace"][k, c] = np.trace(est.covariance)
            out["est_mean"][k, c] = est.mean
            out["est_std"][k, c] = np.sqrt(np.diag(est.covariance))
    return draws.truth, out, omega


def test_lockstep_matches_per_run_reference():
    scn = tiny_scenario(methods=LOCKSTEP_METHODS)
    data = run_scenario(scn, mc_runs=3)
    for r, run in enumerate(data.runs):
        for method in LOCKSTEP_METHODS:
            truth, want, omega = _reference_run(scn, r, method)
            rec = run["methods"][method]
            np.testing.assert_array_equal(run["truth"], truth)
            for key in RUN_ARRAYS:
                np.testing.assert_allclose(rec[key], want[key], rtol=1e-12, atol=0.0,
                                           err_msg=f"run {r} {method} {key}")
            assert rec["omega"] == omega


def test_lockstep_batch_equals_single_runs():
    scn = tiny_scenario(methods=LOCKSTEP_METHODS)
    data = run_scenario(scn, mc_runs=3)
    for r, run in enumerate(data.runs):
        alone = simulate_run(scn, r)
        assert run["run"] == alone["run"] == r
        np.testing.assert_array_equal(run["truth"], alone["truth"])
        for method in LOCKSTEP_METHODS:
            rec, want = run["methods"][method], alone["methods"][method]
            # the batch solves its NEES with several right-hand sides at once
            np.testing.assert_allclose(rec["nees"], want["nees"], rtol=1e-12, atol=0.0)
            for key in RUN_ARRAYS:
                if key != "nees":
                    np.testing.assert_array_equal(rec[key], want[key],
                                                  err_msg=f"run {r} {method} {key}")
            assert rec["omega"] == want["omega"]
            assert rec["est_agents"] == want["est_agents"]


def test_lockstep_covariance_outputs_equal_across_runs():
    scn = tiny_scenario(methods=LOCKSTEP_METHODS)
    data = run_scenario(scn, mc_runs=3)
    first = data.runs[0]["methods"]
    for run in data.runs[1:]:
        assert not np.array_equal(run["truth"], data.runs[0]["truth"])
        for method in LOCKSTEP_METHODS:
            for key in SHARED_ARRAYS:
                np.testing.assert_array_equal(run["methods"][method][key],
                                              first[method][key])
            assert run["methods"][method]["omega"] == first[method]["omega"]
            assert not np.array_equal(run["methods"][method]["nees"],
                                      first[method]["nees"])


def test_summarize_shape_and_band():
    scn = tiny_scenario()
    data = run_scenario(scn)
    stats = summarize(data)
    row = stats.summary
    assert row["state_dim"] == 12
    assert row["mc_runs"] == 2
    assert set(row["methods"]) == set(scn.methods)
    for m, v in row["methods"].items():
        assert set(v) == {"rmse_mean", "sigma2_mean", "nees_in_band_fraction",
                          "nees_steady", "cov_trace_steady"}
        assert v["rmse_mean"] > 0.0
    lo, hi = row["band"]
    assert 0.0 < lo < 12 < hi
    assert len(stats.nees_series["CI"]) == scn.n_steps


# ---------------------------------------------------------------------------
# CSV blocks

def _written_rows(tmp_path, name, columns, blocks):
    path = tmp_path / name
    write_csv(path, columns, blocks)
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_row_generators_match_csv_contracts(tmp_path):
    scn = tiny_scenario(record_estimates="report")
    data = run_scenario(scn, mc_runs=1)
    tr = _written_rows(tmp_path, "track.csv", TRACK_CSV_COLUMNS, track_blocks(data))
    assert set(tr[0]) == set(TRACK_CSV_COLUMNS)
    # centralized rows use agent -1, distributed rows 0..n-1
    agents = {int(r["agent"]) for r in tr if r["method"] == "centralized"}
    assert agents == {-1}
    assert {int(r["agent"]) for r in tr if r["method"] == "CI"} == {0, 1}
    assert len(tr) == scn.n_steps * (1 + 2 + 2)

    om = _written_rows(tmp_path, "omega.csv", OMEGA_CSV_COLUMNS, omega_blocks(data))
    assert set(om[0]) == set(OMEGA_CSV_COLUMNS)
    assert {r["method"] for r in om} <= {"CI", "nmCI"}

    th = _written_rows(tmp_path, "truth.csv", TRUTH_CSV_COLUMNS, truth_blocks(data))
    assert set(th[0]) == set(TRUTH_CSV_COLUMNS)
    assert len(th) == scn.n_steps * scn.layout().dim

    er = _written_rows(tmp_path, "estimates.csv", ESTIMATE_CSV_COLUMNS,
                       estimate_blocks(data))
    assert set(er[0]) == set(ESTIMATE_CSV_COLUMNS)
    # report agent only, for three methods (centralized reports agent -1)
    assert {int(r["agent"]) for r in er} == {-1, scn.report_agent}


def test_record_estimates_none_suppresses_estimate_rows():
    scn = tiny_scenario(record_estimates="none")
    data = run_scenario(scn, mc_runs=1)
    assert list(estimate_blocks(data)) == []


def _reference_csv(columns, rows) -> bytes:
    """What the dict-row writer wrote: csv.writer, floats to 12 digits."""
    def fmt(v):
        return f"{v:.12g}" if isinstance(v, float) else str(v)
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(columns)
    for row in rows:
        w.writerow([fmt(row[c]) for c in columns])
    return buf.getvalue().encode("utf-8")


def _reference_rows(data) -> dict:
    """Every track CSV's dict rows, in the order the files list them."""
    labels = data.scenario.layout().labels()
    rows = {"track.csv": [], "omega.csv": [], "truth.csv": [], "estimates.csv": []}
    for r in data.runs:
        for method in data.methods:
            rec = r["methods"][method]
            for k in range(rec["nees"].shape[0]):
                for c in range(rec["nees"].shape[1]):
                    rows["track.csv"].append(
                        {"run": r["run"], "step": k, "method": method,
                         "agent": -1 if method == "centralized" else c,
                         "nees": float(rec["nees"][k, c]),
                         "pos_error_norm": float(rec["pos_err"][k, c]),
                         "avg_two_sigma": float(rec["avg2sig"][k, c]),
                         "cov_trace": float(rec["cov_trace"][k, c])})
    for r in data.runs:
        for method in data.methods:
            rows["omega.csv"] += [{"run": r["run"], "step": w["step"], "method": method,
                                   "edge": w["edge"], "block": w["block"],
                                   "omega": w["omega"]}
                                  for w in r["methods"][method]["omega"]]
    for r in data.runs:
        for k in range(r["truth"].shape[0]):
            for i, lab in enumerate(labels):
                rows["truth.csv"].append({"run": r["run"], "step": k, "label": lab,
                                          "value": float(r["truth"][k, i])})
    for r in data.runs:
        for method in data.methods:
            rec = r["methods"][method]
            if rec["est_mean"] is None:
                continue
            for k in range(rec["est_mean"].shape[0]):
                for ri, aid in enumerate(rec["est_agents"]):
                    for i, lab in enumerate(labels):
                        rows["estimates.csv"].append(
                            {"run": r["run"], "step": k, "method": method,
                             "agent": aid, "label": lab,
                             "mean": float(rec["est_mean"][k, ri, i]),
                             "std": float(rec["est_std"][k, ri, i])})
    return rows


@pytest.mark.parametrize("record", ["all", "report", "none"])
def test_blocks_write_the_dict_row_bytes(tmp_path, record):
    # two runs, centralized rows with agent -1, per-block nmCI weights
    data = run_scenario(tiny_scenario(record_estimates=record))
    files = {"track.csv": (TRACK_CSV_COLUMNS, track_blocks),
             "omega.csv": (OMEGA_CSV_COLUMNS, omega_blocks),
             "truth.csv": (TRUTH_CSV_COLUMNS, truth_blocks),
             "estimates.csv": (ESTIMATE_CSV_COLUMNS, estimate_blocks)}
    reference = _reference_rows(data)
    assert (reference["estimates.csv"] == []) == (record == "none")
    for name, (columns, blocks) in files.items():
        write_csv(tmp_path / name, columns, blocks(data))
        want = _reference_csv(columns, reference[name])
        assert (tmp_path / name).read_bytes() == want, name
