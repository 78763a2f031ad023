"""Multi-agent tracking simulator: config, filters, fusion rounds, rollups."""

import csv
import io
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from cofusion.core import ConfigError, FusionError, GaussianEstimate, make_substream
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
    omega_blocks,
    run_scenario,
    simulate_run,
    summarize,
    track_blocks,
    truth_blocks,
)
from cofusion import sim
from cofusion.fusion import _nmci, _Pieces
from cofusion.sim import _fusion_waves, _prior_covariance, _stack_layout


def tiny_scenario(**overrides):
    """Two agents in one group watching two targets, fused over one edge."""
    base = dict(name="tiny", seed=3, n_steps=6, mc_runs=2,
                groups=(GroupSpec((0, 1), (0, 1)),), edges=((0, 1),),
                methods=("centralized", "CI", "nmCI"))
    base.update(overrides)
    return ScenarioConfig(**base)


def agent_models(scn):
    dynamics = global_transition(scn.layout(), scn.dt, scn.q)
    return [agent_filter_model(scn, a, dynamics) for a in range(scn.n_agents)]


def central_model(scn):
    return centralized_model(agent_models(scn))


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
    # integer fields take integers only, real fields finite numbers only
    {"n_steps": 2.5},
    {"mc_runs": 1.5},
    {"seed": "abc"},
    {"seed": 1.5},
    {"fusion_every": 1.5},
    {"report_agent": 0.5},
    {"n_steps": True},
    {"bias_range": float("nan")},
    {"dt": float("inf")},
    {"q": "0.01"},
    {"init_position_spread": -1.0},
    {"init_velocity_std": -1.0},
    {"edges": ((0, 1.5),)},
    # finite inputs whose dynamics are not: dt ** 3 and q * dt ** 3 overflow
    {"dt": 1e300},
    {"dt": 1e3, "q": 1e300},
    # the run name names the output directory: one entry, and a string
    {"name": "sub/dir"},
    {"name": "../escaped"},
    {"name": "."},
    {"name": ""},
    {"name": None},
])
def test_scenario_rejects_bad_configs(overrides):
    with pytest.raises(FusionError):
        tiny_scenario(**overrides)


def test_scenario_keeps_integer_values_as_ints():
    scn = tiny_scenario(seed=np.int64(4), n_steps=np.int32(3))
    assert type(scn.seed) is int and type(scn.n_steps) is int
    assert scn.seed == 4 and scn.n_steps == 3
    with pytest.raises(ConfigError, match="seed"):
        run_scenario(scn, seed=2.5)


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


def test_truth_without_process_noise_moves_with_velocity():
    scn = tiny_scenario(q=0.0, dt=0.5)
    f, _ = global_transition(scn.layout(), scn.dt, scn.q)
    truth = draw_run(scn, 0, central_model(scn)).truth
    for k in range(1, scn.n_steps):
        np.testing.assert_array_equal(truth[k], f @ truth[k - 1])
    assert not np.array_equal(truth[1], truth[0])


# ---------------------------------------------------------------------------
# measurements and local filtering

def test_measure_contains_bias_and_assigned_targets():
    scn = tiny_scenario(agent_r_target=(((2.0, 0.0), (0.0, 1.0)),
                                        ((1.0, 0.0), (0.0, 1.0))))
    lay = scn.layout()
    model = agent_models(scn)[0]
    truth = np.random.default_rng(1).standard_normal(lay.dim)
    # rows: target 0, target 1, then the landmark
    assert model.h.shape == (2 * 2 + 2, lay.dim)
    bias = truth[lay.bias_indices(0)]
    for rows, t in ((slice(0, 2), 0), (slice(2, 4), 1)):
        t0 = lay.target_indices(t)
        np.testing.assert_array_equal(model.h[rows] @ truth, truth[[t0[0], t0[2]]] + bias)
        np.testing.assert_array_equal(model.r[rows, rows], scn.agent_r_target[0])
    np.testing.assert_array_equal(model.h[4:] @ truth, bias)
    np.testing.assert_array_equal(model.r[4:, 4:], scn.r_landmark)
    # with real noise the measurement stays within a few sigmas of H x
    draws = draw_run(scn, 0, central_model(scn))
    assert np.all(np.abs(draws.meas[:, :6] - draws.truth @ model.h.T) < 6.0)


def test_local_filter_step_matches_manual_kalman():
    scn = tiny_scenario()
    lay = scn.layout()
    from cofusion.sim import _prior_covariance

    model = agent_models(scn)[0]
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
    models = agent_models(scn)
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
    draws = draw_run(scn, 0, central)
    assert draws.meas.shape == (scn.n_steps, at)
    # every row scatters around H x with noise of its own
    noise = draws.meas - draws.truth @ central.h.T
    assert np.all(np.abs(noise) < 6.0) and np.all(noise != 0.0)


def _measure_per_agent(scn, run_idx, truth):
    """Measurements drawn the way the per-agent sensor loop drew them.

    Agent by agent in id order, each assigned target's biased position
    and then the landmark, two standard normals at a time, scaled by the
    Cholesky factor of that pair's noise.
    """
    lay = scn.layout()
    rng = make_substream(scn.seed, "meas", run_idx)
    lb = np.linalg.cholesky(np.asarray(scn.r_landmark))
    out = []
    for xk in truth:
        z = []
        for a in range(scn.n_agents):
            rt = scn.r_target if scn.agent_r_target is None else scn.agent_r_target[a]
            la = np.linalg.cholesky(np.asarray(rt))
            bias = xk[lay.bias_indices(a)]
            for t in scn.assignments[a]:
                ti = lay.target_indices(t)
                z.append(xk[[ti[0], ti[2]]] + bias + la @ rng.standard_normal(2))
            z.append(bias + lb @ rng.standard_normal(2))
        out.append(np.concatenate(z))
    return np.stack(out)


@pytest.mark.parametrize("overrides", [
    {},
    {"assignments": ((1, 0), (1,))},
    {"agent_r_target": (((2.0, 0.0), (0.0, 0.5)), ((1.0, 0.0), (0.0, 1.0)))},
])
def test_draw_run_matches_per_agent_measurements_bitwise(overrides):
    scn = tiny_scenario(**overrides)
    for run_idx in (0, 1):
        draws = draw_run(scn, run_idx, central_model(scn))
        want = _measure_per_agent(scn, run_idx, draws.truth)
        np.testing.assert_array_equal(draws.meas, want)


@pytest.mark.parametrize("overrides", [
    {"r_target": ((1.0, 0.3), (0.3, 0.8)), "r_landmark": ((0.25, 0.1), (0.1, 0.3))},
    {"agent_r_target": (((2.0, -0.5), (-0.5, 0.5)), ((1.0, 0.2), (0.2, 1.0)))},
])
def test_draw_run_matches_per_agent_measurements_with_correlated_noise(overrides):
    scn = tiny_scenario(**overrides)
    model = central_model(scn)
    draws = draw_run(scn, 0, model)
    want = _measure_per_agent(scn, 0, draws.truth)
    noise = want - draws.truth @ model.h.T
    # a Cholesky factor or a product summed in another order moves the
    # noise term by a few ulp, and the sum by at most one more
    tol = 4 * np.spacing(np.abs(noise)) + np.spacing(np.abs(want))
    assert np.all(np.abs(draws.meas - want) <= tol)


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
    part = build_partition(scn)
    models = agent_models(scn)
    central = centralized_model(models)
    draws = draw_run(scn, run_idx, central)
    if method == "centralized":
        models, rows = [central], [slice(None)]
    else:
        # each agent's rows follow the previous agent's
        ends = np.cumsum([m.h.shape[0] for m in models])
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
            beliefs, recs = fusion_round(beliefs, scn.edges, method, k, part)
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


# ---------------------------------------------------------------------------
# stacked covariances: the layout and the lockstep on its variants

def preset(name, **overrides):
    path = resources.files("cofusion") / "presets" / f"{name}.json"
    return replace(ScenarioConfig.load(path), **overrides)


def stack_layout(scn):
    models = agent_models(scn)
    return _stack_layout(_prior_covariance(scn), [centralized_model(models), *models])


# correlated target noise for one agent of each desk group couples its axes
CORRELATED_DESK = dict(agent_r_target=(((1.0, 0.3), (0.3, 0.8)), ((1.0, 0.0), (0.0, 1.0)),
                                       ((1.0, 0.0), (0.0, 1.0)), ((0.5, -0.2), (-0.2, 0.5))))
UNEQUAL_GROUPS = dict(groups=(GroupSpec((0, 1), (0, 1)), GroupSpec((2,), (2,))),
                      edges=((0, 1), (1, 2)))


@pytest.mark.parametrize("name, shapes", [("tracking_desk", [(4, 6)]),
                                          ("tracking_full", [(8, 14)])])
def test_presets_stack_one_block_per_group_and_axis(name, shapes):
    scn = preset(name)
    layout = stack_layout(scn)
    assert [g.shape for g in layout.groups] == shapes
    # each block holds one group's states of one axis: its targets' position
    # and velocity and its agents' bias
    labels = scn.layout().labels()
    for states in layout.groups[0]:
        axes = {labels[i].split(":")[1][-1] for i in states}
        assert len(axes) == 1


def test_correlated_noise_merges_the_axes_of_each_group():
    assert [g.shape for g in stack_layout(preset("tracking_desk", **CORRELATED_DESK)).groups] \
        == [(2, 12)]


def test_groups_of_unequal_size_give_blocks_of_several_sizes():
    layout = stack_layout(tiny_scenario(**UNEQUAL_GROUPS))
    assert [g.shape for g in layout.groups] == [(2, 6), (2, 3)]
    np.testing.assert_array_equal(np.sort(layout.perm), np.arange(18))
    np.testing.assert_array_equal(layout.perm[layout.position], np.arange(18))


SKEW_AGENT = dict(partition_scheme="group_axes",
                  agent_r_target=(((1.0, 0.3), (0.3, 1.0)), ((1.0, 0.0), (0.0, 1.0))))


@pytest.mark.parametrize("scn, exact", [
    (tiny_scenario(partition_scheme="group_axes"), True),
    (tiny_scenario(), False),
    (tiny_scenario(partition_scheme="group_axes", r_target=((1.0, 0.3), (0.3, 1.0))), False),
    # with agent_r_target set, each agent measures with its own matrix and
    # r_target goes unused
    (tiny_scenario(**SKEW_AGENT), False),
    (tiny_scenario(partition_scheme="group_axes", r_target=((1.0, 0.3), (0.3, 1.0)),
                   agent_r_target=(((1.0, 0.0), (0.0, 1.0)), ((2.0, 0.0), (0.0, 0.5)))), True),
    (tiny_scenario(partition_scheme="group_axes", r_landmark=((0.25, 0.1), (0.1, 0.25))), False),
    (preset("tracking_desk", partition_scheme="group_axes"), True),
    (preset("tracking_desk", partition_scheme="group_target_bias"), False),
    (preset("tracking_full", partition_scheme="group_axes"), True),
    (preset("tracking_full", partition_scheme="group_target_bias"), False),
], ids=["axes", "target-bias", "skew", "skew-agent", "diagonal-agents", "skew-landmark",
        "desk-axes", "desk-target-bias", "full-axes", "full-target-bias"])
def test_tracker_pieces_leave_entries_out_only_for_inexact_partitions(scn, exact):
    # a stack holds entries only inside its blocks, and a piece is a stack
    # block within a partition block: the pieces leave out nothing exactly
    # where the partition is exact, so the tracker needs no strict mode
    pieces = _Pieces(stack_layout(scn), build_partition(scn))
    assert (not any(ix.size for ix in pieces.off)) is exact


def test_lenient_nmci_runs_where_the_partition_leaves_coupling_out():
    # the skewed agent's noise couples the axes each group_axes block splits
    data = run_scenario(tiny_scenario(**SKEW_AGENT), methods=("nmCI",), mc_runs=1)
    assert np.all(np.isfinite(data.runs[0]["methods"]["nmCI"]["nees"]))


def _assert_lockstep_matches_reference(scn):
    # the reference fuses dense covariances, the lockstep stacks of blocks;
    # over 20 steps their outputs differed by at most 1.1e-12 relative and
    # their weights by 2.2e-15
    data = run_scenario(scn, mc_runs=2)
    for r, run in enumerate(data.runs):
        for method in LOCKSTEP_METHODS:
            truth, want, omega = _reference_run(scn, r, method)
            rec = run["methods"][method]
            np.testing.assert_array_equal(run["truth"], truth)
            for key in RUN_ARRAYS:
                np.testing.assert_allclose(rec[key], want[key], rtol=1e-11, atol=0.0,
                                           err_msg=f"run {r} {method} {key}")
            assert [(w["step"], w["edge"], w["block"]) for w in rec["omega"]] \
                == [(w["step"], w["edge"], w["block"]) for w in omega]
            np.testing.assert_allclose([w["omega"] for w in rec["omega"]],
                                       [w["omega"] for w in omega], rtol=0.0, atol=1e-12)


def test_lockstep_matches_per_run_reference_with_coupled_axes():
    _assert_lockstep_matches_reference(
        preset("tracking_desk", n_steps=20, methods=LOCKSTEP_METHODS, **CORRELATED_DESK))


def test_lockstep_matches_per_run_reference_with_blocks_of_several_sizes():
    _assert_lockstep_matches_reference(
        tiny_scenario(n_steps=20, methods=LOCKSTEP_METHODS, **UNEQUAL_GROUPS))


# ---------------------------------------------------------------------------
# fusion waves: each round's edges fused in batches of edges with no common agent

# three groups of two agents: a chain across the groups and independent edges
THREE_GROUPS = dict(groups=(GroupSpec((0, 1), (0,)), GroupSpec((2, 3), (1,)),
                            GroupSpec((4, 5), (2,))),
                    edges=((0, 1), (2, 3), (1, 2), (4, 5), (3, 4), (5, 0)))


def test_fusion_waves_of_the_presets():
    assert [w.tolist() for w in _fusion_waves(preset("tracking_desk").edges)] == [[0, 1]]
    assert [w.size for w in _fusion_waves(preset("tracking_full").edges)] == [4, 4, 4, 5, 2]
    assert [w.tolist() for w in _fusion_waves(THREE_GROUPS["edges"])] \
        == [[0, 1, 3], [2, 4, 5]]
    assert _fusion_waves(()) == []


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_chain_of_edges_gives_one_wave_per_edge(k):
    assert [w.tolist() for w in _fusion_waves([(e, e + 1) for e in range(k)])] \
        == [[e] for e in range(k)]


@pytest.mark.parametrize("seed", range(5))
def test_waves_keep_the_order_of_edges_that_share_an_agent(seed):
    rng = np.random.default_rng(seed)
    edges = [tuple(rng.choice(8, size=2, replace=False).tolist()) for _ in range(20)]
    waves = _fusion_waves(edges)
    assert sorted(np.concatenate(waves).tolist()) == list(range(len(edges)))
    wave_of = {e: w for w, wave in enumerate(waves) for e in wave.tolist()}
    for wave in waves:
        assert wave.tolist() == sorted(wave.tolist())
        agents = [a for e in wave.tolist() for a in edges[e]]
        assert len(agents) == len(set(agents))
    # an edge goes one wave after the latest earlier edge that shares an agent
    for f in range(len(edges)):
        deps = [wave_of[e] for e in range(f) if set(edges[e]) & set(edges[f])]
        assert wave_of[f] == 1 + max(deps, default=-1)


def test_lockstep_matches_per_run_reference_with_waves():
    scn = tiny_scenario(n_steps=10, methods=LOCKSTEP_METHODS, **THREE_GROUPS)
    _assert_lockstep_matches_reference(scn)
    data = run_scenario(scn, mc_runs=1)
    for method in ("CI", "nmCI"):
        _, _, omega = _reference_run(scn, 0, method)
        recs = data.runs[0]["methods"][method]["omega"]
        assert recs == omega


def _one_edge_per_wave(edges):
    return [np.array([e]) for e in range(len(edges))]


@pytest.mark.parametrize("scn", [
    tiny_scenario(n_steps=8, methods=("CI", "nmCI"), **THREE_GROUPS),
    preset("tracking_full", n_steps=3, methods=("CI", "nmCI")),
], ids=["three-groups", "tracking_full"])
def test_waves_fuse_as_the_configured_order_does_bitwise(monkeypatch, scn):
    waves = run_scenario(scn, mc_runs=2)
    monkeypatch.setattr(sim, "_fusion_waves", _one_edge_per_wave)
    one_by_one = run_scenario(scn, mc_runs=2)
    for run, want in zip(waves.runs, one_by_one.runs):
        for method in scn.methods:
            rec, ref = run["methods"][method], want["methods"][method]
            for key in RUN_ARRAYS:
                np.testing.assert_array_equal(rec[key], ref[key], err_msg=f"{method} {key}")
            assert rec["omega"] == ref["omega"]


def test_wave_of_desk_stacks_fuses_each_edge_as_alone(monkeypatch):
    calls = []

    def spy(p_a, p_b, pieces):
        calls.append((p_a, p_b, pieces))
        return _nmci(p_a, p_b, pieces)

    monkeypatch.setattr(sim, "_nmci", spy)
    run_scenario(preset("tracking_desk", n_steps=3, methods=("CI", "nmCI")), mc_runs=1)
    assert len(calls) == 6 and all(p_a[0].shape[0] == 2 for p_a, *_ in calls)
    interior = 0
    for p_a, p_b, pieces in calls:
        # two extra entries share the batch, one at a tie (0.5) and one at an
        # end point (1.0); no entry may change what another gets
        for extra_a, extra_b, end in ((p_a, p_a, 0.5), ([1e-6 * x for x in p_b], p_b, 1.0)):
            sa = [np.concatenate([x, y]) for x, y in zip(p_a, extra_a)]
            sb = [np.concatenate([x, y]) for x, y in zip(p_b, extra_b)]
            for shape in ((4,), (2, 2)):
                xa = [x.reshape(shape + x.shape[1:]) for x in sa]
                xb = [x.reshape(shape + x.shape[1:]) for x in sb]
                omegas, gains, bounds = _nmci(xa, xb, pieces)
                assert omegas.shape == shape + (pieces.starts.size,)
                for e in np.ndindex(shape):
                    w, g, b = _nmci([x[e] for x in xa], [x[e] for x in xb], pieces)
                    np.testing.assert_array_equal(omegas[e], w)
                    for got, want in zip(gains + bounds, g + b):
                        np.testing.assert_array_equal(got[e], want)
                ws = omegas.reshape(4, -1)
                assert np.all(ws[2:] == end)
                interior += np.count_nonzero((0.0 < ws[:2]) & (ws[:2] < 1.0))
    assert interior > 0


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
