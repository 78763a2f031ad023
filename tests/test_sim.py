"""Multi-agent tracking simulator: config, filters, fusion rounds, rollups."""

import csv
import io
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from cofusion.core import (
    BlockPartition,
    ConfigError,
    FusionError,
    GaussianEstimate,
    make_substream,
)
from cofusion.metrics import (
    OMEGA_CSV_COLUMNS,
    TRACK_CSV_COLUMNS,
    TRUTH_CSV_COLUMNS,
    chi2_band,
    nees,
    write_csv,
)
from cofusion.sim import (
    ESTIMATE_CSV_COLUMNS,
    NEES_BAND_LEVEL,
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
from cofusion import fusion, sim
from cofusion.fusion import _Fold, _nmci, _Pieces
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


def test_scenario_to_dict_writes_every_field_in_order():
    scn = tiny_scenario(assignments=[[1], (0, 1)],
                        agent_r_target=(((2, 0), (0, 2)), ((0.5, 0.1), (0.1, 0.5))))
    want = {"schema": "cofusion-scenario-v1", "name": "tiny", "seed": 3, "dt": 1.0,
            "q": 0.01, "n_steps": 6, "mc_runs": 2,
            "groups": [{"agents": [0, 1], "targets": [0, 1]}], "edges": [[0, 1]],
            "assignments": [[1], [0, 1]],
            "r_target": [[1.0, 0.0], [0.0, 1.0]], "r_landmark": [[0.25, 0.0], [0.0, 0.25]],
            "agent_r_target": [[[2.0, 0.0], [0.0, 2.0]], [[0.5, 0.1], [0.1, 0.5]]],
            "bias_range": 2.0, "prior_position_var": 100.0, "prior_velocity_var": 25.0,
            "prior_bias_var": 4.0, "init_position_spread": 50.0, "init_velocity_std": 1.0,
            "methods": ["centralized", "CI", "nmCI"], "partition_scheme": "group_target_bias",
            "report_agent": 0, "fusion_every": 1, "fusion_start": 0, "record_estimates": "all"}
    d = scn.to_dict()
    assert d == want
    assert list(d) == list(want)
    assert [type(v) for row in d["agent_r_target"][0] for v in row] == [float] * 4
    assert ScenarioConfig.from_dict(d) == scn


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


def _truth_per_target(scn, run_idx, model):
    """A run's (truth, meas, prior_mean) drawn the way the per-target loop drew them.

    Step by step and target by target, four standard normals at a time
    scaled by the Cholesky factor of the target's process noise, each
    target moved by its own matrix-vector product.
    """
    lay = scn.layout()
    rng_truth = make_substream(scn.seed, "truth", run_idx)
    biases = rng_truth.uniform(-scn.bias_range, scn.bias_range, size=(scn.n_agents, 2))
    x = np.zeros(lay.dim)
    for t in range(scn.n_targets):
        pos = rng_truth.uniform(-scn.init_position_spread, scn.init_position_spread, 2)
        vel = rng_truth.normal(0.0, scn.init_velocity_std, 2)
        x[lay.target_indices(t)] = [pos[0], vel[0], pos[1], vel[1]]
    for a in range(scn.n_agents):
        x[lay.bias_indices(a)] = biases[a]
    truth = np.empty((scn.n_steps, lay.dim))
    phi, qn = sim.target_transition(scn.dt, scn.q)
    lq = np.linalg.cholesky(qn) if scn.q > 0 else None
    xk = x
    for k in range(scn.n_steps):
        nxt = xk.copy()
        for t in range(scn.n_targets):
            ti = lay.target_indices(t)
            nxt[ti] = phi @ xk[ti]
            if lq is not None:
                nxt[ti] += lq @ rng_truth.standard_normal(4)
        xk = nxt
        truth[k] = xk
    w = make_substream(scn.seed, "meas", run_idx).standard_normal((scn.n_steps, model.h.shape[0]))
    meas = truth @ model.h.T + w @ np.linalg.cholesky(model.r).T
    l0 = np.linalg.cholesky(_prior_covariance(scn))
    prior_mean = x + l0 @ make_substream(scn.seed, "prior", run_idx).standard_normal(lay.dim)
    return truth, meas, prior_mean


@pytest.mark.parametrize("name, overrides", [
    (None, {}),
    (None, {"q": 0.0}),
    (None, {"groups": (GroupSpec((0, 1), (0, 1)), GroupSpec((2,), (2,))),
            "edges": ((0, 1), (1, 2))}),
    ("tracking_desk", {}),
    ("tracking_full", {}),
], ids=["tiny", "no-process-noise", "unequal-groups", "tracking_desk", "tracking_full"])
def test_draw_run_steps_the_truth_as_the_per_target_loop_does_bitwise(name, overrides):
    # one batched draw is the per-target loop's stream, and a batched
    # matrix-vector product rounds as each target's own product does
    scn = preset(name) if name else tiny_scenario(**overrides)
    model = central_model(scn)
    for run_idx in (0, 1):
        draws = draw_run(scn, run_idx, model)
        truth, meas, prior_mean = _truth_per_target(scn, run_idx, model)
        np.testing.assert_array_equal(draws.truth, truth)
        np.testing.assert_array_equal(draws.meas, meas)
        np.testing.assert_array_equal(draws.prior_mean, prior_mean)


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
        part = build_partition(replace(scn, partition_scheme=scheme))
        assert part.dim == scn.layout().dim


def test_group_target_bias_blocks():
    scn = tiny_scenario()
    part = build_partition(replace(scn, partition_scheme="group_target_bias"))
    assert part.blocks == ((0, 1, 2, 3, 4, 5, 6, 7), (8, 9, 10, 11))


def test_group_axes_blocks_split_by_axis():
    scn = tiny_scenario()
    part = build_partition(replace(scn, partition_scheme="group_axes"))
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
    out, omegas = fusion_round(beliefs, scn.edges, "none", 0, build_partition(scn))
    assert out == beliefs and omegas.shape == (1, 0)


@pytest.mark.parametrize("method, blocks", [("CI", 1), ("nmCI", 2), ("none", 0)])
def test_fusion_round_without_edges_is_identity(method, blocks):
    scn = tiny_scenario(edges=())
    beliefs = _beliefs_for(scn)
    out, omegas = fusion_round(beliefs, scn.edges, method, 0, build_partition(scn))
    assert out == beliefs and omegas.shape == (0, blocks)


def test_fusion_round_endpoints_share_result():
    scn = tiny_scenario()
    beliefs = _beliefs_for(scn)
    out, omegas = fusion_round(beliefs, scn.edges, "CI", 4, build_partition(scn))
    np.testing.assert_array_equal(out[0].mean, out[1].mean)
    np.testing.assert_array_equal(out[0].covariance, out[1].covariance)
    np.testing.assert_array_equal(omegas[0], fusion.ci_fuse(*beliefs).omega)
    assert omegas.shape == (1, 1) and 0.0 <= omegas[0, 0] <= 1.0


def test_fusion_round_block_weights_per_edge():
    scn = tiny_scenario()
    beliefs = _beliefs_for(scn)
    part = build_partition(scn)
    out, omegas = fusion_round(beliefs, scn.edges, "nmCI", 0, part)
    assert omegas.shape == (1, part.n_blocks)
    np.testing.assert_array_equal(omegas[0], fusion.nmci_fuse(*beliefs, part).omega)


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
    np.testing.assert_array_equal(a.truth, b.truth)
    for m in scn.methods:
        np.testing.assert_array_equal(a.tracks[m].nees, b.tracks[m].nees)
    c = simulate_run(scn, 1)
    assert not np.array_equal(a.truth, c.truth)


def test_methods_replay_identical_truth():
    scn = tiny_scenario()
    data = simulate_run(scn, 0)
    # centralized tracks one column, the rest one per agent
    assert data.tracks["centralized"].nees.shape == (1, scn.n_steps, 1)
    assert data.tracks["CI"].nees.shape == (1, scn.n_steps, 2)
    assert np.all(np.isfinite(data.tracks["nmCI"].nees))


def test_run_scenario_overrides():
    scn = tiny_scenario()
    data = run_scenario(scn, methods=("none",), mc_runs=1, seed=99)
    assert list(data.tracks) == ["none"]
    assert data.run_ids == [0] and data.truth.shape[0] == 1
    assert data.scenario.seed == 99
    with pytest.raises(ConfigError):
        run_scenario(scn, methods=("warp",))


# ---------------------------------------------------------------------------
# lockstep runs against the per-run maths

LOCKSTEP_METHODS = ("centralized", "CI", "nmCI", "none")
RUN_ARRAYS = ("nees", "pos_err", "est_mean")
SHARED_ARRAYS = ("avg2sig", "cov_trace", "est_std")


def _series(track, r):
    """Run r's series of a ``MethodTrack``: its slice of each per-run array, and the shared ones."""
    return {**{key: getattr(track, key)[r] for key in RUN_ARRAYS},
            **{key: getattr(track, key) for key in SHARED_ARRAYS}}


def _assert_same_tracks(data, want, methods=None):
    for method in methods or data.tracks:
        rec, ref = data.tracks[method], want.tracks[method]
        for key in RUN_ARRAYS + SHARED_ARRAYS + ("omega",):
            np.testing.assert_array_equal(getattr(rec, key), getattr(ref, key), strict=True,
                                          err_msg=f"{method} {key}")


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
    omega = []      # every step fuses: fusion_start 0, fusion_every 1
    for k in range(scn.n_steps):
        beliefs = [local_filter_step(b, m, draws.meas[k, rs])
                   for b, m, rs in zip(beliefs, models, rows)]
        if method in ("CI", "nmCI"):
            beliefs, omegas = fusion_round(beliefs, scn.edges, method, k, part)
            omega.append(omegas)
        for c, est in enumerate(beliefs):
            out["nees"][k, c] = nees(est, draws.truth[k])
            out["pos_err"][k, c] = np.linalg.norm(est.mean[pos] - draws.truth[k][pos])
            out["avg2sig"][k, c] = 2.0 * np.sqrt(np.mean(np.diag(est.covariance)[pos]))
            out["cov_trace"][k, c] = np.trace(est.covariance)
            out["est_mean"][k, c] = est.mean
            out["est_std"][k, c] = np.sqrt(np.diag(est.covariance))
    return draws.truth, out, np.stack(omega) if omega else None


def test_lockstep_matches_per_run_reference():
    scn = tiny_scenario(methods=LOCKSTEP_METHODS)
    data = run_scenario(scn, mc_runs=3)
    for r in data.run_ids:
        for method in LOCKSTEP_METHODS:
            truth, want, omega = _reference_run(scn, r, method)
            np.testing.assert_array_equal(data.truth[r], truth)
            for key, got in _series(data.tracks[method], r).items():
                np.testing.assert_allclose(got, want[key], rtol=1e-12, atol=0.0,
                                           err_msg=f"run {r} {method} {key}")
            np.testing.assert_array_equal(data.tracks[method].omega, omega, strict=True)


def _assert_batch_equals_single_runs(scn, mc_runs):
    data = run_scenario(scn, mc_runs=mc_runs)
    assert data.run_ids == list(range(mc_runs))
    for r in data.run_ids:
        alone = simulate_run(scn, r)
        assert alone.run_ids == [r]
        np.testing.assert_array_equal(data.truth[r], alone.truth[0])
        for method in LOCKSTEP_METHODS:
            rec, want = data.tracks[method], alone.tracks[method]
            got, ref = _series(rec, r), _series(want, 0)
            for key in got:
                np.testing.assert_array_equal(got[key], ref[key],
                                              err_msg=f"run {r} {method} {key}")
            np.testing.assert_array_equal(rec.omega, want.omega, strict=True)
            assert rec.est_agents == want.est_agents


def test_lockstep_batch_equals_single_runs():
    _assert_batch_equals_single_runs(tiny_scenario(methods=LOCKSTEP_METHODS), 3)


@pytest.mark.parametrize("mc_runs", [1, 2, 5])
def test_lockstep_batch_of_desk_equals_single_runs(mc_runs):
    # 8 position entries: enough for numpy to sum a lone vector pairwise
    _assert_batch_equals_single_runs(preset("tracking_desk", n_steps=30,
                                            methods=LOCKSTEP_METHODS), mc_runs)


def test_lockstep_runs_differ_in_truth_and_nees():
    scn = tiny_scenario(methods=LOCKSTEP_METHODS)
    data = run_scenario(scn, mc_runs=3)
    for r in (1, 2):
        assert not np.array_equal(data.truth[r], data.truth[0])
        for method in LOCKSTEP_METHODS:
            nees = data.tracks[method].nees
            assert not np.array_equal(nees[r], nees[0])


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
    assert np.all(np.isfinite(data.tracks["nmCI"].nees))


def _assert_lockstep_matches_reference(scn):
    # the reference fuses dense covariances, the lockstep stacks of blocks;
    # over 20 steps their outputs differed by at most 1.1e-12 relative and
    # their weights by 2.2e-15
    data = run_scenario(scn, mc_runs=2)
    for r in data.run_ids:
        for method in LOCKSTEP_METHODS:
            truth, want, omega = _reference_run(scn, r, method)
            rec = data.tracks[method]
            np.testing.assert_array_equal(data.truth[r], truth)
            for key, got in _series(rec, r).items():
                np.testing.assert_allclose(got, want[key], rtol=1e-11, atol=0.0,
                                           err_msg=f"run {r} {method} {key}")
            if omega is None:
                assert rec.omega is None
            else:
                assert rec.omega.shape == omega.shape
                np.testing.assert_allclose(rec.omega, omega, rtol=0.0, atol=1e-12)


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
        np.testing.assert_array_equal(data.tracks[method].omega, omega, strict=True)


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
    _assert_same_tracks(waves, one_by_one)


def test_wave_of_desk_stacks_fuses_each_edge_as_alone(monkeypatch):
    calls = []

    def spy(lanes):
        calls.append(lanes)
        return _nmci(lanes)

    monkeypatch.setattr(sim, "_nmci", spy)
    run_scenario(preset("tracking_desk", n_steps=3, methods=("CI", "nmCI")), mc_runs=1)
    # one call per wave, with a lane for CI and one for nmCI
    assert len(calls) == 3 and all(len(lanes) == 2 for lanes in calls)
    assert all(p_a[0].shape[0] == 2 for lanes in calls for p_a, *_ in lanes)
    interior = 0
    for p_a, p_b, pieces, _ in (lane for lanes in calls for lane in lanes):
        # two extra entries share the batch, one at a tie (0.5) and one at an
        # end point (1.0); no entry may change what another gets
        for extra_a, extra_b, end in ((p_a, p_a, 0.5), ([1e-6 * x for x in p_b], p_b, 1.0)):
            sa = [np.concatenate([x, y]) for x, y in zip(p_a, extra_a)]
            sb = [np.concatenate([x, y]) for x, y in zip(p_b, extra_b)]
            for shape in ((4,), (2, 2)):
                xa = [x.reshape(shape + x.shape[1:]) for x in sa]
                xb = [x.reshape(shape + x.shape[1:]) for x in sb]
                ((omegas, gains, bounds),) = _nmci([(xa, xb, pieces, None)])
                assert omegas.shape == shape + (pieces.starts.size,)
                for e in np.ndindex(shape):
                    ((w, g, b),) = _nmci([([x[e] for x in xa], [x[e] for x in xb], pieces, None)])
                    np.testing.assert_array_equal(omegas[e], w)
                    for got, want in zip(gains + bounds, g + b):
                        np.testing.assert_array_equal(got[e], want)
                ws = omegas.reshape(4, -1)
                assert np.all(ws[2:] == end)
                interior += np.count_nonzero((0.0 < ws[:2]) & (ws[:2] < 1.0))
    assert interior > 0


@pytest.mark.parametrize("name", ["tracking_desk", "tracking_full"])
@pytest.mark.parametrize("shape", [(4,), (2, 2)])
@pytest.mark.parametrize("folded", [False, True], ids=["identity", "folded"])
def test_one_search_over_ci_and_nmci_lanes_fuses_each_lane_as_alone(name, shape, folded):
    # CI's lane reads whole blocks, group_target_bias's gathers pieces of
    # them; blocks drawn from three matrices per size, one a scaled copy of
    # another, give repeated pairs, ties and end points
    scn = preset(name, n_steps=3)
    layout = stack_layout(scn)
    rng = np.random.default_rng(47)
    lanes = []
    for part in (BlockPartition((tuple(range(layout.dim)),)), build_partition(scn)):
        pieces = _Pieces(layout, part)
        stacks, classes = [[], []], [[], []]
        for states in layout.groups:
            k, n = states.shape
            x = rng.standard_normal((2, n, n))
            mats = x @ np.swapaxes(x, -1, -2) + n * np.eye(n)
            mats = np.concatenate([mats, 1e-6 * mats[:1]])
            for side in (0, 1):
                c = rng.integers(0, 3, size=(4, k))
                classes[side].append(c)
                stacks[side].append(mats[c].reshape(shape + (k, n, n)))
        lanes.append((*stacks, pieces, _Fold.of(pieces, *classes)[0] if folded else None))
    together = _nmci(lanes)
    assert len(together) == 2
    for lane, (omegas, gains, bounds) in zip(lanes, together):
        ((w, g, b),) = _nmci([lane])
        assert omegas.shape == shape + (lane[2].starts.size,)
        np.testing.assert_array_equal(omegas, w)
        for got, want in zip(gains + bounds, g + b):
            np.testing.assert_array_equal(got, want)
            assert got.strides == want.strides


def test_each_distinct_wave_fold_builds_its_plan_once(monkeypatch):
    built, calls = [], []
    plan = fusion._plan
    monkeypatch.setattr(fusion, "_plan", lambda *args: built.append(args) or plan(*args))
    monkeypatch.setattr(sim, "_nmci", lambda lanes: calls.append(lanes) or _nmci(lanes))
    run_scenario(preset("tracking_desk"), mc_runs=3)
    # 100 waves of a CI and an nmCI lane share 4 folds, each with its plan
    folds = {id(fold) for lanes in calls for *_, fold in lanes}
    assert (len(calls), sum(map(len, calls))) == (100, 200)
    assert len(built) == len(folds) == 4


# ---------------------------------------------------------------------------
# classes of equal covariances: each computed once

def _identity_classes(keys):
    every = np.arange(keys.shape[0])
    return every, every


CLASS_CASES = [
    (preset("tracking_desk", methods=LOCKSTEP_METHODS), True),
    (preset("tracking_full", n_steps=3, methods=LOCKSTEP_METHODS), True),
    # no axis twins, and no two edges fuse alike blocks
    (preset("tracking_desk", n_steps=30, methods=LOCKSTEP_METHODS, **CORRELATED_DESK), False),
    (tiny_scenario(n_steps=20, methods=LOCKSTEP_METHODS, **UNEQUAL_GROUPS), True),
    (preset("tracking_desk", partition_scheme="group_axes", methods=LOCKSTEP_METHODS), True),
    # one noisier agent: in a wave, blocks that no end of two edges observes
    # are alike pairs under two CI weights
    (tiny_scenario(n_steps=8, methods=LOCKSTEP_METHODS, **THREE_GROUPS,
                   agent_r_target=(((1.0, 0.0), (0.0, 1.0)),) * 2 + (((3.0, 0.0), (0.0, 3.0)),)
                   + (((1.0, 0.0), (0.0, 1.0)),) * 3), True),
]
CLASS_IDS = ["desk", "full", "correlated-desk", "unequal-groups", "group-axes", "three-groups"]


@pytest.mark.parametrize("scn, twins", CLASS_CASES, ids=CLASS_IDS)
def test_classes_fold_as_computing_every_covariance_does_bitwise(monkeypatch, scn, twins):
    folded = run_scenario(scn, mc_runs=2)
    monkeypatch.setattr(sim, "_classes", _identity_classes)
    monkeypatch.setattr(fusion, "_classes", _identity_classes)
    every = run_scenario(scn, mc_runs=2)
    _assert_same_tracks(folded, every)
    for method in scn.methods:
        for part in ("filter_blocks", "intersections"):
            done = every.work[method][part]
            assert done["computed"] == done["entries"] == folded.work[method][part]["entries"]
    # blocks an agent never observes stay alike, and so do axis twins
    for method in ("CI", "nmCI", "none"):
        assert folded.work[method]["filter_blocks"]["computed"] \
            < folded.work[method]["filter_blocks"]["entries"]
    for method in ("CI", "nmCI"):
        fused = folded.work[method]["intersections"]
        assert 0 < fused["computed"] <= fused["entries"]
        assert (fused["computed"] < fused["entries"]) is twins


@pytest.mark.parametrize("scn", [scn for scn, _ in CLASS_CASES] + [
    preset("tracking_desk", n_steps=20, fusion_every=2, methods=LOCKSTEP_METHODS),
    tiny_scenario(n_steps=10, fusion_start=3, methods=LOCKSTEP_METHODS, **THREE_GROUPS),
    tiny_scenario(n_steps=8, record_estimates="report", methods=LOCKSTEP_METHODS, **UNEQUAL_GROUPS),
    preset("tracking_desk", n_steps=12, record_estimates="none", methods=LOCKSTEP_METHODS),
], ids=CLASS_IDS + ["fusion-every-2", "fusion-start-3", "report", "none"])
def test_one_lockstep_steps_each_method_as_it_steps_alone(scn):
    # the filters of all methods share one lockstep and their classes; a
    # class merged across methods by mistake would show as a difference
    together = run_scenario(scn, mc_runs=2)
    for method in LOCKSTEP_METHODS:
        alone = run_scenario(scn, methods=(method,), mc_runs=2)
        _assert_same_tracks(together, alone, methods=(method,))
        assert together.tracks[method].est_agents == alone.tracks[method].est_agents
        work, own = together.work[method], alone.work[method]
        # a class that filters of several methods share counts for the
        # first of them, so the first method counts every class it holds
        assert work["intersections"] == own["intersections"]
        assert work["filter_blocks"]["entries"] == own["filter_blocks"]["entries"]
        assert work["filter_blocks"]["computed"] <= own["filter_blocks"]["computed"]
        assert (work == own) or method != LOCKSTEP_METHODS[0]
    # CI, nmCI and unfused filters are alike until their first fusion
    assert together.work["none"]["filter_blocks"]["computed"] \
        < run_scenario(scn, methods=("none",), mc_runs=1).work["none"]["filter_blocks"]["computed"]


def _step_classes(monkeypatch, scn, method):
    """Per step, each (filter, block)'s class after the filter step, (filters, k) per group."""
    schedules, build = [], sim._class_schedule

    def spy(plan, *args):
        schedule = build(plan, *args)
        schedules.append([step.inverse for step, _ in schedule])
        return schedule

    monkeypatch.setattr(sim, "_class_schedule", spy)
    run_scenario(scn, methods=(method,), mc_runs=1)
    return schedules[0]


@pytest.mark.parametrize("name", ["tracking_desk", "tracking_full"])
@pytest.mark.parametrize("method", ["CI", "nmCI"])
def test_axis_twins_share_a_class_at_every_step(monkeypatch, name, method):
    scn = preset(name, n_steps=12)
    labels = scn.layout().labels()
    (states,) = stack_layout(scn).groups
    axis_of = {tuple(labels[i][:-1] for i in blk): b for b, blk in enumerate(states.tolist())}
    pairs = [(b, axis_of[tuple(labels[i][:-1] for i in blk)])
             for b, blk in enumerate(states.tolist()) if labels[blk[0]][-1] == "x"]
    assert len(pairs) == states.shape[0] // 2
    for (classes,) in _step_classes(monkeypatch, scn, method):
        for x, y in pairs:
            np.testing.assert_array_equal(classes[:, x], classes[:, y])


@pytest.mark.parametrize("method", ["none", "CI", "nmCI"])
def test_agents_with_other_noise_never_share_a_class(monkeypatch, method):
    # agents 0 and 2 (and 1 and 3) see their groups alike: under one common
    # noise matrix their own groups' blocks are one class, under the noise
    # of CORRELATED_DESK they are two at every step
    common = dict(agent_r_target=(CORRELATED_DESK["agent_r_target"][0],) * 4)
    for overrides, alike in ((common, True), (CORRELATED_DESK, False)):
        steps = _step_classes(monkeypatch, preset("tracking_desk", n_steps=12, **overrides),
                              method)
        mirrored = [(c[0, 0] == c[2, 1], c[1, 0] == c[3, 1]) for (c,) in steps]
        if alike:
            assert mirrored[0] == (True, True)
            assert method != "none" or all(m == (True, True) for m in mirrored)
        else:
            assert not any(a or b for a, b in mirrored)


def test_summarize_shape_and_band():
    scn = tiny_scenario()
    data = run_scenario(scn)
    row = summarize(data)
    assert row["state_dim"] == 12
    assert row["mc_runs"] == 2
    assert set(row["methods"]) == set(scn.methods)
    for m, v in row["methods"].items():
        assert set(v) == {"rmse_mean", "sigma2_mean", "nees_in_band_fraction",
                          "nees_steady", "cov_trace_steady"}
        assert v["rmse_mean"] > 0.0
    lo, hi = row["band"]
    assert 0.0 < lo < 12 < hi


def test_summarize_equals_the_average_over_one_copy_per_run():
    # the shared series are averaged over their one copy; averaging one
    # stacked copy per run, as a per-run record would, moves the mean by
    # roundoff only
    scn = tiny_scenario(methods=LOCKSTEP_METHODS, n_steps=12)
    data = run_scenario(scn, mc_runs=3)
    got = summarize(data)
    band = chi2_band(12, 3, NEES_BAND_LEVEL)
    assert {k: v for k, v in got.items() if k != "methods"} == {
        "state_dim": 12, "mc_runs": 3, "steps": 12, "level": NEES_BAND_LEVEL,
        "report_agent": scn.report_agent, "band": [band[0], band[1]]}
    tail = 3
    for method, tr in data.tracks.items():
        col = 0 if method == "centralized" else scn.report_agent
        series = np.stack([tr.nees[r][:, col] for r in range(3)]).mean(axis=0)
        pe = np.stack([tr.pos_err[r] for r in range(3)])
        s2 = np.stack([tr.avg2sig] * 3)
        trace = np.stack([tr.cov_trace] * 3)
        want = {"rmse_mean": float(np.mean(np.sqrt(np.mean(pe ** 2, axis=1)))),
                "nees_in_band_fraction":
                    float(np.mean((series >= band[0]) & (series <= band[1]))),
                "nees_steady": float(series[-tail:].mean())}
        assert {k: got["methods"][method][k] for k in want} == want
        assert got["methods"][method]["sigma2_mean"] \
            == pytest.approx(float(np.mean(s2)), rel=1e-14, abs=0.0)
        assert got["methods"][method]["cov_trace_steady"] \
            == pytest.approx(float(trace[:, -tail:, :].mean()), rel=1e-14, abs=0.0)


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
    scn = data.scenario
    labels = scn.layout().labels()
    fusing = [k for k in range(scn.n_steps)
              if k + 1 > scn.fusion_start and (k + 1 - scn.fusion_start) % scn.fusion_every == 0]
    rows = {"track.csv": [], "omega.csv": [], "truth.csv": [], "estimates.csv": []}
    for r, run in enumerate(data.run_ids):
        for method in data.tracks:
            tr = data.tracks[method]
            for k in range(tr.nees.shape[1]):
                for c in range(tr.nees.shape[2]):
                    rows["track.csv"].append(
                        {"run": run, "step": k, "method": method,
                         "agent": -1 if method == "centralized" else c,
                         "nees": float(tr.nees[r, k, c]),
                         "pos_error_norm": float(tr.pos_err[r, k, c]),
                         "avg_two_sigma": float(tr.avg2sig[k, c]),
                         "cov_trace": float(tr.cov_trace[k, c])})
    for run in data.run_ids:
        for method, tr in data.tracks.items():
            assert (tr.omega is None) == (method not in ("CI", "nmCI"))
            if tr.omega is None:
                continue
            assert tr.omega.shape[:2] == (len(fusing), len(scn.edges))
            rows["omega.csv"] += [{"run": run, "step": k, "method": method,
                                   "edge": f"{i}-{j}", "block": b, "omega": float(w)}
                                  for k, ws in zip(fusing, tr.omega)
                                  for (i, j), we in zip(scn.edges, ws)
                                  for b, w in enumerate(we)]
    for run, truth in zip(data.run_ids, data.truth):
        for k in range(truth.shape[0]):
            for i, lab in enumerate(labels):
                rows["truth.csv"].append({"run": run, "step": k, "label": lab,
                                          "value": float(truth[k, i])})
    for r, run in enumerate(data.run_ids):
        for method in data.tracks:
            tr = data.tracks[method]
            if tr.est_mean is None:
                continue
            for k in range(tr.est_mean.shape[1]):
                for ri, aid in enumerate(tr.est_agents):
                    for i, lab in enumerate(labels):
                        rows["estimates.csv"].append(
                            {"run": run, "step": k, "method": method,
                             "agent": aid, "label": lab,
                             "mean": float(tr.est_mean[r, k, ri, i]),
                             "std": float(tr.est_std[k, ri, i])})
    return rows


# one run is the shape of a one-run workload; three share each method's
# filled pieces between runs
WRITER_CASES = [(record, runs) for runs in (3, 1) for record in ("all", "report", "none")]


@pytest.mark.parametrize("record, mc_runs", WRITER_CASES,
                         ids=[rec if runs == 3 else f"{rec}-1run" for rec, runs in WRITER_CASES])
def test_blocks_write_the_dict_row_bytes(tmp_path, record, mc_runs):
    # centralized rows with agent -1, per-block nmCI weights, and the
    # methods that do not fuse
    _assert_blocks_write_the_dict_row_bytes(
        tmp_path, run_scenario(tiny_scenario(record_estimates=record, methods=LOCKSTEP_METHODS),
                               mc_runs=mc_runs))


@pytest.mark.parametrize("scenario", [
    tiny_scenario(n_steps=10, fusion_every=3, fusion_start=2, methods=LOCKSTEP_METHODS),
    tiny_scenario(edges=(), methods=LOCKSTEP_METHODS),
    tiny_scenario(fusion_start=6, methods=LOCKSTEP_METHODS),
    tiny_scenario(methods=("none", "nmCI", "centralized")),
    # more steps than one block holds, not a multiple of it, and a single step
    preset("tracking_desk", n_steps=23, mc_runs=2, methods=LOCKSTEP_METHODS),
    preset("tracking_desk", n_steps=1, mc_runs=2, methods=LOCKSTEP_METHODS),
    preset("tracking_desk", n_steps=23, mc_runs=2, record_estimates="report",
           methods=LOCKSTEP_METHODS),
], ids=["every-3-from-2", "no-edges", "no-fusing-step", "method-order", "desk-23-steps",
        "desk-1-step", "desk-report"])
def test_blocks_write_the_dict_row_bytes_of_other_rounds(tmp_path, scenario):
    _assert_blocks_write_the_dict_row_bytes(tmp_path, run_scenario(scenario))


def _assert_blocks_write_the_dict_row_bytes(tmp_path, data):
    record = data.scenario.record_estimates
    files = {"track.csv": (TRACK_CSV_COLUMNS, track_blocks),
             "omega.csv": (OMEGA_CSV_COLUMNS, omega_blocks),
             "truth.csv": (TRUTH_CSV_COLUMNS, truth_blocks),
             "estimates.csv": (ESTIMATE_CSV_COLUMNS, estimate_blocks)}
    reference = _reference_rows(data)
    assert (reference["estimates.csv"] == []) == (record == "none")
    for name, (columns, blocks) in files.items():
        _assert_blocks_bounded_in_row_order(
            list(blocks(data)), "method" in columns)
        write_csv(tmp_path / name, columns, blocks(data))
        want = _reference_csv(columns, reference[name])
        assert (tmp_path / name).read_bytes() == want, name


def _assert_blocks_bounded_in_row_order(texts, by_method):
    """No block holds lines of more than one run or more than ``_METRIC_STEPS``
    steps, and each run's steps (per method, where the file has one) never
    go back from one line or block to the next."""
    last = {}
    for text in texts:
        keys = [line.split(",")[:3] for line in text.splitlines()]
        assert len({run for run, _, _ in keys}) <= 1
        assert len({step for _, step, _ in keys}) <= sim._METRIC_STEPS
        for run, step, method in keys:
            part = (run, method if by_method else None)
            assert int(step) >= last.get(part, -1)
            last[part] = int(step)


def _template_blocks(run_ids, parts):
    """The row builder that filled every block's template before the first
    one was written: per part, each block's ``shared`` cells formatted
    once for all runs.  A part is (steps, tails, shared, cells); the tails'
    ``%.12g`` fields take the (steps, ...) ``shared`` cells, their
    ``%%.12g`` fields a run's (runs, steps, ...) ``cells``; None: none."""
    def values(cells, at):
        return () if cells is None else tuple(cells[at].ravel().tolist())
    pieces = []
    for steps, tails, shared, cells in parts:
        rows = ["".join([f"\0{k},{tail}" for tail in tails]) for k in steps]
        for s in range(0, len(rows), sim._METRIC_STEPS):
            at = slice(s, s + sim._METRIC_STEPS)
            pieces.append(("".join(rows[at]) % values(shared, at), cells, at))
    for r, run in enumerate(run_ids):
        for template, cells, at in pieces:
            yield template.replace("\0", f"{run},"), values(cells, (r, at))


# values that format alike or unusually: both zeros, both nans, the
# infinities, the edge of the normal range and the subnormals below it
AWKWARD_VALUES = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, 2.2250738585072014e-308,
                  5e-324, -2.5e-310, 1.0, 0.5, 1e16, 123456789012.5]


@pytest.mark.parametrize("seed", range(8))
def test_run_blocks_write_the_template_builders_bytes(seed):
    rng = np.random.default_rng(seed)
    n_runs = int(rng.integers(1, 4))
    run_ids = sorted(rng.choice(100, n_runs, replace=False).tolist())
    # a small pool, so that values repeat across runs, steps and heads
    pool = np.array(AWKWARD_VALUES + (rng.standard_normal(8)
                                      * 10.0 ** rng.integers(-30, 30, 8)).tolist())
    parts, template_parts = [], []
    for p in range(int(rng.integers(1, 4))):
        n_steps = int(rng.choice([1, 7, 10, 23]))
        steps = (range(n_steps) if rng.random() < 0.5
                 else sorted(rng.choice(200, n_steps, replace=False).tolist()))
        shape = tuple(rng.integers(1, 4, int(rng.integers(1, 3))))
        heads = [f"m{p},{h}," for h in range(int(np.prod(shape)))]
        n_cells, n_shared = [(0, 1), (1, 0), (1, 1), (2, 2)][int(rng.integers(4))]
        cells = tuple(rng.choice(pool, (n_runs, n_steps) + shape) for _ in range(n_cells))
        shared = tuple(rng.choice(pool, (n_steps,) + shape) for _ in range(n_shared))
        parts.append((steps, heads, cells, shared))
        fields = ",".join(["%%.12g"] * n_cells + ["%.12g"] * n_shared)
        template_parts.append((steps, [f"{head}{fields}\r\n" for head in heads],
                               np.stack(shared, axis=-1) if shared else None,
                               np.stack(cells, axis=-1) if cells else None))
    want = [template % values for template, values in _template_blocks(run_ids, template_parts)]
    assert list(sim._run_blocks(run_ids, parts)) == want


def test_first_estimate_block_formats_that_blocks_values_only(monkeypatch):
    data = run_scenario(tiny_scenario(n_steps=23, record_estimates="all"), mc_runs=3)
    formatted = []
    text = sim._text
    monkeypatch.setattr(sim, "_text", lambda values: formatted.append(values.size) or text(values))
    blocks = estimate_blocks(data)
    first = next(blocks)
    # the first method's first block: ten steps of its recorded agents' labels
    lines = sim._METRIC_STEPS * next(iter(data.tracks.values())).est_std[0].size
    assert len(first.splitlines()) == lines
    assert formatted == [2 * lines]
    rest = list(blocks)
    assert len(formatted) == 1 + len(rest)
