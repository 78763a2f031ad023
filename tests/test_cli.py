"""End-to-end command line tests driven through ``cli.main`` in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cofusion import cli, metrics, sdp
from cofusion.core import GaussianEstimate
from cofusion.fusion import exact_fuse
from cofusion.metrics import SWEEP_CSV_COLUMNS, TRACK_CSV_COLUMNS
from cofusion.sim import GroupSpec, ScenarioConfig


@pytest.fixture()
def est_files(tmp_path):
    """The standard demo pair: diagonal marginals with a diagonal-free cross."""
    a = GaussianEstimate([0.0, 0.0], [[3.0, 0.0], [0.0, 1.0]], ("x", "y"))
    b = GaussianEstimate([1.0, 1.0], [[1.0, 0.0], [0.0, 4.0]], ("x", "y"))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.save(pa)
    b.save(pb)
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps(
        {"dim_a": 2, "dim_b": 2, "zero_indices": [[0, 1], [1, 0]]}))
    return pa, pb, pattern


def _run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# fuse

def test_fuse_ci_optimizes_weight(capsys, est_files):
    pa, pb, _ = est_files
    rc, out, _ = _run(capsys, ["fuse", str(pa), str(pb)])
    assert rc == 0
    d = json.loads(out)
    assert d["method"] == "CI"
    assert d["omega"][0] == pytest.approx(0.556349177898, abs=1e-7)
    assert np.trace(d["bound"]) == pytest.approx(3.088232977134, rel=1e-9)


def test_fuse_ci_fixed_weight_one_returns_first_input(capsys, est_files):
    pa, pb, _ = est_files
    rc, out, _ = _run(capsys, ["fuse", str(pa), str(pb), "--omega", "1"])
    assert rc == 0
    d = json.loads(out)
    np.testing.assert_array_equal(d["bound"], [[3.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(d["fused_mean"], [0.0, 0.0])


def test_fuse_omega_outside_unit_interval_is_usage_error(est_files):
    pa, pb, _ = est_files
    with pytest.raises(SystemExit) as exc:
        cli.main(["fuse", str(pa), str(pb), "--omega", "1.5"])
    assert exc.value.code == 2


def test_main_calls_share_one_parser(capsys, est_files, monkeypatch):
    built = []
    build = cli.build_parser

    def spy():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        pa, pb, _ = est_files
        assert _run(capsys, ["fuse", str(pa), str(pb)])[0] == 0
        assert _run(capsys, ["fuse", str(pa), str(pb), "--omega", "1"])[0] == 0
        assert len(built) == 1
        # a shared parser still refuses a weight outside [0, 1]
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuse", str(pa), str(pb), "--omega", "2"])
        assert exc.value.code == 2
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_fuse_nmci_from_pattern(capsys, est_files):
    pa, pb, pattern = est_files
    rc, out, _ = _run(capsys, ["fuse", str(pa), str(pb), "--method", "nmCI",
                               "--pattern", str(pattern)])
    assert rc == 0
    d = json.loads(out)
    np.testing.assert_allclose(d["bound"], np.eye(2), atol=1e-9)
    np.testing.assert_allclose(d["omega"], [0.0, 1.0], atol=1e-6)


def test_fuse_nmci_explicit_partition_matches_pattern(capsys, est_files,
                                                     tmp_path):
    pa, pb, pattern = est_files
    part = tmp_path / "partition.json"
    part.write_text(json.dumps({"blocks": [[0], [1]]}))
    rc1, out1, _ = _run(capsys, ["fuse", str(pa), str(pb), "--method", "nmCI",
                                 "--partition", str(part)])
    rc2, out2, _ = _run(capsys, ["fuse", str(pa), str(pb), "--method", "nmCI",
                                 "--pattern", str(pattern)])
    assert rc1 == rc2 == 0
    assert json.loads(out1)["bound"] == json.loads(out2)["bound"]


def test_fuse_nmci_without_structure_is_config_error(capsys, est_files):
    pa, pb, _ = est_files
    rc, _, err = _run(capsys, ["fuse", str(pa), str(pb), "--method", "nmCI"])
    assert rc == 2
    assert "--partition or --pattern" in err


def test_fuse_sdp_deterministic_outputs(est_files, tmp_path, capsys):
    pa, pb, pattern = est_files
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = cli.main(["fuse", str(pa), str(pb), "--method", "SDP",
                       "--pattern", str(pattern), "--n", "50", "--seed", "7",
                       "--tol", "1e-6", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    d = json.loads(outs[0])
    np.testing.assert_allclose(np.add(d["gain_a"], d["gain_b"]), np.eye(2),
                               atol=1e-9)
    assert d["diagnostics"]["status"] == "optimal"


def _no_sampling(*args, **kwargs):
    raise AssertionError("the sampler ran")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_fuse_sdp_rejects_bad_tol_before_sampling(capsys, est_files, monkeypatch, tol):
    monkeypatch.setattr(sdp, "sample_set", _no_sampling)
    pa, pb, pattern = est_files
    rc, out, err = _run(capsys, ["fuse", str(pa), str(pb), "--method", "SDP",
                                 "--pattern", str(pattern), "--tol", tol])
    assert rc == 2
    assert "error:" in err and "tol" in err
    assert out == ""


def test_fuse_sdp_rejects_negative_seed_before_sampling(capsys, est_files):
    pa, pb, pattern = est_files
    rc, out, err = _run(capsys, ["fuse", str(pa), str(pb), "--method", "SDP",
                                 "--pattern", str(pattern), "--seed", "-1"])
    assert rc == 2
    assert "error:" in err and "seed" in err
    assert out == ""


def test_fuse_sdp_on_a_marginal_below_the_sampling_margin_exits_3(capsys, est_files,
                                                                  tmp_path):
    # a valid covariance whose correlation's smallest eigenvalue is 1e-10,
    # so no cross-covariance clears the sampler's margin
    _, pb, pattern = est_files
    near = tmp_path / "near.json"
    GaussianEstimate([0.0, 0.0], [[1.0, 1.0 - 1e-10], [1.0 - 1e-10, 1.0]],
                     ("x", "y")).save(near)
    rc, out, err = _run(capsys, ["fuse", str(near), str(pb), "--method", "SDP",
                                 "--pattern", str(pattern)])
    assert rc == 3
    assert "error:" in err and "p_a" in err
    assert out == ""


def test_fuse_exact_uses_supplied_cross(capsys, est_files, tmp_path):
    pa, pb, _ = est_files
    cross = tmp_path / "cross.json"
    cross.write_text(json.dumps({"matrix": [[0.5, 0.0], [0.0, -0.3]]}))
    rc, out, _ = _run(capsys, ["fuse", str(pa), str(pb), "--method", "exact",
                               "--cross", str(cross)])
    assert rc == 0
    a = GaussianEstimate.load(pa)
    b = GaussianEstimate.load(pb)
    want = exact_fuse(a, b, np.array([[0.5, 0.0], [0.0, -0.3]]))
    np.testing.assert_allclose(json.loads(out)["bound"], want.bound,
                               rtol=1e-12)


def test_fuse_exact_without_cross_is_config_error(capsys, est_files):
    pa, pb, _ = est_files
    rc, _, err = _run(capsys, ["fuse", str(pa), str(pb), "--method", "exact"])
    assert rc == 2
    assert "--cross" in err


def test_fuse_missing_estimate_file_is_io_error(capsys, est_files, tmp_path):
    pa, _, _ = est_files
    rc, _, err = _run(capsys, ["fuse", str(pa), str(tmp_path / "nope.json")])
    assert rc == 4
    assert "error:" in err


def test_fuse_unparseable_estimate_is_config_error(capsys, est_files,
                                                   tmp_path):
    pa, _, _ = est_files
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc, _, err = _run(capsys, ["fuse", str(pa), str(bad)])
    assert rc == 2
    assert "not valid JSON" in err


def _assert_timings_and_environment(manifest, parts=()):
    # keys only: the values depend on the machine; parts split the run
    timings = manifest["timings"]
    assert set(timings) == {"run", "write", *parts}
    assert sum(timings[p] for p in parts) <= timings["run"]
    assert set(manifest["environment"]) == {"python", "numpy", "blas", "cpu_count"}
    assert set(manifest["environment"]["blas"]) == {"name", "version"}


# ---------------------------------------------------------------------------
# compare

def _comparison_config(tmp_path, **overrides):
    cfg = {"schema": "cofusion-comparison-v1", "name": "mini",
           "p_a": [[3.0, 0.0], [0.0, 1.0]], "p_b": [[1.0, 0.0], [0.0, 4.0]],
           "zero_indices": [[0, 1], [1, 0]], "n_values": [5],
           "mc_runs": 2, "seed": 1}
    cfg.update(overrides)
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(cfg))
    return path


def test_compare_writes_sweep_summary_manifest(capsys, tmp_path):
    cfg = _comparison_config(tmp_path)
    rc, out, _ = _run(capsys, ["compare", "--config", str(cfg),
                               "--out", str(tmp_path / "runs")])
    assert rc == 0
    out_dir = tmp_path / "runs" / out.strip().rsplit("/", 1)[-1]
    assert out_dir.is_dir()
    header = (out_dir / "sweep.csv").read_text().splitlines()[0]
    assert header == ",".join(SWEEP_CSV_COLUMNS)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["name"] == "mini" and summary["n_values"] == [5]
    assert "deviation" in summary and "conservativeness" in summary
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["config"] == str(cfg)
    assert set(manifest["outputs"]) == {"sweep.csv", "summary.json"}
    assert "work" not in manifest
    for key in ("seed", "version", "started", "finished"):
        assert manifest[key] not in (None, "")
    _assert_timings_and_environment(manifest, parts=COMPARE_PHASES)


COMPARE_PHASES = ("sample", "build", "solve", "check")


def test_compare_manifest_times_the_stages_of_the_sweep(capsys, tmp_path):
    # the sweep's stages (drawing and building every run, one batched solve,
    # the checks) next to ``run`` and ``write``; keys only, never the values.
    # --jobs is accepted and changes nothing
    cfg = _comparison_config(tmp_path, n_values=[3, 6])
    rc, out, _ = _run(capsys, ["compare", "--config", str(cfg), "--jobs", "2",
                               "--out", str(tmp_path / "runs")])
    assert rc == 0
    manifest = json.loads(Path(out.strip(), "manifest.json").read_text())
    assert set(manifest["timings"]) == {"run", "write", *COMPARE_PHASES}


def test_compare_overrides_and_preset(capsys, tmp_path):
    rc, out, _ = _run(capsys, ["compare", "--mc", "1", "--n", "5",
                               "--seed", "3", "--out", str(tmp_path / "runs")])
    assert rc == 0
    out_dir = tmp_path / "runs" / out.strip().rsplit("/", 1)[-1]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["mc_runs"] == 1 and summary["n_values"] == [5]
    assert summary["seed"] == 3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"] == "preset:comparison_2d"


def test_compare_unknown_preset_lists_packaged_names(capsys, tmp_path):
    rc, _, err = _run(capsys, ["compare", "--config", "nope",
                               "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert "comparison_2d" in err and "tracking_desk" in err


def test_compare_rejects_unknown_config_keys(capsys, tmp_path):
    cfg = _comparison_config(tmp_path, extra=1)
    rc, _, err = _run(capsys, ["compare", "--config", str(cfg),
                               "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert "unknown comparison keys" in err


@pytest.mark.parametrize("key, value", [
    ("solver_tol", 0), ("solver_tol", -1e-6), ("solver_tol", float("nan")),
    ("solver_max_iters", 0),
])
def test_compare_rejects_bad_solver_settings_before_running(capsys, tmp_path,
                                                            monkeypatch, key, value):
    monkeypatch.setattr(metrics, "sample_set", _no_sampling)
    monkeypatch.setattr(metrics, "nmci_fuse", _no_sampling)
    cfg = _comparison_config(tmp_path, **{key: value})
    rc, _, err = _run(capsys, ["compare", "--config", str(cfg),
                               "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert "error:" in err and key in err
    assert not (tmp_path / "runs").exists()


# ---------------------------------------------------------------------------
# track

def _scenario_file(tmp_path, **overrides):
    base = dict(name="mini", seed=5, n_steps=4, mc_runs=1,
                groups=(GroupSpec((0, 1), (0, 1)),), edges=((0, 1),),
                methods=("centralized", "CI"))
    base.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ScenarioConfig(**base).to_dict()))
    return path


def test_track_custom_scenario_outputs(capsys, tmp_path):
    scn = _scenario_file(tmp_path)
    rc, out, _ = _run(capsys, ["track", "--config", str(scn),
                               "--out", str(tmp_path / "runs")])
    assert rc == 0
    out_dir = tmp_path / "runs" / out.strip().rsplit("/", 1)[-1]
    for name in ("track.csv", "omega.csv", "truth.csv", "estimates.csv",
                 "summary.json", "manifest.json"):
        assert (out_dir / name).is_file()
    lines = (out_dir / "track.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACK_CSV_COLUMNS)
    assert len(lines) == 1 + 4 * (1 + 2)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["state_dim"] == 12 and summary["steps"] == 4
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "track" and manifest["seed"] == 5
    _assert_timings_and_environment(manifest, parts=("draw", "filter", "fuse", "metrics"))


def test_track_method_none_skips_fusion_records(capsys, tmp_path):
    scn = _scenario_file(tmp_path)
    # --jobs is accepted and ignored: the runs step in lockstep
    rc, out, _ = _run(capsys, ["track", "--config", str(scn),
                               "--method", "none", "--jobs", "2",
                               "--out", str(tmp_path / "runs")])
    assert rc == 0
    out_dir = tmp_path / "runs" / out.strip().rsplit("/", 1)[-1]
    omega_lines = (out_dir / "omega.csv").read_text().splitlines()
    assert len(omega_lines) == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert list(summary["methods"]) == ["none"]


def test_track_manifest_records_what_each_method_computed(capsys, tmp_path):
    scn = _scenario_file(tmp_path, methods=("centralized", "CI", "nmCI", "none"))
    rc, out, _ = _run(capsys, ["track", "--config", str(scn),
                               "--out", str(tmp_path / "runs")])
    assert rc == 0
    out_dir = tmp_path / "runs" / out.strip().rsplit("/", 1)[-1]
    work = json.loads((out_dir / "manifest.json").read_text())["work"]
    assert list(work) == ["centralized", "CI", "nmCI", "none"]
    for method, parts in work.items():
        assert set(parts) == {"filter_blocks", "intersections"}
        for counts in parts.values():
            assert set(counts) == {"computed", "entries"}
            assert 0 <= counts["computed"] <= counts["entries"]
        assert (parts["intersections"]["entries"] > 0) is (method in ("CI", "nmCI"))


def test_track_suppressed_estimates_stay_out_of_manifest(capsys, tmp_path):
    scn = _scenario_file(tmp_path, record_estimates="none")
    rc, out, _ = _run(capsys, ["track", "--config", str(scn),
                               "--out", str(tmp_path / "runs")])
    assert rc == 0
    out_dir = tmp_path / "runs" / out.strip().rsplit("/", 1)[-1]
    assert not (out_dir / "estimates.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "estimates.csv" not in manifest["outputs"]


def test_track_filter_that_loses_definiteness_is_exit_2(capsys, tmp_path):
    # landmark noise of 1e-14 I leaves a filter covariance all but singular
    # within four steps: a misconfigured scenario, so a config error
    cfg = json.loads((Path(cli.__file__).parent / "presets" / "tracking_desk.json").read_text())
    cfg.update(n_steps=4, mc_runs=1, r_landmark=[[1e-14, 0.0], [0.0, 1e-14]])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    rc, _, err = _run(capsys, ["track", "--config", str(path), "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert "covariance is not positive definite" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("method", ["bogus", "SDP"])
def test_track_unknown_method_is_config_error(capsys, tmp_path, method):
    scn = _scenario_file(tmp_path)
    rc, _, err = _run(capsys, ["track", "--config", str(scn),
                               "--method", method,
                               "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert "unknown method" in err


def test_track_preset_with_overrides(capsys, tmp_path):
    rc, out, _ = _run(capsys, ["track", "--config", "tracking_desk",
                               "--method", "CI", "--mc", "1",
                               "--out", str(tmp_path / "runs")])
    assert rc == 0
    out_dir = tmp_path / "runs" / out.strip().rsplit("/", 1)[-1]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["state_dim"] == 24 and summary["mc_runs"] == 1
    assert list(summary["methods"]) == ["CI"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"] == "preset:tracking_desk"


def test_repeated_runs_never_reuse_an_output_directory(capsys, tmp_path):
    scn = _scenario_file(tmp_path)
    dirs = []
    for _ in range(2):
        rc, out, _ = _run(capsys, ["track", "--config", str(scn),
                                   "--out", str(tmp_path / "runs")])
        assert rc == 0
        dirs.append(out.strip())
    assert dirs[0] != dirs[1]


# ---------------------------------------------------------------------------
# malformed inputs and failed runs

def _malformed_argv(tmp_path, kind, key, value):
    """argv of a command reading a ``kind`` file whose ``key`` is set to ``value``.

    A ``key`` of None keeps the file's content and saves it as ``value``,
    the name of an encoding.
    """
    a = tmp_path / "a.json"
    GaussianEstimate([0.0, 0.0], np.eye(2)).save(a)
    runs = ["--out", str(tmp_path / "runs")]
    if kind == "scenario":
        path = _scenario_file(tmp_path)
        argv = ["track", "--config", str(path), *runs]
    elif kind == "comparison":
        path = _comparison_config(tmp_path)
        argv = ["compare", "--config", str(path), *runs]
    elif kind == "estimate":
        path = tmp_path / "b.json"
        GaussianEstimate([0.0, 0.0], np.eye(2)).save(path)
        # fused with itself, so a field is only ever wrong in its own right
        argv = ["fuse", str(path), str(path)]
    else:
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"partition": {"blocks": [[0], [1]]},
                                    "pattern": {"dim_a": 2, "dim_b": 2},
                                    "cross": {"matrix": [[0.0, 0.0], [0.0, 0.0]]}}[kind]))
        structure = {"partition": ["--method", "nmCI", "--partition"],
                     "pattern": ["--method", "nmCI", "--pattern"],
                     "cross": ["--method", "exact", "--cross"]}[kind]
        argv = ["fuse", str(a), str(a), *structure, str(path)]
    d = json.loads(path.read_text())
    if key is None:
        path.write_bytes(json.dumps(d).encode(value))
    else:
        d[key] = value
        path.write_text(json.dumps(d))
    return argv


@pytest.mark.parametrize("kind, key, value", [
    ("scenario", "groups", 5),
    ("scenario", "edges", [[0]]),
    ("scenario", "r_target", "x"),
    ("scenario", "assignments", [0, 1, 2, 3]),
    ("scenario", "report_agent", "a"),
    ("comparison", "mc_runs", "a"),
    ("comparison", "p_a", "x"),
    ("comparison", "zero_indices", 3),
    ("comparison", "n_values", 5),
    ("estimate", "mean", ["x", 0]),
    ("estimate", "covariance", [[1.0, 0.0], [0.0]]),
    ("partition", "blocks", 3),
    ("pattern", "zero_indices", [[0]]),
    ("cross", "matrix", [[0.0, 0.0], [0.0]]),
    # a non-integer count, seed or iteration budget is an error, not truncated
    ("comparison", "n_values", [10.5, 50]),
    ("comparison", "mc_runs", 2.7),
    ("comparison", "seed", 7.9),
    ("comparison", "solver_max_iters", 150.5),
    ("comparison", "zero_indices", [[0, 1.5]]),
    ("scenario", "n_steps", 2.5),
    ("scenario", "mc_runs", 1.5),
    ("scenario", "seed", "abc"),
    ("scenario", "seed", 1.5),
    ("scenario", "fusion_every", 1.5),
    ("scenario", "report_agent", 0.5),
    ("scenario", "bias_range", float("nan")),
    ("scenario", "init_position_spread", -1),
    ("scenario", "init_velocity_std", -1),
    ("scenario", "dt", 1e300),
    ("partition", "blocks", [[0], [1.7]]),
    ("partition", "blocks", [[0], [True]]),
    ("pattern", "dim_a", 2.9),
    ("pattern", "zero_indices", [[0, 1.5]]),
    # substream seeds wrap modulo 2**64, so -1 would run seed 2**64 - 1
    ("scenario", "seed", -1),
    ("comparison", "seed", -1),
    # a bool or a string is not a real, though float() would take both
    ("comparison", "solver_tol", True),
    ("comparison", "solver_tol", "1e-6"),
    # an int beyond the float range is not a finite number either
    pytest.param("scenario", "dt", 10 ** 400, id="scenario-dt-10**400"),
    pytest.param("comparison", "solver_tol", 10 ** 400, id="comparison-solver_tol-10**400"),
    # the output directory is named after the run, so a name must be one
    # directory entry: no path separator, not . or .., and a string
    ("scenario", "name", "sub/dir"),
    ("scenario", "name", "../escaped"),
    ("scenario", "name", "back\\slash"),
    ("scenario", "name", ".."),
    ("scenario", "name", ""),
    ("scenario", "name", 7),
    ("comparison", "name", "sub/dir"),
    ("comparison", "name", "../escaped"),
    ("comparison", "name", "."),
    ("comparison", "name", ["x"]),
    # labels are a list of strings; a string is not split into letters
    ("estimate", "labels", "xy"),
    ("estimate", "labels", [1, 2]),
    # inputs are UTF-8; a file a Windows editor saved as UTF-16 is not JSON
    *(pytest.param(kind, None, "utf-16", id=f"{kind}-utf-16")
      for kind in ("estimate", "partition", "pattern", "cross", "comparison", "scenario")),
])
def test_malformed_input_files_are_config_errors(capsys, tmp_path, kind, key, value):
    argv = _malformed_argv(tmp_path, kind, key, value)
    rc, _, err = _run(capsys, argv)
    assert rc == 2
    assert "error:" in err
    if key is None:
        path = argv[2] if kind in ("scenario", "comparison") else argv[-1]
        assert err.startswith(f"error: {path}: not valid JSON ('utf-8' codec can't decode")


@pytest.mark.parametrize("argv", [["track", "--mc", "0"], ["compare", "--n", "0"],
                                  ["compare", "--mc", "0"], ["compare", "--jobs", "0"],
                                  ["compare", "--jobs", "-2"], ["track", "--seed", "-1"],
                                  ["compare", "--seed", "-1"],
                                  # 2**64 would run the streams of seed 0
                                  ["track", "--seed", "18446744073709551616"],
                                  ["compare", "--seed", "18446744073709551616"],
                                  # a config file whose run name is a path
                                  ("scenario", "name", "sub/dir"),
                                  ("scenario", "name", "../escaped"),
                                  ("comparison", "name", "sub/dir"),
                                  ("comparison", "name", "../escaped"),
                                  ["track", "--jobs", "0"], ["track", "--jobs", "-3"],
                                  # an input that is not UTF-8
                                  ("scenario", None, "utf-16"),
                                  ("comparison", None, "utf-16")])
def test_failed_command_leaves_no_output_directory(capsys, tmp_path, argv):
    if isinstance(argv, tuple):
        argv = _malformed_argv(tmp_path, *argv)
    out = tmp_path / "runs"
    out.mkdir()
    before = set(tmp_path.iterdir())
    rc, _, err = _run(capsys, argv + ["--out", str(out)])
    assert rc == 2
    assert "error:" in err
    assert list(out.iterdir()) == []
    assert set(tmp_path.iterdir()) == before


def test_python_dash_m_runs_the_command_line():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "cofusion", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: cofusion")


def test_importing_the_command_line_loads_only_stdlib_and_numpy():
    # the runtime is numpy-only; modules loaded before the import (a site
    # hook may preload packages) do not count
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import cofusion.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"cofusion", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"cofusion", "numpy"} == set()
