"""The benchmark's own tests: every correctness check fires on a
deliberately corrupted output, BENCHMARK.json matches what run.py
prints, and the speed probe samples while work runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import signal
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import run

cofusion = run.import_package()

import checks  # noqa: E402  (needs numpy from the environment run.py set up)
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cli(argv) -> str:
    """Run the CLI; returns the output directory it prints, if any."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cofusion.cli.main(argv) == 0
    return buf.getvalue().strip()


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=[f for f in fields if f in rows[0]])
        w.writeheader()
        w.writerows(rows)


@pytest.fixture(scope="module")
def track_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("track")
    out = Path(_cli(["track", "--config", "tracking_desk", "--mc", "1",
                     "--seed", "3", "--out", str(tmp)]))
    scn = json.loads((workloads.PRESETS / "tracking_desk.json").read_text())
    scn["mc_runs"] = 1
    expect, _ = workloads._track_expect(scn)
    return out, expect, json.loads((out / "summary.json").read_text())


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    out = Path(_cli(["compare", "--mc", "1", "--seed", "3", "--out", str(tmp)]))
    return out, checks.read_csv(out / "sweep.csv")


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_track_check_passes_on_real_output(track_run):
    out, expect, ref = track_run
    assert checks.check_track(out, expect, ref) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: _rewrite_csv(d / "track.csv", lambda r: r[:-1]), "rows"),
    (lambda d: _rewrite_csv(d / "estimates.csv",
                            lambda r: [{**r[0], "std": "nan"}] + r[1:]), "std"),
    (lambda d: (d / "omega.csv").unlink(), "missing"),
])
def test_track_check_fires_on_corrupt_csv(track_run, tmp_path, corrupt, message):
    out, expect, ref = track_run
    bad = _copy(out, tmp_path / "bad")
    corrupt(bad)
    problems = checks.check_track(bad, expect, ref)
    assert problems and any(message in p for p in problems)


def test_track_check_fires_on_summary_drift(track_run, tmp_path):
    out, expect, ref = track_run
    bad = _copy(out, tmp_path / "bad")
    summary = json.loads((bad / "summary.json").read_text())
    summary["methods"]["nmCI"]["cov_trace_steady"] *= 1.0 + 1e-4
    (bad / "summary.json").write_text(json.dumps(summary))
    assert any("cov_trace_steady" in p for p in checks.check_track(bad, expect, ref))


def test_sweep_check_passes_on_real_output(sweep_run):
    out, ref = sweep_run
    assert checks.check_sweep(out, len(ref), ref, 1e-6) == []


@pytest.mark.parametrize("edit, message", [
    (lambda r: [{k: v for k, v in row.items() if k != "solver_gap"} for row in r],
     "solver_gap"),
    (lambda r: [{**r[0], "solver_status": "max_iterations"}] + r[1:], "solver_status"),
    (lambda r: [{**r[0], "solver_status": ""}] + r[1:], "empty solver status"),
    (lambda r: [{**r[0], "bound_trace": str(float(r[0]["bound_trace"]) * 1.001)}] + r[1:],
     "differs from the reference"),
])
def test_sweep_check_fires_on_corrupt_csv(sweep_run, tmp_path, edit, message):
    out, ref = sweep_run
    bad = _copy(out, tmp_path / "bad")
    _rewrite_csv(bad / "sweep.csv", edit)
    problems = checks.check_sweep(bad, len(ref), ref, 1e-6)
    assert problems and any(message in p for p in problems)


def test_sweep_check_fires_when_deviation_grows_with_n(sweep_run, tmp_path):
    out, ref = sweep_run
    bad = _copy(out, tmp_path / "bad")
    summary = json.loads((bad / "summary.json").read_text())
    summary["deviation"]["median"][-1] = summary["deviation"]["median"][0] + 1e-3
    (bad / "summary.json").write_text(json.dumps(summary))
    assert any("rises" in p for p in checks.check_sweep(bad, len(ref), ref, 1e-6))


@pytest.fixture(scope="module")
def fused(tmp_path_factory):
    """CI and exact results on the first fuse-mix case of seed 0."""
    tmp = tmp_path_factory.mktemp("fuse")
    plan = workloads.prepare("fuse-mix", 0, tmp)
    case = workloads.fuse_cases(0)[0][0]
    dense = {"p_a": case["p_a"], "p_b": case["p_b"], "cross": case["cross"]}
    results = {}
    for op in plan.ops[:4:2]:          # the CI and exact calls of case 0
        _cli(op.argv)
        out = Path(op.argv[op.argv.index("--out") + 1])
        results[op.argv[op.argv.index("--method") + 1]] = json.loads(out.read_text())
    return dense, results


def test_fusion_check_passes_on_real_output(fused):
    dense, res = fused
    assert checks.check_fusion(res["CI"], {**dense, "rule": "dominate"}) == []
    assert checks.check_fusion(res["exact"], {**dense, "rule": "match"}) == []


def _edit(res, key, fn):
    out = json.loads(json.dumps(res))
    out[key] = fn(np.asarray(out[key])).tolist()
    if key == "bound":
        out["diagnostics"]["trace"] = float(np.trace(out[key]))
    return out


@pytest.mark.parametrize("method, rule, key, fn, message", [
    ("CI", "dominate", "gain_b", lambda g: g + 1e-3, "gain_a + gain_b"),
    ("CI", "dominate", "bound", lambda b: b + np.triu(np.full_like(b, 1e-3), 1),
     "symmetric"),
    ("CI", "dominate", "bound", lambda b: b - 0.99 * np.linalg.eigvalsh(b)[-1] * np.eye(3),
     "positive definite"),
    ("exact", "match", "bound", lambda b: 1.01 * b, "realized"),
])
def test_fusion_check_fires(fused, method, rule, key, fn, message):
    dense, res = fused
    problems = checks.check_fusion(_edit(res[method], key, fn), {**dense, "rule": rule})
    assert problems and any(message in p for p in problems)


def test_fusion_check_fires_when_bound_misses_realized(fused):
    dense, res = fused
    real = checks.realized(np.asarray(res["CI"]["gain_a"]), np.asarray(res["CI"]["gain_b"]),
                           dense["p_a"], dense["p_b"], dense["cross"])
    bad = _edit(res["CI"], "bound", lambda b: 0.9 * real)
    problems = checks.check_fusion(bad, {**dense, "rule": "dominate"})
    assert any("dominate" in p for p in problems)


def test_fusion_check_fires_on_wrong_trace(fused):
    dense, res = fused
    bad = json.loads(json.dumps(res["CI"]))
    bad["diagnostics"]["trace"] *= 0.9
    assert any("trace" in p for p in checks.check_fusion(bad, {**dense, "rule": "dominate"}))


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END
    layer = set(tracing.layer_metrics(tracing.Tracer())) | {
        "metrics.output_bytes", "trace.overhead_s", "failed_op_fraction"}
    assert {m["name"] for m in spec["per_layer"]} == layer


def test_speed_probe_samples_while_work_runs_and_restores_the_handler():
    old = signal.getsignal(signal.SIGALRM)
    probe = speed.numpy_probe()
    with probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.35:
            pass
    assert len(probe.samples) >= 2
    assert 0.0 < probe.busy < 0.35
    assert signal.getsignal(signal.SIGALRM) is old
    assert probe.scale() == pytest.approx(
        speed.NUMPY_REF_S * len(probe.samples) / sum(probe.samples))
