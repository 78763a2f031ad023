"""Command line front end: fuse two estimates, run the bound-convergence
comparison, or run the tracking experiment.

Exit codes: 0 success, 2 configuration problem (bad flags, malformed or
inconsistent config/input files), 3 numerical failure (solver or sampler
gave up, matrices lost definiteness mid-computation), 4 I/O failure.
"""
from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import (BlockPartition, ConfigError, CrossSparsityPattern,
                   FusionError, GaussianEstimate, SamplingError, SolverError,
                   as_int, as_name, as_real, as_seed, parsing, partition_from_sparsity)
from .fusion import ci_fuse, exact_fuse, nmci_fuse
from .sdp import robust_fuse
from .metrics import (OMEGA_CSV_COLUMNS, SWEEP_CSV_COLUMNS, TRACK_CSV_COLUMNS,
                      TRUTH_CSV_COLUMNS, conservativeness_sweep, sweep_blocks,
                      write_csv)
from .sim import (ESTIMATE_CSV_COLUMNS, METHODS, ScenarioConfig,
                  estimate_blocks, omega_blocks, run_scenario, summarize,
                  track_blocks, truth_blocks)

COMPARISON_SCHEMA = "cofusion-comparison-v1"

_CONFIG_EXIT = 2
_NUMERIC_EXIT = 3
_IO_EXIT = 4


def _environment() -> dict:
    """The interpreter, numpy and BLAS builds and CPU count a run used."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # an older numpy has no mode="dicts"
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "cpu_count": os.cpu_count()}


@dataclass
class RunManifest:
    """Record of one CLI invocation, written next to its outputs."""

    command: str
    config: str
    seed: int
    version: str = __version__
    started: str = ""
    finished: str = ""
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)    # phase -> wall seconds
    environment: dict = field(default_factory=_environment)

    @contextmanager
    def timed(self, phase: str):
        """Record the wall time of the enclosed block under ``phase``."""
        t0 = time.perf_counter()
        yield
        self.timings[phase] = time.perf_counter() - t0

    def write(self, directory: Path) -> None:
        self.finished = _utc_now()
        _write_json(directory / "manifest.json", asdict(self))


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _make_output_dir(base, name: str) -> Path:
    """Create a fresh timestamped directory; never reuse an existing one.

    Commands call this once their run has succeeded, so a failed command
    leaves no empty directory behind.
    """
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%d-%H%M%S")
    root = Path(base)
    root.mkdir(parents=True, exist_ok=True)
    candidate = root / f"{name}-{stamp}"
    k = 1
    while True:
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            k += 1
            candidate = root / f"{name}-{stamp}-{k}"


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def _resolve_config(name_or_path: str, kind: str) -> tuple[dict, str]:
    """A bare name picks a packaged preset; anything else is a file path."""
    p = Path(name_or_path)
    looks_like_path = (p.suffix == ".json" or "/" in name_or_path
                      or name_or_path.startswith("."))
    if not looks_like_path:
        from importlib import resources

        presets = resources.files("cofusion") / "presets"
        ref = presets / f"{name_or_path}.json"
        if not ref.is_file():
            have = sorted(r.name[:-5] for r in presets.iterdir()
                          if r.name.endswith(".json"))
            raise ConfigError(f"unknown {kind} preset {name_or_path!r}; "
                              f"packaged presets: {have}")
        with resources.as_file(ref) as real:
            return _load_json(real), f"preset:{name_or_path}"
    return _load_json(p), str(p)


def _load_comparison_config(d: dict) -> dict:
    if not isinstance(d, dict):
        raise ConfigError("comparison config must be a mapping")
    if d.get("schema") != COMPARISON_SCHEMA:
        raise ConfigError(f"unsupported comparison schema {d.get('schema')!r}; "
                          f"expected {COMPARISON_SCHEMA!r}")
    required = {"p_a", "p_b", "zero_indices", "n_values", "mc_runs", "seed"}
    optional = {"schema", "name", "solver_tol", "solver_max_iters"}
    missing = required - set(d)
    if missing:
        raise ConfigError(f"comparison config missing keys: {sorted(missing)}")
    unknown = set(d) - required - optional
    if unknown:
        raise ConfigError(f"unknown comparison keys: {sorted(unknown)}")
    with parsing("comparison config"):
        cfg = {"name": as_name(d.get("name", "comparison")),
               "p_a": np.asarray(d["p_a"], dtype=float),
               "p_b": np.asarray(d["p_b"], dtype=float),
               "n_values": [as_int(n, "n_values entry") for n in d["n_values"]],
               "mc_runs": as_int(d["mc_runs"], "mc_runs"),
               "seed": as_seed(d["seed"]),
               "solver_tol": as_real(d.get("solver_tol", 1e-6), "solver_tol"),
               "solver_max_iters": as_int(d.get("solver_max_iters", 200),
                                          "solver_max_iters")}
        if cfg["solver_tol"] <= 0:
            raise ConfigError("solver_tol must be positive")
        if cfg["solver_max_iters"] < 1:
            raise ConfigError("solver_max_iters must be at least 1")
        if cfg["p_a"].ndim != 2 or cfg["p_a"].shape[0] != cfg["p_a"].shape[1]:
            raise ConfigError("p_a must be a square matrix")
        if cfg["p_b"].ndim != 2 or cfg["p_b"].shape[0] != cfg["p_b"].shape[1]:
            raise ConfigError("p_b must be a square matrix")
        zeros = []
        for pair in d["zero_indices"]:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2):
                raise ConfigError("zero_indices entries must be [row, col] pairs")
            zeros.append(tuple(pair))
        cfg["pattern"] = CrossSparsityPattern(cfg["p_a"].shape[0],
                                              cfg["p_b"].shape[0],
                                              frozenset(zeros))
    return cfg


def _load_cross_matrix(path) -> np.ndarray:
    d = _load_json(path)
    if isinstance(d, dict):
        if "matrix" not in d:
            raise ConfigError(f"{path}: cross-covariance object needs a "
                              f"'matrix' key")
        d = d["matrix"]
    with parsing(f"cross-covariance in {path}"):
        arr = np.asarray(d, dtype=float)
    if arr.ndim != 2:
        raise ConfigError(f"{path}: cross-covariance must be a 2-d matrix")
    return arr


# ---------------------------------------------------------------------------
# subcommands

def _cmd_fuse(args) -> int:
    a = GaussianEstimate.load(args.estimate_a)
    b = GaussianEstimate.load(args.estimate_b)
    if args.method == "CI":
        result = ci_fuse(a, b, args.omega)
    elif args.method == "nmCI":
        if args.partition:
            part = BlockPartition.from_dict(_load_json(args.partition))
        elif args.pattern:
            pattern = CrossSparsityPattern.from_dict(_load_json(args.pattern))
            part = partition_from_sparsity(pattern)
        else:
            raise ConfigError("method nmCI needs --partition or --pattern")
        result = nmci_fuse(a, b, part)
    elif args.method == "SDP":
        if not args.pattern:
            raise ConfigError("method SDP needs --pattern")
        pattern = CrossSparsityPattern.from_dict(_load_json(args.pattern))
        result = robust_fuse(a, b, pattern, args.n, args.seed, args.tol)
    else:  # exact
        if not args.cross:
            raise ConfigError("method exact needs --cross")
        result = exact_fuse(a, b, _load_cross_matrix(args.cross))
    payload = json.dumps(result.to_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_compare(args) -> int:
    raw, origin = _resolve_config(args.config, "comparison")
    cfg = _load_comparison_config(raw)
    if args.seed is not None:
        cfg["seed"] = as_seed(args.seed)
    if args.mc is not None:
        cfg["mc_runs"] = args.mc
    if args.n is not None:
        cfg["n_values"] = [args.n]
    manifest = RunManifest(command="compare", config=origin,
                           seed=cfg["seed"], started=_utc_now())
    with manifest.timed("run"):
        stats = conservativeness_sweep(
            cfg["p_a"], cfg["p_b"], cfg["pattern"], cfg["n_values"],
            cfg["mc_runs"], cfg["seed"], solver_tol=cfg["solver_tol"],
            solver_max_iters=cfg["solver_max_iters"], jobs=args.jobs)
    out_dir = _make_output_dir(args.out, cfg["name"])
    with manifest.timed("write"):
        write_csv(out_dir / "sweep.csv", SWEEP_CSV_COLUMNS, sweep_blocks(stats.rows))
        summary = {"name": cfg["name"], "seed": cfg["seed"],
                   "mc_runs": cfg["mc_runs"], "n_values": cfg["n_values"],
                   "deviation": stats.deviation,
                   "conservativeness": stats.conservativeness}
        _write_json(out_dir / "summary.json", summary)
    manifest.outputs = ["sweep.csv", "summary.json"]
    manifest.write(out_dir)
    print(out_dir)
    return 0


def _cmd_track(args) -> int:
    raw, origin = _resolve_config(args.config, "scenario")
    scenario = ScenarioConfig.from_dict(raw)
    methods = None
    if args.method is not None:
        if args.method not in METHODS:
            raise ConfigError(f"unknown method {args.method!r}; "
                              f"choose from {list(METHODS)}")
        methods = (args.method,)
    seed = scenario.seed if args.seed is None else args.seed
    manifest = RunManifest(command="track", config=origin,
                           seed=seed, started=_utc_now())
    with manifest.timed("run"):
        data = run_scenario(scenario, methods=methods, mc_runs=args.mc,
                            seed=args.seed)
    manifest.timings.update(data.timings)
    files = [("track.csv", TRACK_CSV_COLUMNS, track_blocks),
             ("omega.csv", OMEGA_CSV_COLUMNS, omega_blocks),
             ("truth.csv", TRUTH_CSV_COLUMNS, truth_blocks)]
    if any(rec["est_mean"] is not None for r in data.runs for rec in r["methods"].values()):
        files.append(("estimates.csv", ESTIMATE_CSV_COLUMNS, estimate_blocks))
    out_dir = _make_output_dir(args.out, scenario.name)
    with manifest.timed("write"):
        for name, columns, blocks in files:
            write_csv(out_dir / name, columns, blocks(data))
        _write_json(out_dir / "summary.json", summarize(data).summary)
    manifest.outputs = [f[0] for f in files] + ["summary.json"]
    manifest.write(out_dir)
    print(out_dir)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cofusion",
        description="Conservative fusion of Gaussian estimates under "
                    "unknown but structured cross-correlation.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fuse = sub.add_parser("fuse", help="fuse two estimate files once")
    fuse.add_argument("estimate_a", help="JSON file with the first estimate")
    fuse.add_argument("estimate_b", help="JSON file with the second estimate")
    fuse.add_argument("--method", choices=["CI", "nmCI", "SDP", "exact"],
                      default="CI")
    fuse.add_argument("--omega", type=float, default=None,
                      help="fixed CI weight in [0, 1] (default: optimize)")
    fuse.add_argument("--pattern", default=None,
                      help="cross-covariance sparsity pattern JSON")
    fuse.add_argument("--partition", default=None,
                      help="state partition JSON (nmCI; otherwise derived "
                           "from --pattern)")
    fuse.add_argument("--cross", default=None,
                      help="known cross-covariance matrix JSON (exact)")
    fuse.add_argument("--n", type=int, default=200,
                      help="sample budget for the SDP method")
    fuse.add_argument("--seed", type=int, default=0)
    fuse.add_argument("--tol", type=float, default=1e-7,
                      help="solver tolerance for the SDP method")
    fuse.add_argument("--out", default=None,
                      help="write the fusion result here instead of stdout")
    fuse.set_defaults(run=_cmd_fuse)

    compare = sub.add_parser(
        "compare", help="Monte-Carlo bound-convergence comparison")
    compare.add_argument("--config", default="comparison_2d",
                         help="preset name or config file path")
    compare.add_argument("--seed", type=int, default=None)
    compare.add_argument("--mc", type=int, default=None,
                         help="override the number of Monte-Carlo runs")
    compare.add_argument("--n", type=int, default=None,
                         help="run a single sample-set size instead of the "
                              "configured sweep")
    compare.add_argument("--jobs", type=int, default=1,
                         help="dispatch Monte-Carlo runs across this many "
                              "processes")
    compare.add_argument("--out", default="runs",
                         help="parent directory for the output directory")
    compare.set_defaults(run=_cmd_compare)

    track = sub.add_parser(
        "track", help="multi-agent tracking simulation with fusion")
    track.add_argument("--config", default="tracking_desk",
                       help="preset name or scenario file path")
    track.add_argument("--method", default=None,
                       help="run only this estimation method "
                            f"(one of {list(METHODS)})")
    track.add_argument("--mc", type=int, default=None,
                       help="override the number of Monte-Carlo runs")
    track.add_argument("--seed", type=int, default=None)
    track.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: track runs serially, "
                            "stepping all Monte-Carlo runs in lockstep")
    track.add_argument("--out", default="runs",
                       help="parent directory for the output directory")
    track.set_defaults(run=_cmd_track)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "fuse" and args.omega is not None \
            and not 0.0 <= args.omega <= 1.0:
        parser.error("--omega must lie in [0, 1]")
    try:
        return args.run(args)
    except (SolverError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except FusionError as exc:
        # Config, dimension, symmetry, and definiteness complaints all
        # trace back to inputs the user handed us.
        print(f"error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
