"""Span recording around the calls into each package module.

Wrappers go on the name each caller looks up: the package binds names at
import with ``from .x import y``, so wrapping ``cofusion.fusion.ci_fuse``
alone would miss calls made through ``cofusion.sim.ci_fuse``.  Every
wrapper records one span (name, start, end, parent) into memory; counts
that the span's return value carries (Newton steps, solver status,
sampler attempts, redraws, CSV rows) are added where the call returns.
Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module, attribute, span name); module "cli" means cofusion.cli, etc.
WRAPPED = [
    ("cli", "run_scenario", "sim.run_scenario"),
    ("cli", "summarize", "sim.summarize"),
    ("cli", "conservativeness_sweep", "metrics.conservativeness_sweep"),
    ("cli", "write_csv", "metrics.write_csv"),
    ("cli", "ci_fuse", "fusion.ci_fuse"),
    ("cli", "nmci_fuse", "fusion.nmci_fuse"),
    ("cli", "exact_fuse", "fusion.exact_fuse"),
    ("cli", "robust_fuse", "sdp.robust_fuse"),
    ("sim", "simulate_run", "sim.simulate_run"),
    ("sim", "local_filter_step", "sim.local_filter_step"),
    ("sim", "fusion_round", "sim.fusion_round"),
    ("sim", "ci_fuse", "fusion.ci_fuse"),
    ("sim", "nmci_fuse", "fusion.nmci_fuse"),
    ("sim", "robust_fuse", "sdp.robust_fuse"),
    ("sim", "summarize", "sim.summarize"),
    ("fusion", "ci_fuse", "fusion.ci_fuse"),
    ("fusion", "optimize_ci_omega", "fusion.optimize_ci_omega"),
    ("fusion", "check_spd", "core.check_spd"),
    ("metrics", "nees", "metrics.nees"),
    ("metrics", "nmci_fuse", "fusion.nmci_fuse"),
    ("metrics", "sample_set", "sampler.sample_set"),
    ("metrics", "sample_cross", "sampler.sample_cross"),
    ("metrics", "build_problem", "sdp.build_problem"),
    ("metrics", "solve", "sdp.solve"),
    ("metrics", "write_csv", "metrics.write_csv"),
    ("sdp", "sample_set", "sampler.sample_set"),
    ("sdp", "sample_cross", "sampler.sample_cross"),
    ("sdp", "build_problem", "sdp.build_problem"),
    ("sdp", "solve", "sdp.solve"),
    ("sdp", "check_spd", "core.check_spd"),
    ("core", "check_spd", "core.check_spd"),
]
# (class in cofusion.core, method, span name)
WRAPPED_METHODS = [
    ("GaussianEstimate", "__post_init__", "core.GaussianEstimate"),
    ("FusionResult", "__post_init__", "core.FusionResult"),
]


class Tracer:
    """In-memory spans of one traced pass, plus counts from return values."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result
        return wrapper

    def open(self, name: str) -> list:
        """Start a span around code that is not a function of the package."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()


def _observe_samples(tr: Tracer, samples) -> None:
    if not isinstance(samples, list):
        samples = [samples]
    tr.add("sampler.draws", len(samples))
    tr.add("sampler.attempts", sum(s.attempts for s in samples))


def _observe_solution(tr: Tracer, sol) -> None:
    tr.add("sdp.newton_steps", sol.newton_iterations)
    tr.add("sdp.not_optimal", int(sol.status.value != "optimal"))


def _observe_robust(tr: Tracer, res) -> None:
    tr.add("sdp.redraws", res.diagnostics.get("redraws", 0))


OBSERVERS = {"sampler.sample_set": _observe_samples,
             "sampler.sample_cross": _observe_samples,
             "sdp.solve": _observe_solution,
             "sdp.robust_fuse": _observe_robust}


def _counting_rows(tr: Tracer, rows):
    for row in rows:
        tr.add("metrics.write_csv_rows", 1)
        yield row


def install(tracer: Tracer, cofusion) -> callable:
    """Put wrappers on every traced name; returns the function that undoes it."""
    saved = []
    for mod_name, attr, span in WRAPPED:
        mod = getattr(cofusion, mod_name)
        orig = getattr(mod, attr)
        if span == "metrics.write_csv":
            def counted(path, columns, rows, _orig=orig):
                return _orig(path, columns, _counting_rows(tracer, rows))
            wrapper = tracer.wrap(span, functools.wraps(orig)(counted))
        else:
            wrapper = tracer.wrap(span, orig, OBSERVERS.get(span))
        saved.append((mod, attr, orig))
        setattr(mod, attr, wrapper)
    for cls_name, attr, span in WRAPPED_METHODS:
        cls = getattr(cofusion.core, cls_name)
        orig = cls.__dict__[attr]
        saved.append((cls, attr, orig))
        setattr(cls, attr, tracer.wrap(span, orig))

    def uninstall():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    return uninstall


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass.

    ``total`` is the summed duration of a span name, not counting spans
    nested inside a span of the same name; ``self`` subtracts the time
    covered by direct child spans (children never overlap: one thread).
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + dur

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def s(name):
        return own.get(name, 0.0)

    c = tracer.counts
    draws, attempts = c.get("sampler.draws", 0), c.get("sampler.attempts", 0)
    solves, steps = n("sdp.solve"), c.get("sdp.newton_steps", 0)
    searches = n("fusion.optimize_ci_omega")
    return {
        "sim.simulate_run_calls": n("sim.simulate_run"),
        "sim.simulate_self_s": s("sim.simulate_run"),
        "sim.filter_step_calls": n("sim.local_filter_step"),
        "sim.filter_step_s": t("sim.local_filter_step"),
        "sim.fusion_round_calls": n("sim.fusion_round"),
        "sim.fusion_round_self_s": s("sim.fusion_round"),
        "sim.summarize_s": t("sim.summarize"),
        "fusion.omega_search_calls": searches,
        "fusion.omega_search_s": t("fusion.optimize_ci_omega"),
        "fusion.omega_search_mean_ms": (1e3 * t("fusion.optimize_ci_omega") / searches
                                        if searches else 0.0),
        "fusion.ci_calls": n("fusion.ci_fuse"),
        "fusion.ci_self_s": s("fusion.ci_fuse"),
        "fusion.nmci_calls": n("fusion.nmci_fuse"),
        "fusion.nmci_self_s": s("fusion.nmci_fuse"),
        "core.estimate_constructs": n("core.GaussianEstimate"),
        "core.estimate_construct_s": t("core.GaussianEstimate"),
        "core.spd_checks": n("core.check_spd"),
        "core.spd_check_s": t("core.check_spd"),
        "core.result_constructs": n("core.FusionResult"),
        "sampler.draws": draws,
        "sampler.attempts": attempts,
        "sampler.attempts_per_draw": attempts / draws if draws else 0.0,
        "sampler.s": t("sampler.sample_set") + t("sampler.sample_cross"),
        "sdp.solve_calls": solves,
        "sdp.solve_s": t("sdp.solve"),
        "sdp.newton_steps": steps,
        "sdp.newton_steps_per_solve": steps / solves if solves else 0.0,
        "sdp.ms_per_newton_step": 1e3 * t("sdp.solve") / steps if steps else 0.0,
        "sdp.not_optimal": c.get("sdp.not_optimal", 0),
        "sdp.build_calls": n("sdp.build_problem"),
        "sdp.build_s": t("sdp.build_problem"),
        "sdp.redraws": c.get("sdp.redraws", 0),
        "metrics.nees_calls": n("metrics.nees"),
        "metrics.nees_s": t("metrics.nees"),
        "metrics.write_csv_s": t("metrics.write_csv"),
        "metrics.write_csv_rows": c.get("metrics.write_csv_rows", 0),
        "metrics.sweep_self_s": s("metrics.conservativeness_sweep"),
        "cli.self_s": s("cli.main"),
    }
