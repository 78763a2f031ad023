"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` puts its wrappers on package attributes by name,
so deleting or renaming one breaks a traced benchmark run.  These tests
make the same lookups, so such a change fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

import cofusion
import cofusion.cli  # noqa: F401  (binds cofusion.cli and cofusion.sim)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr, span", tracing.WRAPPED)
def test_wrapped_function_names_resolve(module, attr, span):
    owner = getattr(cofusion, module)
    assert callable(getattr(owner, attr, None)), f"cofusion.{module}.{attr} ({span})"


@pytest.mark.parametrize("cls, attr, span", tracing.WRAPPED_METHODS)
def test_wrapped_methods_are_defined_on_their_class(cls, attr, span):
    assert attr in vars(getattr(cofusion.core, cls)), f"cofusion.core.{cls}.{attr} ({span})"


def test_one_public_solve_is_one_traced_solve_whatever_its_rounds(monkeypatch):
    # the tracer counts sdp.solve_calls and newton_steps_per_solve through
    # the module attribute ``sdp.solve``; active-set rounds must not enter it
    import numpy as np

    from cofusion import sdp
    from cofusion.core import CrossSparsityPattern
    from cofusion.sampler import sample_set

    pa, pb = np.diag([3.0, 1.0]), np.diag([1.0, 4.0])
    draws = sample_set(pa, pb, CrossSparsityPattern.unconstrained(2, 2), 600, seed=7)
    problem = sdp.build_problem(pa, pb, [s.p_ab for s in draws])
    assert problem.n > sdp.ACTIVE_FACTOR * 7
    rounds, asked = [], {}    # (lockstep, id) -> the round's sample count
    add, result = sdp._Lockstep.add, sdp._Lockstep.result

    def spy_add(self, requests):
        ids = add(self, requests)
        asked.update(((self, b), r[0].n) for b, r in zip(ids, requests))
        return ids

    def spy_result(self, b):
        rounds.append(asked.pop((self, b)))
        return result(self, b)

    monkeypatch.setattr(sdp._Lockstep, "add", spy_add)
    monkeypatch.setattr(sdp._Lockstep, "result", spy_result)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, cofusion)
    try:
        sol = cofusion.sdp.solve(problem)
    finally:
        uninstall()
    assert len(rounds) >= 2
    layers = tracing.layer_metrics(tracer)
    assert layers["sdp.solve_calls"] == 1
    assert layers["sdp.newton_steps"] == sol.newton_iterations


def test_a_traced_sweep_counts_every_draw_and_its_attempts():
    # the sweep draws through the names the tracer wraps, so sampler.draws
    # and sampler.attempts count every sample a compare run uses
    import numpy as np

    from cofusion.core import CrossSparsityPattern, make_substream_seed
    from cofusion.sampler import sample_cross, sample_set

    pa, pb = np.diag([3.0, 1.0]), np.diag([1.0, 4.0])
    pattern = CrossSparsityPattern.unconstrained(2, 2)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, cofusion)
    try:
        cofusion.metrics.conservativeness_sweep(pa, pb, pattern, [10, 50], 1, seed=5)
    finally:
        uninstall()
    layers = tracing.layer_metrics(tracer)
    truth = sample_cross(pa, pb, pattern, make_substream_seed(5, "truth", 0))
    draws = sample_set(pa, pb, pattern, 50, make_substream_seed(5, "samples", 0))
    attempts = truth.attempts + sum(s.attempts for s in draws)
    assert layers["sampler.draws"] == 51
    assert layers["sampler.attempts"] == attempts > 51
