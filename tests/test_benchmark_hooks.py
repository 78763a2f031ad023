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
