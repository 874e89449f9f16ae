"""The benchmark's traced run wraps library functions by module attribute
name; every name it lists must still resolve, so a refactor that drops one
fails here rather than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", _traced_names(), ids=lambda v: v)
def test_traced_name_resolves(module, name):
    mod = importlib.import_module(f"forecastcomp.{module}")
    assert callable(getattr(mod, name, None)), f"forecastcomp.{module}.{name} is gone"
