"""The benchmark's traced run wraps library functions by module attribute
name, and copies a regularizer with its conjugate calculus wrapped; every
name it lists and every field it replaces must still resolve, so a refactor
that drops one fails here rather than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from forecastcomp.regularizers import L2, NEG_ENTROPY

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_names():
    return [(module, name) for module, names in _tracing().TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", _traced_names(), ids=lambda v: v)
def test_traced_name_resolves(module, name):
    mod = importlib.import_module(f"forecastcomp.{module}")
    assert callable(getattr(mod, name, None)), f"forecastcomp.{module}.{name} is gone"


@pytest.mark.parametrize("reg", [NEG_ENTROPY, L2], ids=lambda reg: reg.name)
def test_traced_regularizer_returns_the_original_values(reg):
    tracer = _tracing().Tracer()
    traced = tracer.traced_regularizer(reg)
    x = np.array([[0.3, -1.2, 2.0], [4.0, 0.0, -0.5]])
    assert np.array_equal(traced.conjugate_grad(x), reg.conjugate_grad(x))
    for i in range(x.shape[1]):
        assert np.array_equal(traced.conjugate_partial2(x, i), reg.conjugate_partial2(x, i))
    assert [name for *_, name, _, _ in tracer.spans].count("regularizers.conjugate_partial2") == x.shape[1]


def test_traced_solve_records_its_line_searches():
    # the per-layer table counts the line searches of a best response as
    # agents.golden_section_max spans inside agents.best_response_full
    import forecastcomp
    from forecastcomp import agents
    from forecastcomp.mechanisms import MultWeights

    tracer = _tracing().Tracer()
    ctx = agents.StrategicContext(np.array([[0.2, 0.7], [0.9, 0.4]]), np.array([0.6, 0.3]), MultWeights(eta=0.05))
    tracer.install(forecastcomp)
    try:
        agents.best_response_full(ctx, starts=2, seed=0)
    finally:
        tracer.uninstall()
    names = {sid: name for sid, _, _, name, _, _ in tracer.spans}
    parents = [parent for _, parent, _, name, _, _ in tracer.spans if name == "agents.golden_section_max"]
    assert len(parents) >= 2 * ctx.m
    assert {names[parent] for parent in parents} == {"agents.best_response_full"}
