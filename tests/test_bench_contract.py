"""The benchmark's traced run wraps library functions by module attribute
name, and copies a regularizer with its conjugate calculus wrapped; every
name it lists and every field it replaces must still resolve, and every
library call its workloads make must still bind to the callee's signature,
so a refactor that drops one fails here rather than in the benchmark."""

import ast
import importlib
import importlib.util
import inspect
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


LIBRARY_MODULES = ("agents", "cli", "experiments", "mechanisms", "regularizers")


def _workload_calls():
    """(module, name, positional count, keywords, whether partial, line) of
    each call in ``bench/workloads.py`` of a library module's attribute,
    directly, through a local alias of the module, or as the function of a
    ``functools.partial``."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    aliases = {name: name for name in LIBRARY_MODULES}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in LIBRARY_MODULES:
            aliases.update({t.id: node.value.id for t in node.targets if isinstance(t, ast.Name)})
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args, partial = node.func, node.args, False
        if ast.unparse(func) == "functools.partial":
            func, args, partial = args[0], args[1:], True
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in aliases:
            assert not any(isinstance(a, ast.Starred) for a in args), f"line {node.lineno}: starred argument"
            keywords = tuple(k.arg for k in node.keywords)
            assert None not in keywords, f"line {node.lineno}: ** argument"
            calls.append((aliases[func.value.id], func.attr, len(args), keywords, partial, node.lineno))
    return sorted(calls, key=lambda call: call[-1])


def test_workloads_pass_the_keywords_the_parser_expects():
    # guards the parser itself: a missed alias or partial would drop calls silently
    keywords = {k for *_, kws, _, _ in _workload_calls() for k in kws}
    assert keywords == {"threads", "m_start", "max_trial_scale", "seed", "starts", "mode", "pull", "eta", "b"}


@pytest.mark.parametrize(
    "module, name, positional, keywords, partial, line",
    [pytest.param(*call, id=f"{call[0]}.{call[1]}:{call[-1]}") for call in _workload_calls()],
)
def test_workload_call_binds(module, name, positional, keywords, partial, line):
    target = getattr(importlib.import_module(f"forecastcomp.{module}"), name, None)
    assert callable(target), f"bench/workloads.py:{line} calls forecastcomp.{module}.{name}, which is gone"
    sig = inspect.signature(target)
    bind = sig.bind_partial if partial else sig.bind
    try:
        bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError as err:
        pytest.fail(f"bench/workloads.py:{line}: forecastcomp.{module}.{name}{sig} no longer takes this call: {err}")
