"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the library from outside: every module
attribute that refers to a wrapped function is replaced for the duration of
the traced run, so calls made between modules (``experiments`` calling
``select`` by its imported name, for instance) are seen too.  The library's
own code is not changed.

A span is ``(id, parent, op, name, start, end)``.  ``op`` is the benchmark
operation (one search, estimate, CLI invocation, online run or solve) the
span belongs to.  A span opened on a worker thread with nothing open on
that thread takes as parent the innermost span open on the thread that
started the operation, which is the call that handed the work to the pool.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import threading
import time
from typing import Callable

# Public functions wrapped in each module.  Cheap validators such as
# ``as_probabilities`` are left out: they run on almost every call and would
# mostly measure the wrapper.
TRACED = {
    "scoring": ("score_matrix", "accuracy", "epsilon_optimal_set"),
    "mechanisms": (
        "select",
        "selection_law",
        "simple_max_select",
        "elf_select",
        "mw_select",
        "ftrl_select",
        "report_noisy_max_select",
        "sample_winner",
        "score_totals",
        "elf_winner_law",
        "noisy_max_win_prob",
        "noisy_max_law",
    ),
    "agents": (
        "build_reports",
        "strategy_report_row",
        "round_local_best_response",
        "best_response_full",
        "golden_section_max",
        "dominance_clamp_check",
        "expected_win_prob",
        "extremize",
    ),
    "experiments": (
        "derive_seed",
        "wilson_interval",
        "run_competition_trial",
        "estimate_success_prob",
        "estimate_event_complexity",
        "online_run",
    ),
    "cli": ("main", "parse_config", "dispatch"),
}
MODULES = ("scoring", "regularizers", "mechanisms", "agents", "experiments", "cli")


class Tracer:
    """In-memory span recorder with work counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counters: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = (0, 0, [])  # (op id, root span id, stack of the op's thread)
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = collections.Counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                _, root, op_stack = self._op
                parent = (op_stack[-1:] or [root])[0]
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, self._op[0], name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str):
        """Root span of one benchmark operation."""
        stack = self._stack()
        sid = next(self._ids)
        self._op = (op_id, sid, stack)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, 0, op_id, f"bench.{name}", start, time.perf_counter()))
            self._op = (0, 0, [])

    def _hooks(self) -> dict[str, Callable]:
        c = self.counters

        def add(key: str, amount: Callable) -> Callable:
            def hook(result) -> None:
                c[key] += amount(result)

            return hook

        return {
            "mechanisms.select": add("mechanisms.draws", lambda d: d.rng_trace.draws),
            "experiments.estimate_success_prob": add("experiments.trials", lambda e: e.trials),
            "experiments.run_competition_trial": add("experiments.trials", lambda _: 1),
            "experiments.estimate_event_complexity": add("experiments.probes", lambda e: len(e.probes)),
            "experiments.online_run": add("experiments.online_rounds", lambda t: t.outcomes.size),
        }

    def install(self, package) -> None:
        """Replace every module reference to a traced function by its wrapper."""
        hooks = self._hooks()
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = getattr(package, mod_name)
            for name in names:
                fn = getattr(module, name)
                key = f"{mod_name}.{name}"
                wrappers[id(fn)] = self.wrap(key, fn, hooks.get(key))
        for module in [package] + [getattr(package, m) for m in MODULES]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore = []

    def traced_regularizer(self, reg):
        """Copy of a regularizer whose conjugate calculus records spans.

        Regularizers are passed as values, not looked up by module name, so
        they are traced by handing the library this copy.
        """
        return dataclasses.replace(
            reg,
            conjugate_grad=self.wrap("regularizers.conjugate_grad", reg.conjugate_grad),
            conjugate_partial2=self.wrap("regularizers.conjugate_partial2", reg.conjugate_partial2),
        )


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    A span's self time is its duration minus the part of that interval its
    child spans cover; overlapping children on worker threads count once.
    """
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for _, parent, _, _, start, end in spans:
        children[parent].append((start, end))
    out: dict[str, list] = collections.defaultdict(lambda: [0, 0.0])
    for sid, _, _, name, start, end in spans:
        kids = children.get(sid)
        self_t = (end - start) - (_covered(kids, start, end) if kids else 0.0)
        entry = out[name]
        entry[0] += 1
        entry[1] += self_t
    return {name: (calls, self_t) for name, (calls, self_t) in out.items()}
