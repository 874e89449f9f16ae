"""Benchmark of the forecastcomp library: one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload complexity --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from the seed, then repeats identical
rounds of the workload's operations until the next round would end after
``--seconds``.  The first round's outputs are checked against computations
made in ``checks.py``; later rounds must reproduce them exactly.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` runs untraced and traced rounds in turn and reports the
per-layer metrics; the spans of the first traced round are written to
``.bench_out/trace_<workload>_<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One compute thread per process in numpy's BLAS; the CLI workload's own
# pool is the only other source of threads (two workers).
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# glibc's malloc raises its mmap threshold as large blocks are freed, so what
# an allocation costs depends on the sizes allocated before it, and through
# the probes a search visits, on the seed.  The run fixes both thresholds at
# glibc's largest dynamic values, the state a run of repeated sizes settles in.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}
RUN_ENV = {**THREAD_ENV, **MALLOC_ENV}
MIN_SETUPS = 5

PER_LAYER_CALLS = (
    "scoring.accuracy",
    "scoring.score_matrix",
    "regularizers.conjugate_grad",
    "mechanisms.select",
    "mechanisms.noisy_max_win_prob",
    "mechanisms.elf_winner_law",
    "agents.build_reports",
    "agents.round_local_best_response",
    "agents.best_response_full",
    "agents.golden_section_max",
    "experiments.derive_seed",
    "cli.main",
)
PER_LAYER_SELF = (
    "mechanisms.select",
    "mechanisms.noisy_max_win_prob",
    "mechanisms.elf_winner_law",
    "agents.round_local_best_response",
    "agents.best_response_full",
    "experiments.derive_seed",
    "experiments.estimate_success_prob",
    "experiments.run_competition_trial",
    "experiments.online_run",
)
COUNTERS = ("mechanisms.draws", "experiments.trials", "experiments.probes", "experiments.online_rounds")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_round(wl, tracer=None, keep: bool = False):
    """One round: every operation once, timed one by one.

    The first round keeps its outputs for the checks; later rounds keep only
    their fingerprints, so outputs do not pile up over a run.
    """
    record = {"wall": 0.0, "time": {"a": 0.0, "b": 0.0}, "work": {"a": 0, "b": 0},
              "outputs": {}, "ops": [], "failed": set(), "bytes": 0}
    for op_id, op in enumerate(wl.ops(), start=1):
        record["ops"].append(op)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.operation(op_id, op.name):
                    out = op.run()
        except Exception:  # an operation that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            record["failed"].add(op.name)
            continue
        seconds, work = time.perf_counter() - t0, op.work(out)
        record["wall"] += seconds
        record["time"][op.part] += seconds
        record["work"][op.part] += work
        record["outputs"][op.name] = out if keep else op.fingerprint(out)
        record["bytes"] += len(getattr(out, "raw", b""))
    return record


def check_rounds(wl, rounds) -> tuple[int, bool]:
    """Check the first round in full and later rounds against it.

    Returns (failed operations, whether the cross-operation checks held).
    """
    first = rounds[0]
    prints, failed, correct = {}, 0, True
    for op in first["ops"]:
        if op.name in first["failed"]:
            continue
        out = first["outputs"][op.name]
        try:
            problems = op.check(out)
        except Exception as exc:  # malformed output: the check fails, the run goes on
            problems = [f"checker raised {exc!r}"]
        for problem in problems:
            print(f"check failed: {wl.name}/{op.name}: {problem}", file=sys.stderr)
        if problems:
            first["failed"].add(op.name)
        else:
            prints[op.name] = op.fingerprint(out)
    for problem in wl.check_round(first["outputs"]):
        print(f"check failed: {wl.name}: {problem}", file=sys.stderr)
        correct = False
    for rnd in rounds[1:]:
        for op in rnd["ops"]:
            if op.name not in rnd["failed"] and rnd["outputs"][op.name] != prints.get(op.name):
                print(f"check failed: {wl.name}/{op.name}: output differs from the checked round",
                      file=sys.stderr)
                rnd["failed"].add(op.name)
    for rnd in rounds:
        failed += len(rnd["failed"])
    return failed, correct


def set_up(workload_cls, seed: int, workdir: Path):
    """One set-up: the library's import, then the workload's input generation
    and config writing.

    The import is timed by importing the package's modules afresh (numpy,
    which the repository does not control, stays loaded); the run's own
    module objects are put back afterwards.
    """
    gc.collect()  # not the set-up's cost: the benchmark's own objects
    saved = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "forecastcomp"}
    for name in saved:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("forecastcomp.cli")
    wl = workload_cls(seed, workdir)
    seconds = time.perf_counter() - t0
    sys.modules.update(saved)
    return seconds, wl


def run_rounds(wl, seconds: float, workload_cls) -> tuple[list, list]:
    """Rounds until the next would end after ``seconds``.

    The set-up is repeated after every round, outside the round's time, so
    its median is taken over the whole run rather than one moment of it.
    """
    rounds, setups, started = [], [], time.perf_counter()
    while True:
        rounds.append(run_round(wl, keep=not rounds))
        setups.append(set_up(workload_cls, wl.seed, wl.workdir)[0])
        if time.perf_counter() - started + rounds[-1]["wall"] > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(set_up(workload_cls, wl.seed, wl.workdir)[0])
    return rounds, setups


def run_alternating(wl, seconds: float, package) -> tuple[list, list]:
    """Untraced and traced rounds in turn, so both see the same conditions.

    The untraced rounds give the baseline for the tracing overhead.
    """
    from tracing import Tracer

    untraced, traced, started = [], [], time.perf_counter()
    tracer = Tracer()
    plain_regularizer = wl.regularizer
    traced_regularizer = tracer.traced_regularizer(plain_regularizer)
    while True:
        untraced.append(run_round(wl, keep=not untraced))
        tracer.install(package)
        wl.regularizer = traced_regularizer
        try:
            traced.append(run_round(wl, tracer))
        finally:
            tracer.uninstall()
            wl.regularizer = plain_regularizer
        traced[-1]["spans"], traced[-1]["counters"] = tracer.spans, dict(tracer.counters)
        tracer.reset()
        pair = untraced[-1]["wall"] + traced[-1]["wall"]
        if time.perf_counter() - started + pair > seconds:
            return untraced, traced


def rate(rnd, part: str) -> float:
    return rnd["work"][part] / rnd["time"][part] if rnd["time"][part] > 0.0 else 0.0


def end_to_end_metrics(rounds, setup_s: float) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        "part_a_per_s": (statistics.median(rate(r, "a") for r in rounds), "1/s"),
        "part_b_per_s": (statistics.median(rate(r, "b") for r in rounds), "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(untraced, traced) -> tuple[dict, bool]:
    from tracing import MODULES, summarize

    per_round = []
    for rnd in traced:
        summary = summarize(rnd["spans"])
        values = {}
        for module in MODULES:
            values[f"{module}.self_s"] = (sum(s for name, (_, s) in summary.items()
                                              if name.startswith(module + ".")), "s")
        for name in PER_LAYER_CALLS:
            values[f"{name}.calls"] = (summary.get(name, (0, 0.0))[0], "count")
        for name in PER_LAYER_SELF:
            values[f"{name}.self_s"] = (summary.get(name, (0, 0.0))[1], "s")
        for name in COUNTERS:
            values[name] = (rnd["counters"].get(name, 0), "count")
        values["cli.output_bytes"] = (rnd["bytes"], "bytes")
        per_round.append(values)
    metrics, repeatable = {}, True
    for key, (value, unit) in per_round[0].items():
        samples = [r[key][0] for r in per_round]
        if unit == "s":
            value = statistics.median(samples)
        elif len(set(samples)) != 1:
            print(f"work count {key} differs between identical rounds: {samples}", file=sys.stderr)
            repeatable = False
        metrics[key] = {"value": value, "unit": unit}
    overhead = statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, repeatable


def write_spans(path: Path, workload: str, seed: int, rnd) -> None:
    """Spans as rows [id, parent, op, name index, start, end], times in
    seconds from the round's first span."""
    spans = rnd["spans"]
    t0 = min(s[4] for s in spans)
    names = sorted({s[3] for s in spans})
    index = {name: k for k, name in enumerate(names)}
    rows = [[sid, parent, op, index[name], round(start - t0, 7), round(end - t0, 7)]
            for sid, parent, op, name, start, end in spans]
    doc = {"workload": workload, "seed": seed, "columns": ["id", "parent", "op", "name", "start", "end"],
           "names": names, "spans": rows}
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def print_readable(wl, metrics) -> None:
    for key, m in metrics.items():
        print(f"{wl.name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{wl.name}: part a counts {wl.units[0]}, part b counts {wl.units[1]}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "forecastcomp" / "__init__.py").is_file():
        print(f"error: no library source at {SRC.relative_to(ROOT)}/forecastcomp", file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in RUN_ENV.items()):
        # the allocator reads its settings at process start
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, **RUN_ENV})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import forecastcomp
    import workloads

    if Path(forecastcomp.__file__).resolve().parent != SRC / "forecastcomp":
        print(f"error: imported forecastcomp from {forecastcomp.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload_cls = workloads.WORKLOADS[args.workload]
        first_setup, wl = set_up(workload_cls, args.seed, workdir)
        if args.trace:
            untraced, traced = run_alternating(wl, args.seconds, forecastcomp)
            rounds = untraced + traced
            failed, correct = check_rounds(wl, rounds)
            metrics, repeatable = per_layer_metrics(untraced, traced)
            correct = correct and repeatable
            write_spans(OUT / f"trace_{args.workload}_{args.seed}.json.gz", args.workload, args.seed, traced[0])
        else:
            rounds, setups = run_rounds(wl, args.seconds, workload_cls)
            failed, correct = check_rounds(wl, rounds)
            metrics = end_to_end_metrics(rounds, statistics.median([first_setup] + setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_readable(wl, metrics)
    attempted = sum(len(r["ops"]) for r in rounds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
