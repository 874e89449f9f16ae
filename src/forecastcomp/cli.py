"""Command-line entry point: config parsing, dispatch, and result files.

Subcommands: run, estimate-complexity, truthfulness-sweep, online-regret,
lower-bound-demo, condition-check, bounds-table.  Every invocation reads a
JSON config, validates it (reporting every violation, not just the first),
runs the named experiment, and writes three files into the output directory:

- results.csv   tabular trial/probe data (schema documented per subcommand
                in the README),
- summary.json  machine-readable estimates and comparisons,
- manifest.json config echo, code version, master seed, per-output
                checksums, and wall-clock time.

Rerunning with the same config and seed produces byte-identical CSV and
summary bodies at any thread count; only the manifest's wall-clock differs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import secrets
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import forecastcomp
from forecastcomp.agents import (
    AgentStrategy,
    BestResponse,
    Extremizer,
    Truthful,
    build_reports,
    truthfulness_gap_sweep,
)
from forecastcomp.experiments import (
    CompetitionSetting,
    MyopicBestResponse,
    OnlinePreference,
    _draw_winners,
    derive_seed,
    estimate_event_complexity,
    estimate_success_prob,
    gap_setting,
    identical_beliefs_setting,
    near_tie_setting,
    online_run,
    perfect_vs_terrible_setting,
    random_setting,
    regret_bound,
    theoretical_bounds,
    wilson_interval,
)
from forecastcomp.mechanisms import (
    Elf,
    Ftrl,
    MechanismConfig,
    MultWeights,
    PointPerRound,
    ReportNoisyMax,
    SimpleMax,
)
from forecastcomp.regularizers import NEG_ENTROPY, condition_check, regularizer_by_name
from forecastcomp.scoring import as_probabilities

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "serialize_config", "dispatch", "main"]

COMMANDS = (
    "run",
    "estimate-complexity",
    "truthfulness-sweep",
    "online-regret",
    "lower-bound-demo",
    "condition-check",
    "bounds-table",
)

_TOP_KEYS = {"command", "seed", "trials", "threads", "out", "mechanism", "setting", "params"}
_MECHANISM_KEYS = {
    "simple_max": set(),
    "elf": set(),
    "mw": {"eta"},
    "ftrl": {"eta", "regularizer"},
    "noisy_max": {"b"},
    "point_per_round": {"g"},
}
_GENERATOR_KEYS = {
    "random": set(),
    "perfect_vs_terrible": set(),
    "gap": {"gap", "theta_low"},
    "near_tie": {"epsilon", "theta_low"},
    "identical": set(),
}
_PARAM_KEYS = {
    "run": {"epsilon", "strategies", "pull"},
    "estimate-complexity": {"epsilon", "delta", "m_cap", "strategies", "pull"},
    "truthfulness-sweep": {"n", "m", "contexts"},
    "online-regret": {"T", "n", "eta", "strategies", "pull"},
    "lower-bound-demo": {"n"},
    "condition-check": {"regularizer", "samples", "radius", "dim"},
    "bounds-table": {"ns", "epsilons", "delta", "variants", "gamma"},
}
_BOUND_VARIANTS = ("simple_max", "elf", "elf_proof", "mw", "noisy_max")


class ConfigError(ValueError):
    """Invalid configuration; carries the complete list of violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, ready for dispatch."""

    command: str
    mechanism: dict | None = None
    setting: dict | None = None
    params: dict = field(default_factory=dict)
    seed: int | None = None
    trials: int | None = None
    threads: int = 1
    out: str | None = None


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Canonical JSON-ready form; parse(serialize(cfg)) round-trips exactly."""
    data: dict = {"command": cfg.command}
    if cfg.mechanism is not None:
        data["mechanism"] = cfg.mechanism
    if cfg.setting is not None:
        data["setting"] = cfg.setting
    if cfg.params:
        data["params"] = cfg.params
    if cfg.seed is not None:
        data["seed"] = cfg.seed
    if cfg.trials is not None:
        data["trials"] = cfg.trials
    if cfg.threads != 1:
        data["threads"] = cfg.threads
    if cfg.out is not None:
        data["out"] = cfg.out
    return data


def _check_number(value, name: str, errs: list[str], *, low=None, high=None, low_open=False, integer=False) -> None:
    if integer and not isinstance(value, int):
        errs.append(f"{name} must be an integer, got {value!r}")
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errs.append(f"{name} must be a number, got {value!r}")
        return
    if low is not None and (value <= low if low_open else value < low):
        op = ">" if low_open else ">="
        errs.append(f"{name} must be {op} {low}, got {value}")
    if high is not None and value > high:
        errs.append(f"{name} must be <= {high}, got {value}")


def _validate_mechanism(spec, errs: list[str]) -> None:
    if not isinstance(spec, dict):
        errs.append(f"mechanism must be an object, got {spec!r}")
        return
    mtype = spec.get("type")
    if mtype not in _MECHANISM_KEYS:
        errs.append(f"mechanism.type must be one of {sorted(_MECHANISM_KEYS)}, got {mtype!r}")
        return
    unknown = set(spec) - _MECHANISM_KEYS[mtype] - {"type"}
    if unknown:
        errs.append(f"unknown mechanism keys for {mtype}: {sorted(unknown)}")
    if mtype in ("mw", "ftrl"):
        if "eta" not in spec:
            errs.append(f"mechanism {mtype} requires eta")
        else:
            _check_number(spec["eta"], "mechanism.eta", errs, low=0.0, low_open=True)
    if mtype == "ftrl":
        reg = spec.get("regularizer", "negative_entropy")
        if reg not in ("negative_entropy", "l2"):
            errs.append(f"mechanism.regularizer must be negative_entropy or l2, got {reg!r}")
    if mtype == "noisy_max":
        if "b" not in spec:
            errs.append("mechanism noisy_max requires b")
        else:
            _check_number(spec["b"], "mechanism.b (Laplace scale; the truthfulness analysis needs b >= 4)", errs, low=4.0)
    if mtype == "point_per_round" and spec.get("g") not in ("scaled_quadratic",):
        errs.append("mechanism point_per_round requires g = 'scaled_quadratic'")


def _validate_setting(spec, command: str, errs: list[str]) -> None:
    if not isinstance(spec, dict):
        errs.append(f"setting must be an object, got {spec!r}")
        return
    before = len(errs)
    gen = spec.get("generator")
    if "beliefs" in spec or "theta" in spec:
        if command == "estimate-complexity":
            errs.append("estimate-complexity needs a generator-based setting (m varies per probe)")
        unknown = set(spec) - {"beliefs", "theta"}
        if unknown:
            errs.append(f"unknown inline-setting keys: {sorted(unknown)}")
        if "beliefs" not in spec or "theta" not in spec:
            errs.append("inline settings need both beliefs and theta")
    elif gen not in _GENERATOR_KEYS:
        errs.append(f"setting.generator must be one of {sorted(_GENERATOR_KEYS)}, got {gen!r}")
    else:
        unknown = set(spec) - _GENERATOR_KEYS[gen] - {"generator", "n", "m", "setting_seed"}
        if unknown:
            errs.append(f"unknown setting keys for {gen}: {sorted(unknown)}")
        if "n" not in spec:
            errs.append("setting requires n")
        else:
            _check_number(spec["n"], "setting.n", errs, low=2, integer=True)
        if command == "run" and "m" not in spec:
            errs.append("run requires setting.m")
        if "m" in spec:
            _check_number(spec["m"], "setting.m", errs, low=1, integer=True)
        if "setting_seed" in spec:
            _check_number(spec["setting_seed"], "setting.setting_seed", errs, low=0, integer=True)
        for key in ("gap", "epsilon", "theta_low"):
            if key in spec:
                _check_number(spec[key], f"setting.{key}", errs)
    if len(errs) == before:
        # the library's own preconditions (a generated setting is built at m=1)
        try:
            _build_setting(spec, 0, m_override=None if gen is None else 1)
        except (ValueError, TypeError) as exc:
            errs.append(f"setting: {exc}")


def _validate_params(command: str, params, errs: list[str]) -> None:
    if not isinstance(params, dict):
        errs.append(f"params must be an object, got {params!r}")
        return
    unknown = set(params) - _PARAM_KEYS[command]
    if unknown:
        errs.append(f"unknown params for {command}: {sorted(unknown)}")
    if "epsilon" in params:
        _check_number(params["epsilon"], "params.epsilon", errs, low=0.0, low_open=True, high=1.0)
    if "delta" in params:
        _check_number(params["delta"], "params.delta", errs, low=0.0, low_open=True, high=1.0)
    if "pull" in params:
        _check_number(params["pull"], "params.pull", errs, low=0.0, high=1.0)
    for key in ("n", "m", "contexts", "T", "m_cap", "samples", "dim"):
        if key in params:
            _check_number(params[key], f"params.{key}", errs, low=1, integer=True)
    if "radius" in params:
        _check_number(params["radius"], "params.radius", errs, low=0.0, low_open=True)
    if "eta" in params and params["eta"] != "auto":
        _check_number(params["eta"], "params.eta", errs, low=0.0, low_open=True)
    if "strategies" in params and params["strategies"] not in (
        "truthful",
        "extremizer",
        "round_local_best_response",
    ):
        errs.append(
            "params.strategies must be truthful, extremizer, or round_local_best_response, "
            f"got {params['strategies']!r}"
        )
    if "regularizer" in params and params["regularizer"] not in ("negative_entropy", "l2"):
        errs.append(f"params.regularizer must be negative_entropy or l2, got {params['regularizer']!r}")
    if "variants" in params:
        variants = params["variants"]
        if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
            errs.append(f"params.variants must be a list of strings, got {variants!r}")
        elif any(v not in _BOUND_VARIANTS for v in variants):
            errs.append(f"unknown bound variants: {[v for v in variants if v not in _BOUND_VARIANTS]}")
    for key in ("ns", "epsilons"):
        if key in params and (not isinstance(params[key], list) or not params[key]):
            errs.append(f"params.{key} must be a nonempty list")
    if isinstance(params.get("ns"), list):
        for k, n in enumerate(params["ns"]):
            _check_number(n, f"params.ns[{k}]", errs, low=2, integer=True)
    if command == "bounds-table":
        for key in ("ns", "epsilons", "delta"):
            if key not in params:
                errs.append(f"bounds-table requires params.{key}")
    if command == "truthfulness-sweep":
        for key in ("n", "m", "contexts"):
            if key not in params:
                errs.append(f"truthfulness-sweep requires params.{key}")
    if command == "online-regret":
        for key in ("T", "n"):
            if key not in params:
                errs.append(f"online-regret requires params.{key}")
    if command == "lower-bound-demo" and "n" not in params:
        errs.append("lower-bound-demo requires params.n")
    if command == "condition-check":
        for key in ("regularizer", "samples", "radius"):
            if key not in params:
                errs.append(f"condition-check requires params.{key}")
    if command == "estimate-complexity":
        for key in ("epsilon", "delta"):
            if key not in params:
                errs.append(f"estimate-complexity requires params.{key}")
    if command == "run" and "epsilon" not in params:
        errs.append("run requires params.epsilon")


_NEEDS_MECHANISM = {"run", "estimate-complexity", "truthfulness-sweep"}
_NEEDS_SETTING = {"run", "estimate-complexity"}


def parse_config(text: str, command: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Args:
        text: JSON document.
        command: subcommand selected on the CLI; must match the config's own
            ``command`` key when both are present.

    Raises:
        ConfigError: carrying every violation found, not just the first.
    """
    return _validated(_decode(text), command)


def _decode(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config must be a JSON object"])
    return data


def _validated(data: dict, command: str | None) -> ExperimentConfig:
    errs: list[str] = []
    unknown = set(data) - _TOP_KEYS
    if unknown:
        errs.append(f"unknown top-level keys: {sorted(unknown)}")

    cfg_command = data.get("command", command)
    if cfg_command is None:
        errs.append("no command given (config key 'command' or CLI subcommand)")
    elif cfg_command not in COMMANDS:
        errs.append(f"unknown command {cfg_command!r}; known: {list(COMMANDS)}")
    elif command is not None and cfg_command != command:
        errs.append(f"config command {cfg_command!r} conflicts with CLI subcommand {command!r}")

    if "seed" in data:
        _check_number(data["seed"], "seed", errs, low=0, integer=True)
    if "trials" in data:
        _check_number(data["trials"], "trials", errs, low=1, integer=True)
    if "threads" in data:
        _check_number(data["threads"], "threads", errs, low=1, integer=True)
    if "out" in data and not isinstance(data["out"], str):
        errs.append(f"out must be a string path, got {data['out']!r}")

    if cfg_command in COMMANDS:
        if "mechanism" in data:
            _validate_mechanism(data["mechanism"], errs)
        elif cfg_command in _NEEDS_MECHANISM:
            errs.append(f"{cfg_command} requires a mechanism")
        if "setting" in data:
            _validate_setting(data["setting"], cfg_command, errs)
        elif cfg_command in _NEEDS_SETTING:
            errs.append(f"{cfg_command} requires a setting")
        _validate_params(cfg_command, data.get("params", {}), errs)

    if errs:
        raise ConfigError(errs)
    return ExperimentConfig(
        command=cfg_command,
        mechanism=data.get("mechanism"),
        setting=data.get("setting"),
        params=data.get("params", {}),
        seed=data.get("seed"),
        trials=data.get("trials"),
        threads=data.get("threads", 1),
        out=data.get("out"),
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _build_mechanism(spec: dict, n: int | None = None) -> MechanismConfig:
    mtype = spec["type"]
    if mtype == "simple_max":
        return SimpleMax()
    if mtype == "elf":
        return Elf()
    if mtype == "mw":
        return MultWeights(eta=float(spec["eta"]))
    if mtype == "ftrl":
        return Ftrl(
            regularizer=regularizer_by_name(spec.get("regularizer", "negative_entropy")),
            eta=float(spec["eta"]),
        )
    if mtype == "noisy_max":
        return ReportNoisyMax(b=float(spec["b"]))
    if mtype == "point_per_round":
        if n is None:
            raise ValueError("point_per_round needs the setting's n to scale its scoring rule")
        return PointPerRound(g=lambda r, y: (1.0 - (y - r) ** 2) / n, range_length=1.0 / n)
    raise ValueError(f"unknown mechanism type {mtype!r}")


def _build_setting(spec: dict, master_seed: int, m_override: int | None = None) -> CompetitionSetting:
    if "beliefs" in spec:
        return CompetitionSetting(
            as_probabilities(np.array(spec["beliefs"], dtype=float), "beliefs"),
            as_probabilities(np.array(spec["theta"], dtype=float), "theta"),
        )
    gen = spec["generator"]
    n = int(spec["n"])
    m = int(m_override if m_override is not None else spec["m"])
    sseed = int(spec.get("setting_seed", derive_seed(master_seed, 7)))
    if gen == "random":
        return random_setting(n, m, sseed)
    if gen == "perfect_vs_terrible":
        return perfect_vs_terrible_setting(n, m)
    if gen == "gap":
        return gap_setting(n, m, float(spec.get("gap", 0.32)), sseed, float(spec.get("theta_low", 0.2)))
    if gen == "near_tie":
        return near_tie_setting(n, m, float(spec.get("epsilon", 0.2)), sseed, float(spec.get("theta_low", 0.1)))
    if gen == "identical":
        return identical_beliefs_setting(n, m, sseed)
    raise ValueError(f"unknown setting generator {gen!r}")


def _build_strategies(params: dict, n: int) -> list[AgentStrategy]:
    kind = params.get("strategies", "truthful")
    if kind == "truthful":
        return [Truthful()] * n
    if kind == "extremizer":
        return [Extremizer(pull=float(params.get("pull", 0.1)))] * n
    if kind == "round_local_best_response":
        return [BestResponse(mode="round_local")] * n
    raise ValueError(f"unknown strategies preset {kind!r}")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class DispatchResult:
    out_dir: Path
    results_csv: Path
    summary_json: Path
    manifest_json: Path


def _write_outputs(
    out_dir: Path,
    header: list[str],
    rows: list[list],
    summary: dict,
    cfg: ExperimentConfig,
    master_seed: int,
    started: float,
) -> DispatchResult:
    out_dir.mkdir(parents=True, exist_ok=True)
    results = out_dir / "results.csv"
    with open(results, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (results, summary_path)
    }
    manifest = {
        "config": serialize_config(cfg),
        "code_version": forecastcomp.__version__,
        "master_seed": master_seed,
        "outputs": digests,
        "wall_clock_seconds": time.monotonic() - started,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return DispatchResult(out_dir, results, summary_path, manifest_path)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_run(cfg: ExperimentConfig, seed: int) -> tuple[list[str], list[list], dict]:
    setting = _build_setting(cfg.setting, seed)
    mechanism = _build_mechanism(cfg.mechanism, setting.n)
    strategies = _build_strategies(cfg.params, setting.n)
    epsilon = float(cfg.params["epsilon"])
    trials = cfg.trials if cfg.trials is not None else 100
    accuracies = setting.accuracies()
    good = setting.epsilon_optimal(epsilon)
    # Every strategy the CLI offers is deterministic, so one report matrix
    # serves all trials.  Trial k keeps the seed layout of
    # run_competition_trial(seed=derive_seed(seed, 5, k)).
    reports = build_reports(strategies, setting.beliefs, mechanism)
    trial_seeds = [derive_seed(seed, 5, k) for k in range(trials)]
    draws = _draw_winners(
        reports, setting.theta, mechanism, [(derive_seed(s, 1), derive_seed(s, 2)) for s in trial_seeds], cfg.threads
    )
    rows = [[k, d.winner, float(accuracies[d.winner]), d.winner in good] for k, d in enumerate(draws)]
    successes = sum(1 for row in rows if row[3])
    lower, upper, _ = wilson_interval(successes, trials)
    summary = {
        "command": "run",
        "epsilon": epsilon,
        "trials": trials,
        "success_rate": successes / trials,
        "wilson_lower": lower,
        "wilson_upper": upper,
    }
    return ["trial", "winner", "winner_accuracy", "winner_eps_optimal"], rows, summary


def _cmd_estimate_complexity(cfg: ExperimentConfig, seed: int) -> tuple[list[str], list[list], dict]:
    spec = cfg.setting
    n = int(spec["n"])
    mechanism = _build_mechanism(cfg.mechanism, n)
    strategies = _build_strategies(cfg.params, n)
    epsilon = float(cfg.params["epsilon"])
    delta = float(cfg.params["delta"])
    trials = cfg.trials if cfg.trials is not None else 200
    estimate = estimate_event_complexity(
        mechanism,
        lambda m: _build_setting(spec, seed, m_override=m),
        strategies,
        epsilon,
        delta,
        trials,
        seed,
        m_cap=int(cfg.params.get("m_cap", 1 << 20)),
        threads=cfg.threads,
    )
    rows = [
        [p.m, p.trials, p.successes, p.rate, p.lower, p.upper, p.decided, p.passed]
        for p in estimate.probes
    ]
    summary = estimate.to_dict()
    variant = {"SimpleMax": "simple_max", "Elf": "elf", "MultWeights": "mw", "ReportNoisyMax": "noisy_max"}.get(
        estimate.mechanism
    )
    if variant is not None and (variant != "elf" or n >= 3):
        summary["theoretical_bound"] = theoretical_bounds(variant, n, epsilon, delta)
    return (
        ["m", "trials", "successes", "rate", "wilson_lower", "wilson_upper", "decided", "passed"],
        rows,
        summary,
    )


def _cmd_truthfulness_sweep(cfg: ExperimentConfig, seed: int) -> tuple[list[str], list[list], dict]:
    n = int(cfg.params["n"])
    mechanism = _build_mechanism(cfg.mechanism, n)
    report = truthfulness_gap_sweep(
        mechanism,
        n=n,
        m=int(cfg.params["m"]),
        num_contexts=int(cfg.params["contexts"]),
        seed=seed,
    )
    rows = [[k, gap] for k, gap in enumerate(report.gaps)]
    return ["context", "gap"], rows, report.to_dict()


def _cmd_online_regret(cfg: ExperimentConfig, seed: int) -> tuple[list[str], list[list], dict]:
    n = int(cfg.params["n"])
    T = int(cfg.params["T"])
    eta = cfg.params.get("eta", "auto")
    eta = math.sqrt(math.log(n) / (10.0 * T)) if eta == "auto" else float(eta)
    trials = cfg.trials if cfg.trials is not None else 20
    kind = cfg.params.get("strategies", "truthful")
    if kind == "truthful":
        strategies = [Truthful()] * n
    elif kind == "extremizer":
        strategies = [Extremizer(pull=float(cfg.params.get("pull", min(1.0, 4.0 * eta))))] * n
    else:
        strategies = [MyopicBestResponse()] * n
    bound = regret_bound("mw", T, n) if T >= 8 else None

    rows = []
    worst = -math.inf
    for k in range(trials):
        rng = np.random.default_rng(derive_seed(seed, 11, k))
        beliefs = rng.random((n, T))
        theta = rng.random(T)
        trace = online_run(
            beliefs, theta, strategies, OnlinePreference("myopic"), NEG_ENTROPY, eta, derive_seed(seed, 12, k)
        )
        worst = max(worst, trace.regret)
        rows.append([k, trace.regret, bound if bound is not None else "", bound is None or trace.regret <= bound])
    summary = {
        "command": "online-regret",
        "n": n,
        "T": T,
        "eta": eta,
        "trials": trials,
        "max_regret": worst,
        "bound": bound,
        "all_within_bound": bound is None or worst <= bound,
    }
    return ["trial", "regret", "bound", "within_bound"], rows, summary


def _cmd_lower_bound_demo(cfg: ExperimentConfig, seed: int) -> tuple[list[str], list[list], dict]:
    n = int(cfg.params["n"])
    m = math.ceil(n / 4.0 * math.log(n))
    setting = perfect_vs_terrible_setting(n, m)
    strategies = [Truthful()] * n
    trials = cfg.trials if cfg.trials is not None else 2000
    epsilon = 0.5
    rows = []
    rates = {}
    for idx, (name, mech) in enumerate((("elf", Elf()), ("simple_max", SimpleMax()))):
        est = estimate_success_prob(
            setting, strategies, mech, epsilon, trials, derive_seed(seed, 20, idx), cfg.threads
        )
        rates[name] = est.rate
        rows.append([name, n, m, est.trials, est.rate, est.lower, est.upper])
    summary = {
        "command": "lower-bound-demo",
        "n": n,
        "m": m,
        "trials": trials,
        "elf_success": rates["elf"],
        "simple_max_success": rates["simple_max"],
        "elf_below_simple_max": rates["elf"] < rates["simple_max"],
    }
    return ["mechanism", "n", "m", "trials", "success_rate", "wilson_lower", "wilson_upper"], rows, summary


def _cmd_condition_check(cfg: ExperimentConfig, seed: int) -> tuple[list[str], list[list], dict]:
    reg = regularizer_by_name(cfg.params["regularizer"])
    report = condition_check(
        reg,
        sample_count=int(cfg.params["samples"]),
        domain_radius=float(cfg.params["radius"]),
        rng_seed=seed,
        dim=int(cfg.params.get("dim", 2)),
    )
    rows = [
        [
            report.regularizer,
            report.dim,
            report.domain_radius,
            report.sample_count,
            report.empirical_alpha,
            report.empirical_beta,
            report.strict_convexity_ok,
            report.passed,
        ]
    ]
    header = [
        "regularizer",
        "dim",
        "radius",
        "samples",
        "empirical_alpha",
        "empirical_beta",
        "strict_convexity_ok",
        "passed",
    ]
    return header, rows, report.to_dict()


def _cmd_bounds_table(cfg: ExperimentConfig, seed: int) -> tuple[list[str], list[list], dict]:
    ns = [int(v) for v in cfg.params["ns"]]
    epsilons = [float(v) for v in cfg.params["epsilons"]]
    delta = float(cfg.params["delta"])
    variants = cfg.params.get("variants", list(_BOUND_VARIANTS))
    gamma = cfg.params.get("gamma")
    rows = []
    for n in ns:
        for eps in epsilons:
            row = [n, eps, delta]
            for variant in variants:
                if variant in ("elf", "elf_proof") and n < 3:
                    row.append("")
                else:
                    row.append(
                        theoretical_bounds(variant, n, eps, delta, gamma if variant == "noisy_max" else None)
                    )
            rows.append(row)
    summary = {
        "command": "bounds-table",
        "delta": delta,
        "variants": variants,
        "rows": len(rows),
    }
    return ["n", "epsilon", "delta", *variants], rows, summary


_HANDLERS: dict[str, Callable[[ExperimentConfig, int], tuple[list[str], list[list], dict]]] = {
    "run": _cmd_run,
    "estimate-complexity": _cmd_estimate_complexity,
    "truthfulness-sweep": _cmd_truthfulness_sweep,
    "online-regret": _cmd_online_regret,
    "lower-bound-demo": _cmd_lower_bound_demo,
    "condition-check": _cmd_condition_check,
    "bounds-table": _cmd_bounds_table,
}


def dispatch(cfg: ExperimentConfig) -> DispatchResult:
    """Run the configured experiment and write results, summary, and manifest."""
    started = time.monotonic()
    master_seed = cfg.seed if cfg.seed is not None else secrets.randbits(63)
    out_dir = Path(cfg.out or "results")
    header, rows, summary = _HANDLERS[cfg.command](cfg, master_seed)
    summary["master_seed"] = master_seed
    return _write_outputs(out_dir, header, rows, summary, cfg, master_seed, started)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="forecastcomp",
        description="Forecasting-competition mechanism experiments (reproducible, seeded).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--trials", type=int, default=None, help="trial count (overrides config)")
        p.add_argument("--threads", type=int, default=None, help="worker threads (never affects results)")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1
    # Flags override the config's keys and are validated with them.
    flags = {key: getattr(args, key) for key in ("seed", "trials", "threads", "out")}
    flags = {key: value for key, value in flags.items() if value is not None}
    try:
        cfg = _validated({**_decode(text), **flags}, args.command)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "violations": exc.violations}), file=sys.stderr)
        return 2

    try:
        result = dispatch(cfg)
    except (ValueError, RuntimeError) as exc:
        print(json.dumps({"error": "runtime", "message": str(exc)}), file=sys.stderr)
        return 1
    print(f"wrote {result.results_csv}, {result.summary_json}, {result.manifest_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
