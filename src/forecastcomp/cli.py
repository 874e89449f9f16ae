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

Each vocabulary (commands, mechanism types, setting generators, strategy
presets) is the keys of one table below.  The parser checks JSON types and
unknown or missing keys against them, then builds the config with the library
on its smallest instance; whatever the library refuses there is a violation.

Rerunning with the same config and seed produces byte-identical CSV and
summary bodies; only the manifest's wall-clock differs.  Trials run in order
on one thread: the ``threads`` key and ``--threads`` flag are still validated
and echoed in the manifest, but change nothing.
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
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import forecastcomp
from forecastcomp.agents import AgentStrategy, BestResponse, Extremizer, Truthful, build_reports, truthfulness_gap_sweep
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
    mw_tuned_eta,
    near_tie_setting,
    online_run,
    perfect_vs_terrible_setting,
    random_setting,
    regret_bound,
    theoretical_bounds,
    wilson_interval,
)
from forecastcomp.mechanisms import Elf, Ftrl, MechanismConfig, MultWeights, PointPerRound, ReportNoisyMax, SimpleMax
from forecastcomp.regularizers import NEG_ENTROPY, condition_check, regularizer_by_name
from forecastcomp.scoring import as_probabilities

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "serialize_config", "dispatch", "main"]


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
    defaults = vars(ExperimentConfig(cfg.command))
    return {key: value for key, value in vars(cfg).items() if key == "command" or value != defaults[key]}


# ---------------------------------------------------------------------------
# Vocabularies and their builders
# ---------------------------------------------------------------------------

def _point_per_round(spec: dict, n: int) -> PointPerRound:
    if spec["g"] != "scaled_quadratic":
        raise ValueError(f"point_per_round needs g = 'scaled_quadratic', got {spec['g']!r}")
    if not n >= 1:
        raise ValueError(f"point_per_round scales its rule by 1/n and needs n >= 1, got {n}")
    return PointPerRound(g=lambda r, y: (1.0 - (y - r) ** 2) / n, range_length=1.0 / n)


def _ftrl(spec: dict, n: int) -> Ftrl:
    return Ftrl(regularizer=regularizer_by_name(spec.get("regularizer", NEG_ENTROPY.name)), eta=float(spec["eta"]))


# mechanism type -> (required keys, optional keys, builder(spec, n))
_MECHANISMS: dict[str, tuple[tuple[str, ...], tuple[str, ...], Callable[[dict, int], MechanismConfig]]] = {
    "simple_max": ((), (), lambda spec, n: SimpleMax()),
    "elf": ((), (), lambda spec, n: Elf()),
    "mw": (("eta",), (), lambda spec, n: MultWeights(eta=float(spec["eta"]))),
    "ftrl": (("eta",), ("regularizer",), _ftrl),
    "noisy_max": (("b",), (), lambda spec, n: ReportNoisyMax(b=float(spec["b"]))),
    "point_per_round": (("g",), (), _point_per_round),
}

# setting generator -> (its own optional keys, builder(spec, n, m, setting seed))
_GENERATORS: dict[str, tuple[tuple[str, ...], Callable[[dict, int, int, int], CompetitionSetting]]] = {
    "random": ((), lambda spec, n, m, sseed: random_setting(n, m, sseed)),
    "perfect_vs_terrible": ((), lambda spec, n, m, sseed: perfect_vs_terrible_setting(n, m)),
    "gap": (("gap", "theta_low"), lambda spec, n, m, sseed: gap_setting(
        n, m, float(spec.get("gap", 0.32)), sseed, float(spec.get("theta_low", 0.2)))),
    "near_tie": (("epsilon", "theta_low"), lambda spec, n, m, sseed: near_tie_setting(
        n, m, float(spec.get("epsilon", 0.2)), sseed, float(spec.get("theta_low", 0.1)))),
    "identical": ((), lambda spec, n, m, sseed: identical_beliefs_setting(n, m, sseed)),
}

# strategy preset -> its strategy, given the extremizer's pull (each command
# offers some of them, see _COMMANDS)
_PRESETS: dict[str, Callable[[float], object]] = {
    "truthful": lambda pull: Truthful(),
    "extremizer": lambda pull: Extremizer(pull=pull),
    "round_local_best_response": lambda pull: BestResponse(mode="round_local"),
    "myopic_best_response": lambda pull: MyopicBestResponse(),
}

# A mechanism type that names a published bound is its own bound variant.
_BOUND_VARIANTS = ("simple_max", "elf", "elf_proof", "mw", "noisy_max")

_M_CAP = 1 << 20  # estimate-complexity's default largest m


def _require_finite_scaled_totals(name: str, eta: float, m: int, events: str = "m") -> None:
    """Refuse a learning rate whose eta * m overflows: a leader's score totals reach m, its number of events."""
    if not math.isfinite(eta * m):
        raise ValueError(f"{name} = {eta} is too large for {events} = {m}: eta * {events} overflows")


def _build_mechanism(spec: dict, n: int, m: int | None = None) -> MechanismConfig:
    """The mechanism of ``spec`` for n forecasters, checked against up to m events if m is given."""
    if "eta" in spec and m is not None:
        _require_finite_scaled_totals("mechanism.eta", float(spec["eta"]), m)
    return _MECHANISMS[spec["type"]][2](spec, n)


def _build_setting(spec: dict, master_seed: int, m_override: int | None = None) -> CompetitionSetting:
    if "beliefs" in spec:
        if m_override is not None:
            raise ValueError("an inline setting has a fixed m; a search over m needs a generator-based setting")
        return CompetitionSetting(
            as_probabilities(np.array(spec["beliefs"], dtype=float), "beliefs"),
            as_probabilities(np.array(spec["theta"], dtype=float), "theta"),
        )
    if m_override is None and "m" not in spec:
        raise ValueError("a generated setting needs m (only estimate-complexity chooses m itself)")
    m = int(m_override if m_override is not None else spec["m"])
    sseed = int(spec.get("setting_seed", derive_seed(master_seed, 7)))
    return _GENERATORS[spec["generator"]][1](spec, int(spec["n"]), m, sseed)


def _build_strategies(params: dict, n: int, pull: float = 0.1) -> list[AgentStrategy]:
    preset = params.get("strategies", "truthful")
    if "pull" in params and preset != "extremizer":
        raise ValueError(f"pull is read only by the extremizer preset, got strategies {preset!r}")
    return [_PRESETS[preset](float(params.get("pull", pull)))] * n


def _bound(variant: str, n: int, epsilon: float, delta: float, gamma: float | None = None) -> int | None:
    """theoretical_bounds, or None where the variant has no bound at this n
    (the elf bounds start at n = 3; other mechanism types have none)."""
    if variant not in _BOUND_VARIANTS or (variant in ("elf", "elf_proof") and n < 3):
        return None
    return theoretical_bounds(variant, n, epsilon, delta, gamma)


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
# Subcommands: a handler, and a check that builds the smallest instance
# ---------------------------------------------------------------------------

_Result = tuple[list[str], list[list], dict]


def _attempt(errs: list[str], build: Callable, *inputs):
    """build(*inputs), recording what the library refuses as a violation.

    Returns None when it refused, or when an input is None (an earlier step
    or the section's own checks failed, and have said so already).
    """
    if any(value is None for value in inputs):
        return None
    try:
        return build(*inputs)
    except (ValueError, TypeError) as exc:
        errs.append(str(exc))
        return None


def _check_players(cfg: ExperimentConfig, setting: CompetitionSetting | None, m: int, errs: list[str]) -> tuple:
    n = setting.n if setting is not None else 2
    return _attempt(errs, _build_mechanism, cfg.mechanism, n, m), _attempt(errs, _build_strategies, cfg.params, n)


def _cmd_run(cfg: ExperimentConfig, seed: int, trials: int) -> _Result:
    setting = _build_setting(cfg.setting, seed)
    mechanism = _build_mechanism(cfg.mechanism, setting.n)
    strategies = _build_strategies(cfg.params, setting.n)
    epsilon = float(cfg.params["epsilon"])
    accuracies = setting.accuracies()
    good = setting.epsilon_optimal(epsilon)
    # Reports are deterministic given the strategies, so one report matrix
    # serves all trials.  Trial k keeps the seed layout of
    # run_competition_trial(seed=derive_seed(seed, 5, k)).
    reports = build_reports(strategies, setting.beliefs, mechanism)
    trial_seeds = [derive_seed(seed, 5, k) for k in range(trials)]
    draws = _draw_winners(
        reports, setting.theta, mechanism, [(derive_seed(s, 1), derive_seed(s, 2)) for s in trial_seeds]
    )
    rows = [[k, d.winner, float(accuracies[d.winner]), d.winner in good] for k, d in enumerate(draws)]
    successes = sum(1 for row in rows if row[3])
    lower, upper = wilson_interval(successes, trials)
    summary = {
        "command": "run",
        "epsilon": epsilon,
        "trials": trials,
        "success_rate": successes / trials,
        "wilson_lower": lower,
        "wilson_upper": upper,
    }
    return ["trial", "winner", "winner_accuracy", "winner_eps_optimal"], rows, summary


def _check_run(cfg: ExperimentConfig, errs: list[str]) -> None:
    setting = _attempt(errs, _build_setting, cfg.setting, 0)
    mechanism, strategies = _check_players(cfg, setting, 1 if setting is None else setting.m, errs)
    _attempt(errs, build_reports, strategies, None if setting is None else setting.beliefs[:, :1], mechanism)


def _cmd_estimate_complexity(cfg: ExperimentConfig, seed: int, trials: int) -> _Result:
    spec = cfg.setting
    n = int(spec["n"])
    mechanism = _build_mechanism(cfg.mechanism, n)
    strategies = _build_strategies(cfg.params, n)
    epsilon = float(cfg.params["epsilon"])
    delta = float(cfg.params["delta"])
    estimate = estimate_event_complexity(
        mechanism,
        lambda m: _build_setting(spec, seed, m_override=m),
        strategies,
        epsilon,
        delta,
        trials,
        seed,
        m_cap=int(cfg.params.get("m_cap", _M_CAP)),
    )
    rows = [[p.m, p.trials, p.successes, p.rate, p.lower, p.upper, p.decided, p.passed] for p in estimate.probes]
    summary = estimate.to_dict()
    bound = _bound(cfg.mechanism["type"], n, epsilon, delta)
    if bound is not None:
        summary["theoretical_bound"] = bound
    return ["m", "trials", "successes", "rate", "wilson_lower", "wilson_upper", "decided", "passed"], rows, summary


def _check_estimate_complexity(cfg: ExperimentConfig, errs: list[str]) -> None:
    def smallest_search(setting, mechanism, strategies):
        epsilon, delta = float(cfg.params["epsilon"]), float(cfg.params["delta"])
        family = lambda m: _build_setting(cfg.setting, 0, m_override=m)  # noqa: E731
        try:
            estimate_event_complexity(mechanism, family, strategies, epsilon, delta, 1, 0, m_cap=1)
        except RuntimeError:
            pass  # m = 1 failed its probe and the cap ended the search: an outcome, not a config error
        _bound(cfg.mechanism["type"], setting.n, epsilon, delta)  # the summary's bound

    setting = _attempt(errs, _build_setting, cfg.setting, 0, 1)
    m_cap = 1 if cfg.params is None else cfg.params.get("m_cap", _M_CAP)
    _attempt(errs, smallest_search, setting, *_check_players(cfg, setting, m_cap, errs))


def _cmd_truthfulness_sweep(cfg: ExperimentConfig, seed: int, trials: int | None) -> _Result:
    n = int(cfg.params["n"])
    mechanism = _build_mechanism(cfg.mechanism, n)
    report = truthfulness_gap_sweep(
        mechanism, n=n, m=int(cfg.params["m"]), num_contexts=int(cfg.params["contexts"]), seed=seed
    )
    rows = [[k, gap] for k, gap in enumerate(report.gaps)]
    return ["context", "gap"], rows, report.to_dict()


def _check_truthfulness_sweep(cfg: ExperimentConfig, errs: list[str]) -> None:
    n, m = (2, 1) if cfg.params is None else (cfg.params["n"], cfg.params["m"])
    mechanism = _attempt(errs, _build_mechanism, cfg.mechanism, n, m)
    _attempt(errs, lambda mech, p: truthfulness_gap_sweep(mech, p["n"], p["m"], 0, 0), mechanism, cfg.params)


_ONLINE_PREFERENCE = OnlinePreference("myopic")


def _online(params: dict) -> tuple:
    """n, T, learning rate, strategies and regret bound of an online-regret config."""
    n, T = int(params["n"]), int(params["T"])
    eta = params.get("eta", "auto")
    eta = mw_tuned_eta(T, n) if eta == "auto" else float(eta)
    _require_finite_scaled_totals("params.eta", eta, T, "T")
    # online_run refuses an eta <= 0 with its own message; the pull stays in [0, 1]
    strategies = _build_strategies(params, n, pull=min(1.0, max(0.0, 4.0 * eta)))
    return n, T, eta, strategies, regret_bound("mw", T, n) if T >= 8 else None


def _cmd_online_regret(cfg: ExperimentConfig, seed: int, trials: int) -> _Result:
    n, T, eta, strategies, bound = _online(cfg.params)
    rows = []
    worst = -math.inf
    for k in range(trials):
        rng = np.random.default_rng(derive_seed(seed, 11, k))
        beliefs = rng.random((n, T))
        theta = rng.random(T)
        trace = online_run(beliefs, theta, strategies, _ONLINE_PREFERENCE, NEG_ENTROPY, eta, derive_seed(seed, 12, k))
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


def _check_online_regret(cfg: ExperimentConfig, errs: list[str]) -> None:
    def smallest_run(online):
        n, _, eta, strategies, _ = online
        online_run(np.full((n, 1), 0.5), np.full(1, 0.5), strategies, _ONLINE_PREFERENCE, NEG_ENTROPY, eta, 0)

    _attempt(errs, smallest_run, _attempt(errs, _online, cfg.params))


def _cmd_lower_bound_demo(cfg: ExperimentConfig, seed: int, trials: int) -> _Result:
    n = int(cfg.params["n"])
    m = math.ceil(n / 4.0 * math.log(n))
    setting = perfect_vs_terrible_setting(n, m)
    strategies = [Truthful()] * n
    epsilon = 0.5
    rows = []
    rates = {}
    for idx, (name, mech) in enumerate((("elf", Elf()), ("simple_max", SimpleMax()))):
        est = estimate_success_prob(setting, strategies, mech, epsilon, trials, derive_seed(seed, 20, idx))
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


def _condition_report(params: dict, seed: int, samples: int):
    return condition_check(
        regularizer_by_name(params["regularizer"]),
        sample_count=samples,
        domain_radius=float(params["radius"]),
        rng_seed=seed,
        dim=int(params.get("dim", 2)),
    )


def _cmd_condition_check(cfg: ExperimentConfig, seed: int, trials: int | None) -> _Result:
    r = _condition_report(cfg.params, seed, int(cfg.params["samples"]))
    # no sampled point with a finite ratio leaves alpha infinite: null, which strict JSON readers take
    alpha = r.empirical_alpha if math.isfinite(r.empirical_alpha) else None
    header = ["regularizer", "dim", "radius", "samples", "empirical_alpha", "empirical_beta", "strict_convexity_ok",
              "passed"]
    row = [r.regularizer, r.dim, r.domain_radius, r.sample_count, "" if alpha is None else alpha, r.empirical_beta,
           r.strict_convexity_ok, r.passed]
    return header, [row], {**r.to_dict(), "empirical_alpha": alpha}


def _bounds_rows(params: dict) -> tuple[list[str], list[list]]:
    epsilons = [float(v) for v in params["epsilons"]]
    delta = float(params["delta"])
    variants = params.get("variants", list(_BOUND_VARIANTS))
    rows = []
    for n in (int(v) for v in params["ns"]):
        for eps in epsilons:
            bounds = [_bound(variant, n, eps, delta, params.get("gamma")) for variant in variants]
            rows.append([n, eps, delta, *("" if b is None else b for b in bounds)])
    return variants, rows


def _cmd_bounds_table(cfg: ExperimentConfig, seed: int, trials: int | None) -> _Result:
    variants, rows = _bounds_rows(cfg.params)
    summary = {"command": "bounds-table", "delta": float(cfg.params["delta"]), "variants": variants, "rows": len(rows)}
    return ["n", "epsilon", "delta", *variants], rows, summary


@dataclass(frozen=True)
class _Command:
    handler: Callable[[ExperimentConfig, int, int | None], _Result]
    check: Callable[[ExperimentConfig, list[str]], None]
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    sections: tuple[str, ...] = ()  # the config sections it reads, besides params
    trials: int | None = None  # default trial count
    presets: tuple[str, ...] = ()  # the strategy presets it offers


def _on_params(build: Callable[[dict], object]) -> Callable[[ExperimentConfig, list[str]], None]:
    """The check of a command whose smallest instance is build(params)."""
    return lambda cfg, errs: _attempt(errs, build, cfg.params)


_COMPETITION = ("mechanism", "setting")
_COMPETITION_PRESETS = ("truthful", "extremizer", "round_local_best_response")

_COMMANDS: dict[str, _Command] = {
    "run": _Command(
        _cmd_run, _check_run, ("epsilon",), ("strategies", "pull"), _COMPETITION, 100, _COMPETITION_PRESETS
    ),
    "estimate-complexity": _Command(
        _cmd_estimate_complexity, _check_estimate_complexity, ("epsilon", "delta"), ("m_cap", "strategies", "pull"),
        _COMPETITION, 200, _COMPETITION_PRESETS,
    ),
    "truthfulness-sweep": _Command(
        _cmd_truthfulness_sweep, _check_truthfulness_sweep, ("n", "m", "contexts"), sections=("mechanism",)
    ),
    "online-regret": _Command(
        _cmd_online_regret, _check_online_regret, ("T", "n"), ("eta", "strategies", "pull"), trials=20,
        presets=("truthful", "extremizer", "myopic_best_response"),
    ),
    "lower-bound-demo": _Command(
        _cmd_lower_bound_demo, _on_params(lambda p: perfect_vs_terrible_setting(p["n"], 1)), ("n",), trials=2000
    ),
    "condition-check": _Command(
        _cmd_condition_check, _on_params(lambda p: _condition_report(p, 0, min(p["samples"], 1))),
        ("regularizer", "samples", "radius"), ("dim",),
    ),
    "bounds-table": _Command(
        _cmd_bounds_table, _on_params(_bounds_rows), ("ns", "epsilons", "delta"), ("variants", "gamma")
    ),
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _check_number(value, name: str, errs: list[str], *, low=None, high=None, low_open=False, integer=False) -> None:
    if integer and (not isinstance(value, int) or isinstance(value, bool)):
        errs.append(f"{name} must be an integer, got {value!r}")
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errs.append(f"{name} must be a number, got {value!r}")
        return
    if isinstance(value, float) and not math.isfinite(value):
        errs.append(f"{name} must be finite, got {value}")
        return
    if low is not None and (value <= low if low_open else value < low):
        op = ">" if low_open else ">="
        errs.append(f"{name} must be {op} {low}, got {value}")
    if high is not None and value > high:
        errs.append(f"{name} must be <= {high}, got {value}")


def _number(**bounds) -> Callable[[object, str, list[str]], None]:
    return lambda value, name, errs: _check_number(value, name, errs, **bounds)


def _string(value, name: str, errs: list[str]) -> None:
    if not isinstance(value, str):
        errs.append(f"{name} must be a string, got {value!r}")


def _list_of(item: Callable, what: str, nonempty: bool = False) -> Callable[[object, str, list[str]], None]:
    def check(value, name: str, errs: list[str]) -> None:
        if not isinstance(value, list) or (nonempty and not value):
            errs.append(f"{name} must be a {'nonempty ' if nonempty else ''}list of {what}, got {value!r}")
            return
        for k, entry in enumerate(value):
            item(entry, f"{name}[{k}]", errs)

    return check


def _known(value, name: str, table, errs: list[str]) -> bool:
    if isinstance(value, str) and value in table:
        return True
    errs.append(f"{name} must be one of {list(table)}, got {value!r}")
    return False


_NUMBER = _number()

# top-level keys that a CLI flag of the same name overrides
_FLAGS = ("seed", "trials", "threads", "out")

# JSON type of every key outside the vocabularies.  The bounds on a value are
# the library's (checked by building the config), except those of the CLI's
# own keys: seeds, counts, and the accuracy margin epsilon.
_TYPES: dict[str, Callable[[object, str, list[str]], None]] = {
    **dict.fromkeys(("seed", "setting.setting_seed"), _number(integer=True, low=0)),
    **dict.fromkeys(("trials", "threads", "params.T", "params.contexts", "params.m_cap"), _number(integer=True, low=1)),
    **dict.fromkeys(
        ("setting.n", "setting.m", "params.n", "params.m", "params.samples", "params.dim"), _number(integer=True)
    ),
    **dict.fromkeys(("mechanism.eta", "mechanism.b", "setting.gap", "setting.epsilon", "setting.theta_low"), _NUMBER),
    **dict.fromkeys(("params.delta", "params.pull", "params.radius", "params.gamma"), _NUMBER),
    **dict.fromkeys(("out", "mechanism.regularizer", "mechanism.g", "params.regularizer"), _string),
    "params.epsilon": _number(low=0.0, low_open=True, high=1.0),
    "params.eta": lambda value, name, errs: value == "auto" or _NUMBER(value, name, errs),
    "params.ns": _list_of(_number(integer=True, low=2), "integers", nonempty=True),
    "params.epsilons": _list_of(_NUMBER, "numbers", nonempty=True),
    "params.variants": _list_of(lambda v, name, errs: _known(v, name, _BOUND_VARIANTS, errs), "strings"),
}


def _check_keys(obj: dict, section: str, owner: str, required, optional, errs: list[str]) -> bool:
    """Unknown, missing and mistyped keys of one config section; True when it has none."""
    before = len(errs)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        errs.append(f"unknown {section} keys for {owner}: {sorted(unknown)}")
    for key in required:
        if key not in obj:
            errs.append(f"{owner} requires {section}.{key}")
    for key in (*required, *optional):
        name = f"{section}.{key}"
        if key in obj and name in _TYPES:
            _TYPES[name](obj[key], name, errs)
    return len(errs) == before


def _check_mechanism(spec: dict, errs: list[str]) -> bool:
    if not _known(spec.get("type"), "mechanism.type", _MECHANISMS, errs):
        return False
    required, optional, _ = _MECHANISMS[spec["type"]]
    return _check_keys(spec, "mechanism", spec["type"], ("type", *required), optional, errs)


def _check_setting(spec: dict, errs: list[str]) -> bool:
    if "beliefs" in spec or "theta" in spec:
        return _check_keys(spec, "setting", "an inline setting", ("beliefs", "theta"), (), errs)
    if not _known(spec.get("generator"), "setting.generator", _GENERATORS, errs):
        return False
    optional = ("m", "setting_seed", *_GENERATORS[spec["generator"]][0])
    return _check_keys(spec, "setting", spec["generator"], ("generator", "n"), optional, errs)


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
    unknown = set(data) - {"command", "mechanism", "setting", "params", *_FLAGS}
    if unknown:
        errs.append(f"unknown top-level keys: {sorted(unknown)}")
    for key in _FLAGS:
        if key in data:
            _TYPES[key](data[key], key, errs)
    name = data.get("command", command)
    if name is None:
        raise ConfigError([*errs, "no command given (config key 'command' or CLI subcommand)"])
    if not _known(name, "command", _COMMANDS, errs):
        raise ConfigError(errs)
    if command is not None and name != command:
        errs.append(f"config command {name!r} conflicts with CLI subcommand {command!r}")
    cmd = _COMMANDS[name]

    # The command's check builds the sections that pass their own checks and
    # leaves out (as None) those that do not, which have said what is wrong.
    clean: dict = {}
    for section, check in (("mechanism", _check_mechanism), ("setting", _check_setting)):
        if section not in cmd.sections:
            if section in data:
                errs.append(f"{name} takes no {section}")
        elif section not in data:
            errs.append(f"{name} requires a {section}")
        elif not isinstance(data[section], dict):
            errs.append(f"{section} must be an object, got {data[section]!r}")
        elif check(data[section], errs):
            clean[section] = data[section]
    params = data.get("params", {})
    if not isinstance(params, dict):
        errs.append(f"params must be an object, got {params!r}")
    else:
        keys_ok = _check_keys(params, "params", name, cmd.required, cmd.optional, errs)
        preset_ok = "strategies" not in params or _known(params["strategies"], "params.strategies", cmd.presets, errs)
        if keys_ok and preset_ok:
            clean["params"] = params
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the run itself warns, once
        cmd.check(ExperimentConfig(name, clean.get("mechanism"), clean.get("setting"), clean.get("params")), errs)

    if errs:
        raise ConfigError(errs)
    given = {key: data.get(key) for key in ("mechanism", "setting", "seed", "trials", "out")}
    return ExperimentConfig(command=name, params=params, threads=data.get("threads", 1), **given)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def dispatch(cfg: ExperimentConfig) -> DispatchResult:
    """Run the configured experiment and write results, summary, and manifest."""
    started = time.monotonic()
    master_seed = cfg.seed if cfg.seed is not None else secrets.randbits(63)
    out_dir = Path(cfg.out or "results")
    command = _COMMANDS[cfg.command]
    trials = cfg.trials if cfg.trials is not None else command.trials
    header, rows, summary = command.handler(cfg, master_seed, trials)
    summary["master_seed"] = master_seed
    return _write_outputs(out_dir, header, rows, summary, cfg, master_seed, started)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="forecastcomp",
        description="Forecasting-competition mechanism experiments (reproducible, seeded).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--trials", type=int, default=None, help="trial count (overrides config)")
        p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; changes nothing")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1
    # Flags override the config's keys and are validated with them.
    flags = {key: getattr(args, key) for key in _FLAGS}
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
