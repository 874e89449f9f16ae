"""Each checker accepts the library's real output at tiny sizes and rejects
a deliberately corrupted copy of it."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from forecastcomp import agents, cli, experiments, mechanisms, regularizers  # noqa: E402

TARGET = 0.9


def search(mechanism, n, seed):
    return experiments.estimate_event_complexity(
        mechanism, lambda m: experiments.perfect_vs_terrible_setting(n, m), [agents.Truthful()] * n,
        0.3, 0.1, 40, seed=seed, m_start=8, max_trial_scale=1,
    )


def with_successes(probe, successes):
    rate = successes / probe.trials
    return dataclasses.replace(probe, successes=successes, rate=rate, passed=rate >= TARGET)


def test_mw_probes_match_the_closed_form():
    eta = 0.3 / 40
    est = search(mechanisms.MultWeights(eta=eta), 10, seed=3)
    assert checks.check_search(est, TARGET) == []
    assert checks.check_mw_probes(est.probes, 10, eta) == []
    # a probe count off the closed form
    k = min(range(len(est.probes)), key=lambda i: abs(checks.mw_leader_prob(10, eta, est.probes[i].m) - 0.5))
    probes = list(est.probes)
    probes[k] = with_successes(probes[k], probes[k].trials if probes[k].successes < 30 else 0)
    assert checks.check_mw_probes(probes, 10, eta)


def test_elf_probes_match_the_reference_sampler():
    est = search(mechanisms.Elf(), 10, seed=4)
    assert checks.check_search(est, TARGET) == []
    assert checks.check_elf_probes(est.probes, 10, 2000, seed=5) == []
    top = max(est.probes, key=lambda p: p.rate)
    assert top.rate > 0.8
    probes = [with_successes(p, 0) if p is top else p for p in est.probes]
    assert checks.check_elf_probes(probes, 10, 2000, seed=5)


def test_search_needs_a_failed_probe_below_m_star():
    est = search(mechanisms.MultWeights(eta=0.3 / 40), 10, seed=6)
    moved = dataclasses.replace(est, m_estimate=est.m_estimate + 1)
    assert checks.check_search(moved, TARGET)


def test_estimate_at_its_bound():
    n = 4
    setting = experiments.gap_setting(n, experiments.theoretical_bounds("simple_max", n, 0.3, 0.1), 0.32, seed=1)
    est = experiments.estimate_success_prob(setting, [agents.Truthful()] * n, mechanisms.SimpleMax(), 0.3, 200, 2)
    assert checks.check_estimate(est, TARGET) == []
    low = dataclasses.replace(est, successes=150, rate=0.75)
    assert checks.check_estimate(low, TARGET)


def run_cli(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([config["command"], "--config", str(path), "--out", str(out), "--threads", "2"]) == 0
    rows = list(csv.reader(io.StringIO((out / "results.csv").read_text())))[1:]
    return rows, json.loads((out / "summary.json").read_text())


def test_cli_run_winners(tmp_path):
    config = {
        "command": "run",
        "mechanism": {"type": "mw", "eta": 0.0075},
        "setting": {"generator": "gap", "n": 4, "m": 200, "gap": 0.32},
        "params": {"epsilon": 0.3, "strategies": "round_local_best_response"},
        "seed": 7,
        "trials": 12,
    }
    rows, summary = run_cli(tmp_path, config)
    assert checks.check_cli_run(rows, summary, 4, 0.32, 0.3, 12) == []
    # a winner swapped to a forecaster who is not epsilon-optimal
    k = next(i for i, r in enumerate(rows) if r[1] == "0")
    swapped = [list(r) for r in rows]
    swapped[k][1] = "2"
    assert any("accuracy 1.0" in e for e in checks.check_cli_run(swapped, summary, 4, 0.32, 0.3, 12))
    flagged = [list(r) for r in rows]
    flagged[k][1:] = ["2", repr(1.0 - 0.32), "true"]
    assert any("winner_eps_optimal" in e for e in checks.check_cli_run(flagged, summary, 4, 0.32, 0.3, 12))


def test_lower_bound_demo(tmp_path):
    rows, summary = run_cli(tmp_path, {"command": "lower-bound-demo", "params": {"n": 20}, "seed": 8, "trials": 60})
    assert checks.check_lower_bound_demo(rows, summary, 20, 60) == []
    broken = [list(r) for r in rows]
    k = next(i for i, r in enumerate(rows) if r[0] == "simple_max")
    lo, hi = checks.wilson(59, 60)
    broken[k][4:] = [repr(59 / 60), repr(lo), repr(hi)]
    assert checks.check_lower_bound_demo(broken, summary, 20, 60)


def online(strategies, n, T, eta, seed):
    rng = np.random.default_rng(seed)
    return experiments.online_run(rng.random((n, T)), rng.random(T), strategies,
                                  experiments.OnlinePreference("myopic"), regularizers.NEG_ENTROPY, eta, seed)


def test_online_pis_and_regret():
    n, T = 3, 60
    eta = math.sqrt(math.log(n) / (10 * T))
    trace = online([agents.Truthful()] * n, n, T, eta, seed=9)
    assert checks.check_online(trace, eta, planned=trace.beliefs) == []
    # a perturbed pis row
    pis = trace.pis.copy()
    pis[T // 2] += np.array([1e-9, -1e-9, 0.0])
    assert any("pis" in e for e in checks.check_online(dataclasses.replace(trace, pis=pis), eta))
    errs = checks.check_online(dataclasses.replace(trace, regret=trace.regret + 1e-6), eta)
    assert any("recomputed" in e for e in errs)


def test_online_myopic_band():
    n, T = 3, 20
    eta = math.sqrt(math.log(n) / (10 * T))
    band = 3 * eta + (3 * eta) ** 2
    trace = online([experiments.MyopicBestResponse()] * n, n, T, eta, seed=10)
    assert checks.check_online(trace, eta, band=band) == []
    reports = trace.reports.copy()
    reports[1, 5] = trace.beliefs[1, 5] + (band + 0.01 if trace.beliefs[1, 5] < 0.5 else -band - 0.01)
    errs = checks.check_online(dataclasses.replace(trace, reports=reports), eta, band=band)
    assert any("band" in e for e in errs)


def test_mw_best_response_and_clamp():
    eta, gamma = 0.05, 0.2
    rng = np.random.default_rng(11)
    beliefs, opponents = rng.random(2), rng.random((1, 2))
    ctx = agents.StrategicContext(opponents, beliefs, mechanisms.MultWeights(eta=eta))
    result = agents.best_response_full(ctx, starts=3, seed=0)
    utility = lambda r: checks.mw_utility(r, opponents, beliefs, eta)
    assert checks.check_best_response(result, opponents, beliefs, utility, gamma, 1e-12) == []
    # a best response moved out of its band
    report = result.report.copy()
    report[0] = beliefs[0] + gamma + 0.05 if beliefs[0] < 0.5 else beliefs[0] - gamma - 0.05
    moved = dataclasses.replace(result, report=report, expected_utility=utility(report))
    errs = checks.check_best_response(moved, opponents, beliefs, utility, gamma, 1e-12)
    assert any("band" in e for e in errs)
    r_hat = beliefs.copy()
    r_hat[0] = beliefs[0] + gamma + 0.15 if beliefs[0] <= 0.5 else beliefs[0] - gamma - 0.15
    clamp = agents.dominance_clamp_check(ctx, r_hat, gamma)
    assert checks.check_clamp(clamp, r_hat, utility, 1e-12) == []
    assert checks.check_clamp(dataclasses.replace(clamp, clamped=None), r_hat, utility, 1e-12)


@pytest.mark.parametrize("kind", ["noisy_max", "elf"])
def test_full_best_response_utility(kind):
    rng = np.random.default_rng(12)
    beliefs, opponents = rng.random(2), rng.random((1, 2))
    if kind == "noisy_max":
        mech, band, tol = mechanisms.ReportNoisyMax(b=40.0), 0.1, 1e-6
        utility = lambda r: checks.noisy_max_utility(r, opponents, beliefs, 40.0)
    else:
        mech, band, tol = mechanisms.Elf(), None, 1e-12
        utility = lambda r: checks.elf_utility(r, opponents, beliefs)
    result = agents.best_response_full(agents.StrategicContext(opponents, beliefs, mech), starts=1, seed=0)
    assert checks.check_best_response(result, opponents, beliefs, utility, band, tol) == []
    wrong = dataclasses.replace(result, expected_utility=result.expected_utility + 1e-4)
    assert checks.check_best_response(wrong, opponents, beliefs, utility, band, tol)
