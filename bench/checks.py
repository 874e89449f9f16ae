"""Checkers for the benchmark's outputs.

Every checker compares a program output with a computation made here, apart
from the library (closed forms, a separate sampler, brute-force
enumeration, a dense integral), or with a property the output must have.
None compares with a stored copy of earlier output.  Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Tail probability below which a count is taken to contradict its law.
# Each run makes a few dozen such tests, so a false alarm is never expected.
ALPHA = 1e-9
WILSON_Z = 1.959963984540054


def wilson(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return center - half, center + half


def binomial_tails(k: int, trials: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(trials, p)."""
    if p <= 0.0:
        return 1.0, 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return (1.0 if k == trials else 0.0), 1.0
    ks = np.arange(trials + 1)
    logpmf = (
        np.array([math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1) for j in ks])
        + ks * math.log(p)
        + (trials - ks) * math.log1p(-p)
    )
    pmf = np.exp(logpmf)
    return float(pmf[: k + 1].sum()), float(pmf[k:].sum())


def count_fits(k: int, trials: int, p_lo: float, p_hi: float) -> bool:
    """Whether k successes out of ``trials`` fit some success rate in [p_lo, p_hi]."""
    below, _ = binomial_tails(k, trials, p_hi)
    _, above = binomial_tails(k, trials, p_lo)
    return below >= ALPHA / 2 and above >= ALPHA / 2


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def mw_leader_prob(n: int, eta: float, m: int) -> float:
    """MW's chance of picking the perfect forecaster on perfect-vs-terrible.

    theta = 1, so every outcome is 1: the leader scores m, the others 0.
    """
    return 1.0 / (1.0 + (n - 1) * math.exp(-eta * m))


def elf_leader_prob(n: int, m: int, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Wilson bounds (z = 6) on ELF's chance of picking the perfect forecaster.

    On perfect-vs-terrible every event gives the leader the point with
    probability 2/n and each other forecaster (n-2)/(n(n-1)).  Tallies are
    drawn as one multinomial per trial; ties are credited by their exact
    uniform tie-break share.
    """
    other = (n - 2) / (n * (n - 1))
    pvals = np.array([2.0 / n] + [other] * (n - 1))
    tallies = rng.multinomial(m, pvals / pvals.sum(), size=samples)
    lead = tallies[:, 0]
    rest = tallies[:, 1:].max(axis=1)
    ties = (tallies[:, 1:] == rest[:, None]).sum(axis=1)
    share = np.where(lead > rest, 1.0, np.where(lead == rest, 1.0 / (ties + 1.0), 0.0))
    # Shares in [0, 1] average to the win rate; bound it like a proportion.
    return wilson(float(share.sum()), samples, z=6.0)


def check_probe_records(probes, target: float) -> list[str]:
    errs = []
    for p in probes:
        if p.rate != p.successes / p.trials:
            errs.append(f"probe m={p.m}: rate {p.rate} != {p.successes}/{p.trials}")
        if p.passed != (p.rate >= target):
            errs.append(f"probe m={p.m}: passed={p.passed} but rate {p.rate} vs target {target}")
    return errs


def check_mw_probes(probes, n: int, eta: float) -> list[str]:
    errs = []
    for p in probes:
        q = mw_leader_prob(n, eta, p.m)
        if not count_fits(p.successes, p.trials, q, q):
            errs.append(f"MW probe m={p.m}: {p.successes}/{p.trials} successes, closed form {q:.6f}")
    return errs


def check_elf_probes(probes, n: int, samples: int, seed: int) -> list[str]:
    errs = []
    for p in probes:
        lo, hi = elf_leader_prob(n, p.m, samples, np.random.default_rng([seed, p.m]))
        if not count_fits(p.successes, p.trials, max(lo, 0.0), min(hi, 1.0)):
            errs.append(
                f"ELF probe m={p.m}: {p.successes}/{p.trials} successes, "
                f"reference sampler puts the rate in [{lo:.4f}, {hi:.4f}]"
            )
    return errs


def check_search(est, target: float) -> list[str]:
    """m* passed its probe and m* - 1 was probed and failed."""
    by_m = {p.m: p for p in est.probes}
    errs = check_probe_records(est.probes, target)
    top = by_m.get(est.m_estimate)
    if top is None or not top.passed:
        errs.append(f"m*={est.m_estimate} has no passing probe")
    below = by_m.get(est.m_estimate - 1)
    if below is None or below.passed:
        errs.append(f"m*-1={est.m_estimate - 1} was not probed and failed")
    return errs


def check_estimate(est, target: float) -> list[str]:
    errs = []
    if est.rate != est.successes / est.trials:
        errs.append(f"rate {est.rate} != {est.successes}/{est.trials}")
    lo, hi = wilson(est.successes, est.trials)
    if abs(lo - est.lower) > 1e-12 or abs(hi - est.upper) > 1e-12:
        errs.append(f"Wilson interval ({est.lower}, {est.upper}) != recomputed ({lo}, {hi})")
    if est.rate < target:
        errs.append(f"success rate {est.rate} < 1 - delta = {target} at the published bound")
    return errs


# ---------------------------------------------------------------------------
# cli_run
# ---------------------------------------------------------------------------

def check_cli_run(rows: list[list[str]], summary: dict, n: int, gap: float, epsilon: float,
                  trials: int) -> list[str]:
    """rows: results.csv without its header.

    In the gap family forecaster 0 has accuracy 1 and every other exactly
    1 - gap, by construction.
    """
    errs = []
    if [r[0] for r in rows] != [str(k) for k in range(trials)]:
        errs.append(f"expected trial rows 0..{trials - 1}, got {len(rows)} rows")
    successes = 0
    for r in rows:
        winner, acc, flag = int(r[1]), float(r[2]), r[3] == "true"
        if r[3] not in ("true", "false"):
            errs.append(f"trial {r[0]}: winner_eps_optimal is {r[3]!r}")
        expected = 1.0 if winner == 0 else 1.0 - gap
        if not 0 <= winner < n or abs(acc - expected) > 1e-12:
            errs.append(f"trial {r[0]}: winner {winner} with accuracy {acc}, expected {expected}")
        if flag != (acc >= 1.0 - epsilon):
            errs.append(f"trial {r[0]}: winner_eps_optimal={flag} but accuracy {acc}")
        successes += flag
    if summary.get("trials") != trials:
        errs.append(f"summary trials {summary.get('trials')} != {trials}")
    if rows:
        lo, hi = wilson(successes, len(rows))
        if summary.get("success_rate") != successes / len(rows):
            errs.append(f"success_rate {summary.get('success_rate')} != {successes}/{len(rows)}")
        if abs(summary.get("wilson_lower", -1) - lo) > 1e-12 or abs(summary.get("wilson_upper", -1) - hi) > 1e-12:
            errs.append("Wilson bounds in summary do not match the rows")
    return errs


def check_lower_bound_demo(rows: list[list[str]], summary: dict, n: int, trials: int) -> list[str]:
    errs = []
    m = math.ceil(n / 4.0 * math.log(n))
    rates = {}
    for name, rn, rm, rt, rate, lower, upper in rows:
        if (int(rn), int(rm), int(rt)) != (n, m, trials):
            errs.append(f"{name}: (n, m, trials) = ({rn}, {rm}, {rt}), expected ({n}, {m}, {trials})")
        successes = round(float(rate) * trials)
        if float(rate) != successes / trials:
            errs.append(f"{name}: rate {rate} is not a count over {trials}")
        lo, hi = wilson(successes, trials)
        if abs(float(lower) - lo) > 1e-12 or abs(float(upper) - hi) > 1e-12:
            errs.append(f"{name}: Wilson bounds do not match the rate")
        rates[name] = float(rate)
    if set(rates) != {"elf", "simple_max"}:
        return errs + [f"expected rows elf and simple_max, got {sorted(rates)}"]
    if not rates["elf"] < 0.5:
        errs.append(f"ELF success {rates['elf']} is not below 0.5")
    if rates["simple_max"] != 1.0:
        errs.append(f"SimpleMax success {rates['simple_max']} is not 1.0")
    if summary.get("elf_success") != rates["elf"] or summary.get("simple_max_success") != rates["simple_max"]:
        errs.append("summary rates do not match the rows")
    return errs


# ---------------------------------------------------------------------------
# online
# ---------------------------------------------------------------------------

def online_reference(reports: np.ndarray, outcomes: np.ndarray, eta: float) -> np.ndarray:
    """pis[t] = softmax(eta * scores before t), by cumulative sum."""
    scores = 1.0 - (outcomes[None, :] - reports) ** 2  # (n, T)
    before = np.cumsum(scores, axis=1) - scores
    z = eta * before.T
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def check_online(trace, eta: float, planned: np.ndarray | None = None, band: float | None = None) -> list[str]:
    """planned: the fixed plan the reports must equal; band: the bound on |r - p|."""
    errs = []
    n, T = trace.beliefs.shape
    if not np.all((trace.outcomes == 0.0) | (trace.outcomes == 1.0)):
        errs.append("outcomes are not all 0 or 1")
    bound = 2.0 * math.sqrt(10.0 * T * math.log(n))
    if not trace.regret <= bound:
        errs.append(f"regret {trace.regret} exceeds 2 sqrt(10 T ln n) = {bound}")
    ref = online_reference(trace.reports, trace.outcomes, eta)
    worst = float(np.max(np.abs(ref - trace.pis)))
    if not worst <= 1e-12:
        errs.append(f"pis differ from cumsum+softmax by {worst}")
    belief_best = float(np.max(np.sum(1.0 - (trace.outcomes[None, :] - trace.beliefs) ** 2, axis=1)))
    mech = float(np.sum(trace.pis * (1.0 - (trace.outcomes[:, None] - trace.reports.T) ** 2)))
    if not abs((belief_best - mech) - trace.regret) <= 1e-8:
        errs.append(f"regret {trace.regret} != recomputed {belief_best - mech}")
    if planned is not None and not np.array_equal(trace.reports, planned):
        errs.append("reports differ from the experts' fixed plans")
    if band is not None:
        dev = float(np.max(np.abs(trace.reports - trace.beliefs)))
        if not dev <= band:
            errs.append(f"responder moved {dev} from beliefs, band is {band}")
    return errs


# ---------------------------------------------------------------------------
# best_response
# ---------------------------------------------------------------------------

def _outcomes(m: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=m))).reshape(2**m, m)


def _weights(beliefs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    return np.prod(np.where(bits == 1.0, beliefs, 1.0 - beliefs), axis=1)


def _totals(stacked: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(1.0 - (y[None, :] - stacked) ** 2, axis=1)


def mw_utility(report, opponents: np.ndarray, beliefs: np.ndarray, eta: float) -> float:
    """Agent 0's expected MW selection probability, softmax over all 2^m outcomes."""
    stacked = np.vstack([report, opponents])
    bits = _outcomes(beliefs.size)
    total = 0.0
    for y, w in zip(bits, _weights(beliefs, bits)):
        z = eta * _totals(stacked, y)
        e = np.exp(z - z.max())
        total += w * e[0] / e.sum()
    return float(total)


def noisy_max_utility(report, opponents: np.ndarray, beliefs: np.ndarray, b: float,
                      points: int = 400_001) -> float:
    """Agent 0's expected Report-Noisy-Max win probability, by a dense integral.

    P(0 wins | totals q) = integral of the Laplace(0, b) density at w times
    prod_j F(q_0 + w - q_j), by the trapezoid rule on a uniform grid over
    [-40b, 40b].
    """
    stacked = np.vstack([report, opponents])
    w_grid = np.linspace(-40.0 * b, 40.0 * b, points)
    density = np.exp(-np.abs(w_grid) / b) / (2.0 * b)
    bits = _outcomes(beliefs.size)
    total = 0.0
    for y, wt in zip(bits, _weights(beliefs, bits)):
        q = _totals(stacked, y)
        integrand = density.copy()
        for j in range(1, q.size):
            x = q[0] + w_grid - q[j]
            integrand *= np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0) / b),
                                  1.0 - 0.5 * np.exp(-np.maximum(x, 0.0) / b))
        total += wt * float(np.trapezoid(integrand, w_grid))
    return total


def elf_utility(report, opponents: np.ndarray, beliefs: np.ndarray) -> float:
    """Agent 0's expected ELF win probability, enumerating all n^m point paths."""
    stacked = np.vstack([report, opponents])
    n, m = stacked.shape
    bits = _outcomes(m)
    total = 0.0
    for y, wt in zip(bits, _weights(beliefs, bits)):
        s = 1.0 - (y[None, :] - stacked) ** 2
        f = (1.0 + s - (s.sum(axis=0) - s) / (n - 1)) / n  # (n, m)
        win = 0.0
        for path in itertools.product(range(n), repeat=m):
            prob = math.prod(f[i, t] for t, i in enumerate(path))
            tally = [path.count(i) for i in range(n)]
            best = max(tally)
            if tally[0] == best:
                win += prob / tally.count(best)
        total += wt * win
    return total


def check_best_response(result, opponents: np.ndarray, beliefs: np.ndarray, utility,
                        band: float | None, tol: float) -> list[str]:
    """utility(report) is the reference evaluator for this mechanism."""
    errs = []
    gap = float(np.max(np.abs(result.report - beliefs)))
    if band is not None and not gap <= band:
        errs.append(f"best response is {gap} from beliefs, band is {band}")
    u = utility(result.report)
    if not abs(u - result.expected_utility) <= tol:
        errs.append(f"expected_utility {result.expected_utility} != reference {u}")
    truthful = utility(beliefs)
    if not u >= truthful - tol:
        errs.append(f"best response utility {u} < truthful utility {truthful}")
    return errs


def check_clamp(chk, r_hat, utility, tol: float) -> list[str]:
    errs = []
    if chk.clamped is None or not chk.improvement > 0.0:
        errs.append("clamping the out-of-band report did not strictly improve the utility")
    if not abs(utility(r_hat) - chk.utility_original) <= tol:
        errs.append("clamp check utility of the original report != reference")
    return errs
