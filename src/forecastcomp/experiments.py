"""Seeded Monte Carlo harnesses for mechanism evaluation.

Covers competition trials (sample outcomes, run a mechanism, check whether
the winner was epsilon-optimal), empirical event-complexity search,
theoretical bound calculators, adversarial scenario generators, a
balls-in-bins maximum-load experiment, and the online no-regret harness.

Every experiment takes one master seed; trial k derives its own stream from
(master, k), so any trial is reproducible in isolation.  Trials run in order
on the calling thread, in chunks that bound the working memory; results do
not depend on the chunk size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from forecastcomp.agents import (
    AgentStrategy,
    Extremizer,
    Truthful,
    _outcome_table,
    _outcome_weights,
    _row_dots,
    _Strategy,
    build_reports,
    lockstep_golden_section_max,
)
from forecastcomp.mechanisms import MechanismConfig, WinnerDraw, derive_seed
from forecastcomp.regularizers import Regularizer
from forecastcomp.scoring import as_probabilities, epsilon_optimal_set

__all__ = [
    "CompetitionSetting",
    "SuccessEstimate",
    "ProbeRecord",
    "ComplexityEstimate",
    "BallsInBinsResult",
    "OnlinePreference",
    "MyopicBestResponse",
    "ConsistentBestResponse",
    "OnlineStrategy",
    "RegretTrace",
    "derive_seed",
    "wilson_interval",
    "random_setting",
    "perfect_vs_terrible_setting",
    "gap_setting",
    "near_tie_setting",
    "identical_beliefs_setting",
    "run_competition_trial",
    "estimate_success_prob",
    "estimate_event_complexity",
    "theoretical_bounds",
    "balls_in_bins_max",
    "online_run",
    "mw_tuned_eta",
    "regret_bound",
]


WILSON_Z = 1.959963984540054  # the two-sided 95% normal quantile
DRAW_CHUNK = 2**15  # working-array elements of one draw call in the trial engine
MAX_HORIZON = 12  # most rounds a consistent best response looks ahead: 2^12 outcome paths


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval: (lower, upper)."""
    z = WILSON_Z
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z**2 / (4.0 * trials**2)) / denom
    return center - half, center + half


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompetitionSetting:
    """A competition instance: belief matrix and ground-truth probabilities."""

    beliefs: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        p = as_probabilities(self.beliefs, "beliefs")
        t = as_probabilities(self.theta, "theta")
        if p.ndim != 2 or p.shape[0] < 2:
            raise ValueError(f"beliefs must be (n, m) with n >= 2, got {p.shape}")
        if t.shape != (p.shape[1],) or p.shape[1] < 1:
            raise ValueError(f"theta shape {t.shape} inconsistent with beliefs {p.shape}")
        object.__setattr__(self, "beliefs", p)
        object.__setattr__(self, "theta", t)

    @property
    def n(self) -> int:
        return self.beliefs.shape[0]

    @property
    def m(self) -> int:
        return self.beliefs.shape[1]

    def accuracies(self) -> np.ndarray:
        # scoring.accuracy per row, without validating the rows again
        return np.array([1.0 - math.fsum(((row - self.theta) ** 2).tolist()) / self.m for row in self.beliefs])

    def epsilon_optimal(self, epsilon: float) -> set[int]:
        return epsilon_optimal_set(self.accuracies(), epsilon)


def random_setting(n: int, m: int, seed: int) -> CompetitionSetting:
    """Uniform-random beliefs and ground truth."""
    rng = np.random.default_rng(seed)
    return CompetitionSetting(rng.random((n, m)), rng.random(m))


def perfect_vs_terrible_setting(n: int, m: int) -> CompetitionSetting:
    """One perfect forecaster among uniformly terrible ones.

    Ground truth is all ones; forecaster 0 believes all ones (accuracy 1),
    everyone else believes all zeros (accuracy 0).  This is the adversarial
    family where point-per-event mechanisms need order n log n events.
    """
    if n < 3:
        raise ValueError(f"the scenario needs n >= 3, got {n}")
    beliefs = np.zeros((n, m))
    beliefs[0] = 1.0
    return CompetitionSetting(beliefs, np.ones(m))


def gap_setting(n: int, m: int, gap: float, seed: int, theta_low: float = 0.2) -> CompetitionSetting:
    """One perfectly calibrated leader, everyone else exactly ``gap`` behind.

    Ground truth alternates between theta_low and 1 - theta_low at random,
    so scores stay noisy; trailing forecasters are pulled toward the wrong
    extreme just enough that their accuracy is 1 - gap.
    """
    spread = (1.0 - 2.0 * theta_low) ** 2
    if not 0.0 < gap <= spread:
        raise ValueError(f"gap must lie in (0, {spread}] for theta_low={theta_low}")
    if n < 2:
        raise ValueError(f"need n >= 2 for a leader and a trailer, got {n}")
    rng = np.random.default_rng(seed)
    theta = np.where(rng.random(m) < 0.5, theta_low, 1.0 - theta_low)
    w = math.sqrt(gap / spread)
    beliefs = np.tile((1.0 - w) * theta + w * (1.0 - theta), (n, 1))
    beliefs[0] = theta
    return CompetitionSetting(beliefs, theta)


def near_tie_setting(n: int, m: int, epsilon: float, seed: int, theta_low: float = 0.1) -> CompetitionSetting:
    """Accuracy tiers at 1, 1 - epsilon, and 1 - 2*epsilon.

    The middle tier sits exactly on the epsilon-optimality boundary; the
    bottom tier is out.  Stresses mechanisms near the decision threshold.
    """
    spread = (1.0 - 2.0 * theta_low) ** 2
    if not 0.0 < 2.0 * epsilon <= spread:
        raise ValueError(f"need 0 < 2*epsilon <= {spread} for theta_low={theta_low}")
    if n < 3:
        raise ValueError(f"need n >= 3 for three tiers, got {n}")
    rng = np.random.default_rng(seed)
    theta = np.where(rng.random(m) < 0.5, theta_low, 1.0 - theta_low)
    w_mid = math.sqrt(epsilon / spread)
    w_low = math.sqrt(2.0 * epsilon / spread)
    beliefs = np.empty((n, m))
    beliefs[0] = theta
    mid = 1 + (n - 1) // 2
    beliefs[1:mid] = (1.0 - w_mid) * theta + w_mid * (1.0 - theta)
    beliefs[mid:] = (1.0 - w_low) * theta + w_low * (1.0 - theta)
    return CompetitionSetting(beliefs, theta)


def identical_beliefs_setting(n: int, m: int, seed: int) -> CompetitionSetting:
    """Every forecaster shares the same random beliefs (full tie)."""
    rng = np.random.default_rng(seed)
    return CompetitionSetting(np.tile(rng.random(m), (n, 1)), rng.random(m))


# ---------------------------------------------------------------------------
# Competition trials
# ---------------------------------------------------------------------------

def _draw_winners(
    reports: np.ndarray,
    theta: np.ndarray,
    mechanism: MechanismConfig,
    seeds: Sequence[tuple[int, int]],
) -> list[WinnerDraw]:
    """The trial engine: trial k samples its outcomes from ``theta`` with
    seed ``seeds[k][0]`` and runs the mechanism on (reports, outcomes) with
    seed ``seeds[k][1]``, one sampler call per chunk of trials, in order.
    Results do not depend on the chunk size."""
    rows = max(1, DRAW_CHUNK // mechanism.trial_elements(*reports.shape))
    sampler = mechanism.sampler(reports)
    draws: list[WinnerDraw] = []
    for start in range(0, len(seeds), rows):
        part = seeds[start:start + rows]
        outcomes = np.array([np.random.default_rng(s).random(theta.size) < theta for s, _ in part], dtype=float)
        draws += sampler(outcomes, [s for _, s in part])
    return draws


def run_competition_trial(
    setting: CompetitionSetting,
    strategies: Sequence[AgentStrategy],
    mechanism: MechanismConfig,
    seed: int,
) -> WinnerDraw:
    """Build reports from strategies, sample outcomes, and run the mechanism; return the draw."""
    reports = build_reports(strategies, setting.beliefs, mechanism)
    [draw] = _draw_winners(reports, setting.theta, mechanism, [(derive_seed(seed, 1), derive_seed(seed, 2))])
    return draw


@dataclass(frozen=True)
class SuccessEstimate:
    """Fraction of trials whose winner was epsilon-optimal, with Wilson 95% CI."""

    successes: int
    trials: int
    rate: float
    lower: float
    upper: float


def estimate_success_prob(
    setting: CompetitionSetting,
    strategies: Sequence[AgentStrategy],
    mechanism: MechanismConfig,
    epsilon: float,
    trials: int,
    seed: int,
    threads: int = 1,
) -> SuccessEstimate:
    """Monte Carlo estimate of the probability of selecting an epsilon-optimal
    forecaster.

    Every strategy's reports are deterministic given the beliefs, so they are
    built once and shared across trials; only outcomes and the mechanism's
    own randomness vary per trial.  Trials run in order on the calling
    thread; ``threads`` is accepted and ignored.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    reports = build_reports(strategies, setting.beliefs, mechanism)
    good = setting.epsilon_optimal(epsilon)
    seeds = [(derive_seed(seed, 1, k), derive_seed(seed, 2, k)) for k in range(trials)]
    successes = sum(draw.winner in good for draw in _draw_winners(reports, setting.theta, mechanism, seeds))
    lower, upper = wilson_interval(successes, trials)
    return SuccessEstimate(
        successes=successes,
        trials=trials,
        rate=successes / trials,
        lower=lower,
        upper=upper,
    )


# ---------------------------------------------------------------------------
# Event complexity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeRecord:
    """One probe of the m-to-success curve."""

    m: int
    trials: int
    successes: int
    rate: float
    lower: float
    upper: float
    decided: bool
    passed: bool


@dataclass
class ComplexityEstimate:
    """Bracketed empirical event-complexity estimate.

    ``m_estimate`` is the smallest probed m whose success rate cleared
    1 - delta; the probes record the bracketing evidence.  This is an
    estimate over the supplied setting family, not a certified worst case
    over all settings.
    """

    mechanism: str
    epsilon: float
    delta: float
    m_estimate: int
    trials: int
    empirical_success: float
    confidence_halfwidth: float
    probes: list[ProbeRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_event_complexity(
    mechanism: MechanismConfig,
    setting_family: Callable[[int], CompetitionSetting],
    strategies: Sequence[AgentStrategy],
    epsilon: float,
    delta: float,
    trials: int,
    seed: int,
    m_start: int = 1,
    m_cap: int = 1 << 20,
    max_trial_scale: int = 4,
    threads: int = 1,
) -> ComplexityEstimate:
    """Search for the smallest event count reaching success rate 1 - delta.

    Exponential doubling finds a passing m, then binary search tightens the
    bracket.  Each probe is a one-sided binomial decision via the Wilson 95%
    interval; when 1 - delta falls inside the interval the probe doubles its
    trials (up to ``max_trial_scale`` times) before deciding on the point
    estimate.  Success monotonicity in m is assumed for the bracketing.
    Trials run in order on the calling thread; ``threads`` is accepted and
    ignored.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    target = 1.0 - delta
    probes: list[ProbeRecord] = []

    def probe(m: int) -> ProbeRecord:
        t = trials
        while True:
            est = estimate_success_prob(setting_family(m), strategies, mechanism, epsilon, t, derive_seed(seed, m, t))
            decided = not (est.lower <= target <= est.upper)
            if decided or t >= trials * max_trial_scale:
                rec = ProbeRecord(
                    m=m,
                    trials=t,
                    successes=est.successes,
                    rate=est.rate,
                    lower=est.lower,
                    upper=est.upper,
                    decided=decided,
                    passed=est.rate >= target,
                )
                probes.append(rec)
                return rec
            t *= 2

    m = m_start
    rec = probe(m)
    while not rec.passed:
        m *= 2
        if m > m_cap:
            raise RuntimeError(f"event-complexity search exceeded the cap m_cap={m_cap}")
        rec = probe(m)
    lo = m // 2 if m > m_start else 0
    hi, hi_rec = m, rec
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid < m_start:
            break
        rec = probe(mid)
        if rec.passed:
            hi, hi_rec = mid, rec
        else:
            lo = mid
    return ComplexityEstimate(
        mechanism=type(mechanism).__name__,
        epsilon=epsilon,
        delta=delta,
        m_estimate=hi,
        trials=hi_rec.trials,
        empirical_success=hi_rec.rate,
        confidence_halfwidth=(hi_rec.upper - hi_rec.lower) / 2.0,
        probes=probes,
    )


# ---------------------------------------------------------------------------
# Theoretical bounds
# ---------------------------------------------------------------------------

def theoretical_bounds(
    variant: str, n: int, epsilon: float, delta: float, gamma: float | None = None
) -> int:
    """Published event-complexity bounds, evaluated and rounded up.

    Variants:
        simple_max: 2 ln(n/delta) / eps^2 (nonstrategic baseline).
        elf: 5 (n-1) ln(4(n-1)/delta) / eps^2 (statement constant).
        elf_proof: 20 (n-1) ln(n/delta) / eps^2 (proof constant; both are
            exposed because they differ).
        mw: 200 ln(2n/delta) / eps^2.
        noisy_max: 28 ln(2n/delta) / (eps * gamma), gamma defaults to eps/14.

    A bound that overflows, or whose denominator underflows to 0, is refused.
    """
    if not 2 <= n <= sys.float_info.max:
        raise ValueError(f"n must lie in [2, {sys.float_info.max}] for a float to hold it, got {n}")
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError(f"epsilon and delta must lie in (0, 1), got {epsilon}, {delta}")
    denominator = epsilon**2
    if variant == "simple_max":
        numerator = 2.0 * math.log(n / delta)
    elif variant == "elf":
        if n < 3:
            raise ValueError("the elf bound needs n >= 3")
        numerator = 5.0 * (n - 1) * math.log(4.0 * (n - 1) / delta)
    elif variant == "elf_proof":
        if n < 3:
            raise ValueError("the elf_proof bound needs n >= 3")
        numerator = 20.0 * (n - 1) * math.log(n / delta)
    elif variant == "mw":
        numerator = 200.0 * math.log(2.0 * n / delta)
    elif variant == "noisy_max":
        g = epsilon / 14.0 if gamma is None else gamma
        if not 0.0 < g <= epsilon / 14.0:
            raise ValueError(f"gamma must lie in (0, epsilon/14], got {g}")
        numerator, denominator = 28.0 * math.log(2.0 * n / delta), epsilon * g
    else:
        raise ValueError(f"unknown bound variant {variant!r}")
    value = numerator / denominator if denominator else math.inf
    if not math.isfinite(value):
        raise ValueError(f"the {variant} bound is not finite at n={n}, epsilon={epsilon}, delta={delta}")
    return math.ceil(value)


# ---------------------------------------------------------------------------
# Balls in bins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallsInBinsResult:
    """Empirical tail probability of the maximum bin load."""

    n_bins: int
    m_balls: int
    trials: int
    c: float
    threshold: float
    probability: float


def balls_in_bins_max(n_bins: int, m_balls: int, trials: int, seed: int) -> BallsInBinsResult:
    """Throw m balls into n bins and estimate P(max load > 4c log n + 1).

    c = m / (n log n), so the threshold simplifies to 4m/n + 1.
    """
    if n_bins < 1 or m_balls < 1 or trials < 1:
        raise ValueError("n_bins, m_balls, and trials must all be >= 1")
    c = m_balls / (n_bins * math.log(n_bins)) if n_bins > 1 else math.inf
    threshold = 4.0 * m_balls / n_bins + 1.0
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(trials):
        loads = np.bincount(rng.integers(0, n_bins, size=m_balls), minlength=n_bins)
        if loads.max() > threshold:
            exceed += 1
    return BallsInBinsResult(
        n_bins=n_bins,
        m_balls=m_balls,
        trials=trials,
        c=c,
        threshold=threshold,
        probability=exceed / trials,
    )


# ---------------------------------------------------------------------------
# Online no-regret harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OnlinePreference:
    """Nonnegative weights an expert places on being selected in later rounds.

    Presets: myopic (weight 1 on the next round only), consistent_uniform
    (weight 1 on every later round), discounted (geometric decay).  A best
    responder looks ahead to the last round its preference weighs: one round
    when myopic, every remaining round otherwise.
    """

    kind: str
    discount: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("myopic", "consistent_uniform", "discounted"):
            raise ValueError(f"unknown preference kind {self.kind!r}")
        if self.kind == "discounted":
            if self.discount is None or not 0.0 < self.discount < 1.0:
                raise ValueError("discounted preference needs discount in (0, 1)")

    def coefficient(self, t: int, s: int) -> float:
        """Weight on the selection at round s from the viewpoint of round t (s > t)."""
        if s <= t:
            raise ValueError(f"coefficients exist for s > t only, got t={t}, s={s}")
        if self.kind == "myopic":
            return 1.0 if s == t + 1 else 0.0
        if self.kind == "consistent_uniform":
            return 1.0
        return self.discount ** (s - t)

    def weights_after(self, t: int, T: int) -> list[float]:
        """Coefficients on the selections after each of rounds t..T-1 (0-based),
        from round t's viewpoint, up to the last positive one."""
        coefs = [self.coefficient(t + 1, s) for s in range(t + 2, T + 2)]
        while coefs and not coefs[-1] > 0.0:
            coefs.pop()
        return coefs


@dataclass(frozen=True)
class ConsistentBestResponse(_Strategy):
    """Online expert maximizing the preference-weighted sum of their later
    selection probabilities, by per-round best response to the others' fixed
    plans.  The expectation enumerates the outcomes of every round up to the
    last one the preference weighs; more than ``MAX_HORIZON`` is refused."""

    responds: ClassVar[bool] = True
    # The preference it plays under; None plays the run's.
    preference: ClassVar[OnlinePreference | None] = None


@dataclass(frozen=True)
class MyopicBestResponse(ConsistentBestResponse):
    """Online expert maximizing only their next-round selection probability:
    the consistent best response under the myopic preference, whatever the
    run's preference."""

    preference: ClassVar[OnlinePreference] = OnlinePreference("myopic")


OnlineStrategy = Truthful | Extremizer | ConsistentBestResponse


@dataclass
class RegretTrace:
    """Everything needed to audit one online run.

    pis[t] is the selection distribution computed from rounds before t only;
    regret is the best expert's total belief score minus the mechanism's
    expected report score.
    """

    beliefs: np.ndarray
    reports: np.ndarray
    outcomes: np.ndarray
    pis: np.ndarray
    eta: float
    regularizer: Regularizer
    regret: float

    def recompute_regret(self) -> float:
        """Re-derive the regret from the stored arrays as the run does, by :func:`_regret` (accounting audit)."""
        return _regret(self.beliefs, self.outcomes, self.reports, self.pis, np.empty(self.pis.shape))

    def replay_pi(self, t: int) -> np.ndarray:
        """Recompute pi^t from the stored history before t (causality audit).

        Accumulates round by round in the same order as the live run, under
        the run's own regularizer, so the replay is bit-for-bit identical.
        ``t`` runs from 0 to T; pi^T is the distribution after the last round.
        """
        T = self.outcomes.size
        if not 0 <= t <= T:
            raise ValueError(f"replay_pi needs 0 <= t <= T = {T}, got {t}")
        totals = np.zeros(self.beliefs.shape[0])
        for s in range(t):
            totals += 1.0 - (self.outcomes[s] - self.reports[:, s]) ** 2
        return self.regularizer.conjugate_grad(self.eta * totals)


def online_run(
    beliefs,
    theta,
    strategies: Sequence[OnlineStrategy],
    preference: OnlinePreference,
    regularizer: Regularizer,
    eta: float,
    seed: int,
) -> RegretTrace:
    """Run the sequential selection game and account its regret.

    At round t the distribution pi^t is the regularized leader of the scores
    from rounds 1..t-1 only.  Outcomes never depend on reports, so all T are
    drawn up front, and so is every expert's fixed plan (responders plan
    truthfully).  A round loop runs only for responders, who best-respond to
    the others' plans (a simultaneous-move reading).  Their searches are
    independent, so each round solves the responders that share a preference
    as one :func:`~forecastcomp.agents.lockstep_golden_section_max` search,
    whose reports equal those of each responder solved alone.  The returned
    trace carries enough state to replay any pi^t exactly.  Its regret is
    :func:`_regret`'s, with the round scores in C-contiguous rows (the per-row
    ``np.dot`` bits need them) written over the softmax's spent input.

    Args:
        beliefs: (n, T) expert belief matrix.
        theta: (T,) ground-truth probabilities.
        strategies: per-expert online strategies.
        preference: utility weights of the responders that fix none of their own.
        regularizer: drives the selection distribution.
        eta: learning rate, must be positive.
        seed: outcome-sampling seed.
    """
    p = as_probabilities(beliefs, "beliefs")
    if p.ndim != 2:
        raise ValueError("beliefs must be an (n, T) matrix")
    t_vec = as_probabilities(theta, "theta")
    n, T = p.shape
    if t_vec.shape != (T,):
        raise ValueError(f"theta shape {t_vec.shape} inconsistent with beliefs {p.shape}")
    if len(strategies) != n:
        raise ValueError(f"got {len(strategies)} strategies for {n} experts")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")

    # Responders at round t answer the plans for rounds t.. (not each other's
    # responses) given the realized totals of the rounds before t, weighing
    # the selections after rounds t, t+1, .. by ``coefs``.  Their searches are
    # independent, so the responders ``idx`` that share ``coefs`` run as one
    # lockstep search over a (G, paths, n) stack: softmax and sums along the
    # last axis give each row the bits of its responder searched alone.
    def respond(idx: list[int], t: int, totals: np.ndarray, coefs: list[float]) -> np.ndarray:
        horizon, rows = len(coefs), np.arange(len(idx))
        paths = _outcome_table(horizon)
        weights = _outcome_weights(p[idx, t : t + horizon], paths)
        local = np.repeat(planned[None, :, t : t + horizon], len(idx), axis=0)

        def utility(r: np.ndarray) -> np.ndarray:
            local[rows, idx, 0] = r
            tot, value = totals, np.zeros(weights.shape)
            for k in range(horizon):
                tot = tot + (1.0 - (paths[:, k : k + 1] - local[:, None, :, k]) ** 2)
                if coefs[k] > 0.0:
                    value += coefs[k] * regularizer.conjugate_grad(eta * tot)[rows, :, idx]
            # summed elementwise, not by a dot product: a myopic response adds p * pi1 + (1 - p) * pi0
            return np.sum(weights * value, axis=-1)

        return lockstep_golden_section_max(utility, np.zeros(len(idx)), np.ones(len(idx)), xtol=1e-8)[0]

    unplayable = [s for s in strategies if s.responds and not isinstance(s, ConsistentBestResponse)]
    if unplayable:
        raise ValueError(f"online_run cannot play the responders {unplayable}")
    responders = {i: s.preference or preference for i, s in enumerate(strategies) if s.responds}
    groups: dict[OnlinePreference, list[int]] = {}
    for i, pref in responders.items():
        groups.setdefault(pref, []).append(i)
    outcomes = (np.random.default_rng(seed).random(T) < t_vec).astype(float)
    planned = np.vstack([s.plan(p[i]) for i, s in enumerate(strategies)])
    # a preference looks furthest ahead at round 0
    for pref in groups:
        horizon = len(pref.weights_after(0, T))
        if horizon > MAX_HORIZON:
            raise ValueError(
                f"consistent best response enumerates 2^{horizon} outcome paths; max_horizon is {MAX_HORIZON}"
            )
    reports = planned
    if responders:
        reports = planned.copy()
        totals = np.zeros(n)
        for t in range(T):
            coefs = {pref: pref.weights_after(t, T) for pref in groups}
            for pref, idx in groups.items():
                reports[idx, t] = respond(idx, t, totals, coefs[pref])
            totals += 1.0 - (outcomes[t] - reports[:, t]) ** 2

    # pis[t] from the scores of rounds before t, as C-contiguous (T, n) rows so
    # that cumsum and the softmax row sums add in replay_pi's order
    before = np.zeros((T, n))
    before[1:] = 1.0 - (outcomes[:-1, None] - reports[:, :-1].T) ** 2
    np.cumsum(before, axis=0, out=before)
    before *= eta
    pis = regularizer.conjugate_grad(before)
    return RegretTrace(p, reports, outcomes, pis, eta, regularizer, _regret(p, outcomes, reports, pis, before))


def _regret(beliefs, outcomes, reports, pis, scores: np.ndarray) -> float:
    """A run's regret, the round scores written into ``scores``, a
    C-contiguous (T, n) buffer apart from ``pis``: a row's dot with ``pis`` has the bits of
    ``np.dot`` only on contiguous rows, as strided ones take another BLAS kernel."""
    np.subtract(outcomes[:, None], reports.T, out=scores)
    np.subtract(1.0, np.square(scores, out=scores), out=scores)
    # fsum of a list: the same exact sum, without boxing a numpy row element by element
    belief_scores = [math.fsum((1.0 - (outcomes - row) ** 2).tolist()) for row in beliefs]
    return max(belief_scores) - math.fsum(_row_dots(pis, scores).tolist())


def mw_tuned_eta(T: int, n: int) -> float:
    """The learning rate sqrt(ln n / (10 T)) at which MW attains its regret bound."""
    if n < 2 or T < 1:
        raise ValueError(f"the tuned learning rate needs n >= 2 and T >= 1, got n={n}, T={T}")
    return math.sqrt(math.log(n) / (10.0 * T))


def regret_bound(
    variant: str,
    T: int,
    n: int | None = None,
    d_r: float | None = None,
    alpha: float | None = None,
    beta: float | None = None,
) -> float:
    """Worst-case regret bounds for the online harness.

    Variants:
        mw: 2 sqrt(10 T log n); requires T >= 8.
        general: 2 sqrt(2 (beta+2) D_R T); requires
            T >= max(1/alpha^2, beta/2) * D_R.
    """
    if variant == "mw":
        if n is None or not n >= 2:
            raise ValueError("the mw bound needs n >= 2")
        if not T >= 8:
            raise ValueError(f"the mw bound requires T >= 8, got T={T}")
        return 2.0 * math.sqrt(10.0 * T * math.log(n))
    if variant == "general":
        if not all(v is not None and v > 0.0 for v in (d_r, alpha, beta)):
            raise ValueError("the general bound needs positive d_r, alpha, beta")
        threshold = max(1.0 / alpha**2, beta / 2.0) * d_r
        if not T >= threshold:
            raise ValueError(
                f"the general bound requires T >= max(1/alpha^2, beta/2) * D_R = {threshold}, got T={T}"
            )
        return 2.0 * math.sqrt(2.0 * (beta + 2.0) * d_r * T)
    raise ValueError(f"unknown regret bound variant {variant!r}")
