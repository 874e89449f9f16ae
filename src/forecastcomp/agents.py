"""Strategic forecaster models and best-response machinery.

A strategic forecaster holds immutable beliefs p over the events and chooses
a report vector to maximize their probability of winning, in expectation over
their own beliefs and the mechanism's randomness.  This module provides:

- exact expected-win-probability evaluation by enumerating outcome vectors
  (with a Monte Carlo fallback beyond the enumeration budget),
- the closed-form leave-one-out optimal report for regularized-leader
  mechanisms and the fixed-point optimal report for noisy-max selection,
- a full best-response solver (cyclic coordinate ascent with golden-section
  line search, multi-started),
- a dominance check that clamps out-of-band coordinates toward beliefs and
  verifies the exact utility strictly improves,
- truthfulness-gap sweeps comparing empirical best-response deviations
  against the theoretical bands.

Conventions: the strategic agent always sits at row 0 of the stacked report
matrix; every mechanism here is anonymous, so this loses no generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from forecastcomp.mechanisms import Ftrl, MechanismConfig
from forecastcomp.regularizers import NEG_ENTROPY, Regularizer
from forecastcomp.scoring import as_probabilities

__all__ = [
    "Truthful",
    "FixedReport",
    "Extremizer",
    "BestResponse",
    "AgentStrategy",
    "StrategicContext",
    "BestResponseResult",
    "ClampCheck",
    "TruthfulnessGapReport",
    "golden_section_max",
    "extremize",
    "strategy_report_row",
    "build_reports",
    "round_local_best_response",
    "expected_win_prob",
    "mw_leave_one_out_optimum",
    "noisy_max_fixed_point",
    "best_response_full",
    "dominance_clamp_check",
    "truthfulness_gap_sweep",
]

DEFAULT_ENUM_BUDGET = 20


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class _Strategy:
    """Every strategy commits in advance to ``plan(beliefs)``; one that
    ``responds`` plans truthfully, then best-responds to the others' plans."""

    responds: ClassVar[bool] = False

    def plan(self, beliefs) -> np.ndarray:
        return as_probabilities(beliefs, "beliefs").copy()


@dataclass(frozen=True)
class Truthful(_Strategy):
    """Report beliefs unchanged."""


@dataclass(frozen=True)
class FixedReport(_Strategy):
    """Report a fixed vector regardless of beliefs."""

    report: tuple[float, ...]

    def plan(self, beliefs) -> np.ndarray:
        p = as_probabilities(beliefs, "beliefs")
        r = as_probabilities(np.asarray(self.report, dtype=float), "fixed report")
        if r.shape != p.shape:
            raise ValueError(f"fixed report shape {r.shape} does not match beliefs {p.shape}")
        return r


@dataclass(frozen=True)
class Extremizer(_Strategy):
    """Pull beliefs toward their nearest extreme: (1-pull)*p + pull*round(p).

    Models the variance-seeking misreporter: probabilities at or above 1/2
    are pushed toward 1, the rest toward 0.
    """

    pull: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.pull <= 1.0:
            raise ValueError(f"pull must lie in [0, 1], got {self.pull}")

    def plan(self, beliefs) -> np.ndarray:
        return extremize(beliefs, self.pull)


@dataclass(frozen=True)
class BestResponse(_Strategy):
    """Best-respond to the other forecasters' reports.

    ``mode='exact'`` runs the full solver (needs small m); ``mode='round_local'``
    uses the closed-form per-round optimum against expected continuations,
    which scales to any m for regularized-leader mechanisms.
    """

    mode: str = "exact"
    starts: int = 5

    responds: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "round_local"):
            raise ValueError(f"unknown best-response mode {self.mode!r}")


AgentStrategy = Truthful | FixedReport | Extremizer | BestResponse


def extremize(beliefs, pull: float) -> np.ndarray:
    p = as_probabilities(beliefs, "beliefs")
    rounded = (p >= 0.5).astype(float)
    return (1.0 - pull) * p + pull * rounded


@dataclass(frozen=True)
class StrategicContext:
    """One forecaster's decision problem: opponents' reports, own beliefs, mechanism."""

    opponent_reports: np.ndarray
    own_beliefs: np.ndarray
    mechanism: MechanismConfig

    def __post_init__(self) -> None:
        opp = np.asarray(self.opponent_reports, dtype=float)
        p = np.asarray(self.own_beliefs, dtype=float)
        if opp.ndim != 2 or opp.shape[0] < 1:
            raise ValueError(f"opponent_reports must be (n-1, m) with n >= 2, got {opp.shape}")
        if p.ndim != 1 or p.shape[0] != opp.shape[1]:
            raise ValueError(f"own_beliefs shape {p.shape} inconsistent with opponents {opp.shape}")
        if p.size > 0:
            as_probabilities(opp, "opponent_reports")
            as_probabilities(p, "own_beliefs")
        object.__setattr__(self, "opponent_reports", opp)
        object.__setattr__(self, "own_beliefs", p)

    @property
    def n(self) -> int:
        return self.opponent_reports.shape[0] + 1

    @property
    def m(self) -> int:
        return self.opponent_reports.shape[1]


# ---------------------------------------------------------------------------
# Exact expected utility
# ---------------------------------------------------------------------------

def _outcome_table(m: int) -> np.ndarray:
    if m == 0:
        return np.zeros((1, 0))
    return ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)


def _outcome_weights(beliefs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    if beliefs.size == 0:
        return np.ones(1)
    return np.prod(bits * beliefs + (1.0 - bits) * (1.0 - beliefs), axis=1)


def _exact_utility(ctx: StrategicContext, enum_budget: int = DEFAULT_ENUM_BUDGET) -> Callable[[np.ndarray], float]:
    """Expected win probability of agent 0 as a function of their report.

    Enumerates all outcome vectors once; the mechanism's utility kernel
    caches everything that does not depend on the agent's own report.
    """
    if ctx.m > enum_budget:
        raise ValueError(
            f"m={ctx.m} exceeds the exact enumeration budget {enum_budget}; "
            "pass mc_trials for a Monte Carlo estimate"
        )
    bits = _outcome_table(ctx.m)
    weights = _outcome_weights(ctx.own_beliefs, bits)
    win_probs = ctx.mechanism.utility_kernel(ctx.opponent_reports, bits)
    return lambda report: float(np.dot(weights, win_probs(np.asarray(report, dtype=float))))


def expected_win_prob(
    ctx: StrategicContext,
    candidate,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    mc_trials: int | None = None,
    seed: int = 0,
) -> float:
    """Expected probability that the agent wins with the candidate report.

    Exact by enumeration over all 2^m outcome vectors when m is within
    ``enum_budget``; otherwise requires ``mc_trials`` for a Monte Carlo
    estimate over outcomes drawn from the agent's own beliefs.

    Args:
        ctx: the agent's strategic context (opponents, beliefs, mechanism).
        candidate: (m,) report vector to evaluate.
        enum_budget: largest m for exact enumeration.
        mc_trials: outcome samples for the fallback estimate.
        seed: seed for the fallback sampling.
    """
    r = np.asarray(candidate, dtype=float)
    if r.shape != (ctx.m,):
        raise ValueError(f"candidate shape {r.shape} does not match m={ctx.m}")
    if r.size > 0:
        as_probabilities(r, "candidate")
    if ctx.m <= enum_budget:
        return _exact_utility(ctx, enum_budget)(r)
    if mc_trials is None:
        raise ValueError(
            f"m={ctx.m} exceeds the enumeration budget {enum_budget} and no "
            "mc_trials fallback was enabled"
        )
    rng = np.random.default_rng(seed)
    stacked = np.vstack([r, ctx.opponent_reports])
    total = 0.0
    for _ in range(mc_trials):
        y = (rng.random(ctx.m) < ctx.own_beliefs).astype(float)
        total += float(ctx.mechanism.law(stacked, y)[0])
    return total / mc_trials


# ---------------------------------------------------------------------------
# 1-D search
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-8) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


# ---------------------------------------------------------------------------
# Closed-form / fixed-point per-round optima
# ---------------------------------------------------------------------------

def _require_eta_in_range(eta: float, reg: Regularizer) -> None:
    if reg.declared is None:
        raise ValueError(f"regularizer {reg.name} declares no curvature constants")
    limit = reg.declared.eta_ceiling
    if not 0.0 < eta < limit:
        raise ValueError(
            f"eta={eta} violates the per-round optimum precondition "
            f"eta < min(alpha/2, 1/beta) = {limit}"
        )


def mw_leave_one_out_optimum(
    p_it: float,
    q0,
    q1,
    eta: float,
    index: int = 0,
    regularizer: Regularizer = NEG_ENTROPY,
) -> float:
    """Optimal single-round report given the two continuation score vectors.

    ``q0`` and ``q1`` are the total-score vectors of all forecasters under
    the two outcomes of the round in question; the curvature factors of the
    conjugate are evaluated at those provided vectors.  The optimum of the
    induced per-round objective

        (1-p) * d2C(eta q0) * S(r, 0) + p * d2C(eta q1) * S(r, 1)

    has the closed form  p * K1 / ((1-p) * K0 + p * K1)  with
    K_y = d2C(eta q_y).  Equal continuations give back r = p exactly, and
    because log d2C is beta-Lipschitz and the two vectors differ by at most 1
    per coordinate, the result always satisfies |r - p| <= beta*eta + (beta*eta)^2.

    Args:
        p_it: the forecaster's belief for this round.
        q0: (n,) total scores if the round's outcome is 0.
        q1: (n,) total scores if the round's outcome is 1.
        eta: learning rate; must satisfy eta < min(alpha/2, 1/beta).
        index: the forecaster's coordinate in the score vectors.
        regularizer: regularizer whose conjugate drives the mechanism.
    """
    if not 0.0 <= p_it <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {p_it}")
    _require_eta_in_range(eta, regularizer)
    a0 = np.asarray(q0, dtype=float)
    a1 = np.asarray(q1, dtype=float)
    if a0.shape != a1.shape or a0.ndim != 1:
        raise ValueError(f"q0 and q1 must be 1-D vectors of equal length, got {a0.shape} vs {a1.shape}")
    if np.max(np.abs(a0 - a1)) > 1.0 + 1e-9:
        raise ValueError("inconsistent continuations: ||q0 - q1||_inf must be <= 1")
    k0 = regularizer.conjugate_partial2(eta * a0, index)
    k1 = regularizer.conjugate_partial2(eta * a1, index)
    if k0 <= 0.0 or k1 <= 0.0:
        raise ValueError("conjugate second partial must be positive at both continuations")
    ratio = k0 / k1
    if ratio == 1.0:
        return p_it
    return p_it / ((1.0 - p_it) * ratio + p_it)


def noisy_max_fixed_point(
    p_it: float,
    mu0: float,
    mu1: float,
    b: float,
    max_iter: int = 100,
    tol: float = 1e-12,
) -> float:
    """Optimal single-round report under noisy-max selection.

    Solves r = p / (E - p E + p) where
    E(r) = exp((|S(r,1) - mu1| - |S(r,0) - mu0|) / b), the ratio of Laplace
    densities at the two outcome branches.  For b >= 4 the map is a
    contraction (|d rhs/dr| <= 2/b), so plain iteration converges; failure to
    converge within ``max_iter`` indicates a bug and raises.

    Args:
        p_it: belief for the round.
        mu0: gap between the best opposing noisy total and own continuation
            score when the outcome is 0.
        mu1: same with outcome 1; must satisfy |mu1 - mu0| <= 1.
        b: Laplace scale, at least 4.
        max_iter: iteration cap.
        tol: convergence tolerance on successive iterates.
    """
    if not 0.0 <= p_it <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {p_it}")
    if b < 4.0:
        raise ValueError(f"the fixed-point contraction requires b >= 4, got {b}")
    if abs(mu1 - mu0) > 1.0 + 1e-9:
        raise ValueError("inconsistent continuations: |mu1 - mu0| must be <= 1")

    def step(r: float) -> float:
        s1 = 1.0 - (1.0 - r) ** 2
        s0 = 1.0 - r**2
        e = math.exp((abs(s1 - mu1) - abs(s0 - mu0)) / b)
        return p_it / (e - p_it * e + p_it)

    r = p_it
    for _ in range(max_iter):
        nxt = step(r)
        if abs(nxt - r) <= tol:
            return nxt
        r = nxt
    raise RuntimeError(
        f"fixed-point iteration failed to converge within {max_iter} steps "
        f"(p={p_it}, mu0={mu0}, mu1={mu1}, b={b})"
    )


# ---------------------------------------------------------------------------
# Full best response
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestResponseResult:
    """Solver output: the report, its exact expected utility, and whether the
    per-coordinate search was certified by a concavity/unimodality guarantee."""

    report: np.ndarray
    expected_utility: float
    certified: bool


def best_response_full(
    ctx: StrategicContext,
    starts: int = 5,
    coord_tol: float = 1e-8,
    max_cycles: int = 200,
    seed: int = 0,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    grid_points: int = 201,
) -> BestResponseResult:
    """Maximize the exact expected win probability over reports in [0,1]^m.

    Cyclic coordinate ascent; each coordinate is solved by golden-section
    search when the mechanism guarantees per-coordinate unimodality of the
    expected utility (regularized leaders, noisy max).  Mechanisms without
    that guarantee (Simple Max, event lotteries) fall back to a dense
    coordinate grid and the result is flagged non-certified.

    The solver multi-starts (beliefs plus random starts) and keeps the best.
    """
    utility = _exact_utility(ctx, enum_budget)
    m = ctx.m
    certified = ctx.mechanism.unimodal
    rng = np.random.default_rng(seed)
    start_points = [ctx.own_beliefs.copy()]
    for _ in range(max(0, starts - 1)):
        start_points.append(rng.random(m))

    grid = np.linspace(0.0, 1.0, grid_points)
    best_r: np.ndarray | None = None
    best_u = -math.inf
    for r0 in start_points:
        r = r0.copy()
        u = utility(r)
        for _ in range(max_cycles):
            moved = 0.0
            for t in range(m):
                def f(v: float, t: int = t) -> float:
                    r[t] = v
                    return utility(r)

                old = r[t]
                if certified:
                    x, fx = golden_section_max(f, 0.0, 1.0, xtol=coord_tol)
                else:
                    vals = np.array([f(float(v)) for v in grid])
                    k = int(np.argmax(vals))
                    x, fx = float(grid[k]), float(vals[k])
                # Only a strict gain moves the coordinate: on a flat utility the
                # line search's answer drifts between cycles and never settles.
                if fx > u:
                    r[t] = x
                    u = fx
                    moved = max(moved, abs(x - old))
                else:
                    r[t] = old
            if moved <= coord_tol:
                break
        if u > best_u:
            best_u = u
            best_r = r.copy()
    assert best_r is not None
    return BestResponseResult(report=best_r, expected_utility=best_u, certified=certified)


@dataclass(frozen=True)
class ClampCheck:
    """Outcome of the dominance clamp: the candidate clamped toward beliefs
    (None when already in band) and the exact utilities of both reports."""

    clamped: np.ndarray | None
    utility_original: float
    utility_clamped: float

    @property
    def improvement(self) -> float:
        return self.utility_clamped - self.utility_original


def dominance_clamp_check(ctx: StrategicContext, r_hat, gamma: float) -> ClampCheck:
    """Clamp out-of-band coordinates toward beliefs and compare exact utilities.

    Any coordinate with |r_hat_t - p_t| > gamma is moved to the band edge
    p_t +/- gamma; the unchanged report is returned as "not clamped" (None).
    Only regularized-leader mechanisms carry the dominance guarantee.
    """
    if not isinstance(ctx.mechanism, Ftrl):
        raise ValueError("the clamp dominance construction applies to regularized leaders only")
    _require_eta_in_range(ctx.mechanism.eta, ctx.mechanism.regularizer)
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    r = as_probabilities(r_hat, "r_hat")
    if r.shape != (ctx.m,):
        raise ValueError(f"r_hat shape {r.shape} does not match m={ctx.m}")
    p = ctx.own_beliefs
    clamped = np.clip(r, p - gamma, p + gamma)
    utility = _exact_utility(ctx)
    u_orig = utility(r)
    if not np.any(np.abs(r - p) > gamma):
        return ClampCheck(clamped=None, utility_original=u_orig, utility_clamped=u_orig)
    return ClampCheck(clamped=clamped, utility_original=u_orig, utility_clamped=utility(clamped))


# ---------------------------------------------------------------------------
# Truthfulness gap sweeps
# ---------------------------------------------------------------------------

@dataclass
class TruthfulnessGapReport:
    """Worst observed best-response deviation against the theoretical band.

    ``gamma_theoretical`` is (beta+1)*eta for regularized leaders, 4/b for
    noisy max, and None for mechanisms with no truthfulness guarantee.
    """

    mechanism: str
    gamma_empirical: float
    gamma_theoretical: float | None
    num_contexts: int
    witness: dict
    gaps: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "gamma_empirical": self.gamma_empirical,
            "gamma_theoretical": self.gamma_theoretical,
            "num_contexts": self.num_contexts,
            "witness": self.witness,
            "gaps": self.gaps,
            "notes": self.notes,
        }


def truthfulness_gap_sweep(
    mechanism: MechanismConfig,
    n: int,
    m: int,
    num_contexts: int,
    seed: int,
    extra_contexts: tuple[StrategicContext, ...] = (),
    starts: int = 3,
) -> TruthfulnessGapReport:
    """Measure the worst best-response deviation over random contexts.

    Contexts draw beliefs and opponent reports uniformly; each best response
    upper-bounds the undominated-report gap, since best responses are never
    dominated.

    Args:
        mechanism: mechanism configuration under test.
        n: number of forecasters (the agent plus n-1 opponents).
        m: events per context; must fit the exact enumeration budget.
        num_contexts: number of random contexts.
        seed: master seed; context k derives its own stream.
        extra_contexts: handcrafted contexts appended to the sweep.
        starts: solver multi-starts per context.
    """
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if m > DEFAULT_ENUM_BUDGET:
        raise ValueError(f"m={m} exceeds the exact enumeration budget {DEFAULT_ENUM_BUDGET} of each best response")
    rng = np.random.default_rng(seed)
    worst = -1.0
    witness: dict = {}
    gaps: list[float] = []
    contexts: list[StrategicContext] = [
        StrategicContext(rng.random((n - 1, m)), rng.random(m), mechanism)
        for _ in range(num_contexts)
    ]
    contexts.extend(extra_contexts)
    for k, ctx in enumerate(contexts):
        result = best_response_full(ctx, starts=starts, seed=k)
        gap = float(np.max(np.abs(result.report - ctx.own_beliefs)))
        gaps.append(gap)
        if gap > worst:
            worst = gap
            witness = {
                "context_index": k,
                "beliefs": [float(v) for v in ctx.own_beliefs],
                "opponent_reports": [[float(v) for v in row] for row in ctx.opponent_reports],
                "best_response": [float(v) for v in result.report],
                "gap": gap,
            }
    gamma_theory, notes = mechanism.truthfulness_band()
    return TruthfulnessGapReport(
        mechanism=type(mechanism).__name__,
        gamma_empirical=worst,
        gamma_theoretical=gamma_theory,
        num_contexts=len(contexts),
        witness=witness,
        gaps=gaps,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Report construction for competition trials
# ---------------------------------------------------------------------------

def round_local_best_response(
    beliefs,
    opponent_reports,
    eta: float,
    regularizer: Regularizer = NEG_ENTROPY,
) -> np.ndarray:
    """Scalable strategic-report model for regularized-leader mechanisms.

    For every round, plays the closed-form leave-one-out optimum against the
    expected continuation scores (expectations under the agent's own beliefs,
    opponents taken at their current reports, own continuation truthful).
    Because the two continuation vectors never differ by more than 1 per
    coordinate, the output provably stays within the approximate-truthfulness
    band |r_t - p_t| <= beta*eta + (beta*eta)^2 at any scale.
    """
    p = as_probabilities(beliefs, "beliefs")
    opp = np.asarray(opponent_reports, dtype=float)
    if opp.ndim != 2 or opp.shape[1] != p.size:
        raise ValueError(f"opponent_reports shape {opp.shape} inconsistent with beliefs {p.shape}")
    _require_eta_in_range(eta, regularizer)
    stacked = np.vstack([p, opp])
    s1 = 1.0 - (1.0 - stacked) ** 2
    s0 = 1.0 - stacked**2
    expected = p * s1 + (1.0 - p) * s0
    totals = expected.sum(axis=1)
    # continuation totals of every forecaster, one row per round
    q0 = (totals[:, None] - expected + s0).T
    q1 = (totals[:, None] - expected + s1).T
    k0 = regularizer.conjugate_partial2(eta * q0, 0)
    k1 = regularizer.conjugate_partial2(eta * q1, 0)
    return p * k1 / ((1.0 - p) * k0 + p * k1)


def strategy_report_row(
    strategy: AgentStrategy,
    beliefs,
    opponent_reports=None,
    mechanism: MechanismConfig | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Report row produced by one strategy for one forecaster: its plan, or a
    best responder's response to ``opponent_reports`` under ``mechanism``."""
    if not strategy.responds:
        return strategy.plan(beliefs)
    if opponent_reports is None or mechanism is None:
        raise ValueError("best-response strategies need opponent reports and a mechanism")
    p = as_probabilities(beliefs, "beliefs")
    if strategy.mode == "round_local":
        if not isinstance(mechanism, Ftrl):
            raise ValueError("round_local best response needs a regularized-leader mechanism")
        return round_local_best_response(p, opponent_reports, mechanism.eta, mechanism.regularizer)
    ctx = StrategicContext(np.asarray(opponent_reports, dtype=float), p, mechanism)
    return best_response_full(ctx, starts=strategy.starts, seed=seed).report


def build_reports(
    strategies,
    beliefs,
    mechanism: MechanismConfig,
    seed: int = 0,
) -> np.ndarray:
    """Assemble the report matrix for a profile of strategies.

    Every strategy first reports its plan; best responders then respond to
    the other rows of that first pass, matching a simultaneous-move reading
    where each agent responds to a fixed plan of the others.
    """
    p = as_probabilities(beliefs, "beliefs")
    if p.ndim != 2:
        raise ValueError("beliefs must be an (n, m) matrix")
    n = p.shape[0]
    if len(strategies) != n:
        raise ValueError(f"got {len(strategies)} strategies for {n} forecasters")
    reports = np.vstack([s.plan(p[i]) for i, s in enumerate(strategies)])
    for i, s in enumerate(strategies):
        if s.responds:
            others = np.delete(reports, i, axis=0)
            reports[i] = strategy_report_row(s, p[i], others, mechanism, seed=seed + i)
    return reports
