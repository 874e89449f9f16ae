"""Strategic forecaster models and best-response machinery.

A strategic forecaster holds immutable beliefs p over the events and chooses
a report vector to maximize their probability of winning, in expectation over
their own beliefs and the mechanism's randomness.  This module provides:

- exact expected-win-probability evaluation by enumerating outcome vectors,
- the closed-form leave-one-out optimal report for regularized-leader
  mechanisms and the fixed-point optimal report for noisy-max selection,
- a full best-response solver (cyclic coordinate ascent, multi-started,
  with golden-section line search on each coordinate's precomputed line
  where the mechanism certifies unimodality, and otherwise a coordinate
  grid evaluated in one ``law`` call),
- the scalar golden-section search, and its lockstep form over G
  independent brackets with one stacked function call per step (the online
  harness solves a round's responders with it),
- a dominance check that clamps out-of-band coordinates toward beliefs and
  verifies the exact utility strictly improves,
- truthfulness-gap sweeps comparing empirical best-response deviations
  against the theoretical bands.

Conventions: the strategic agent always sits at row 0 of the stacked report
matrix; every mechanism here is anonymous, so this loses no generality.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, ClassVar

import numpy as np

from forecastcomp.mechanisms import Ftrl, MechanismConfig
from forecastcomp.regularizers import NEG_ENTROPY, Regularizer
from forecastcomp.scoring import as_probabilities

__all__ = [
    "Truthful",
    "Extremizer",
    "BestResponse",
    "AgentStrategy",
    "StrategicContext",
    "BestResponseResult",
    "ClampCheck",
    "TruthfulnessGapReport",
    "golden_section_max",
    "lockstep_golden_section_max",
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

ENUM_BUDGET = 20  # largest m whose 2^m outcome vectors are enumerated exactly
COORD_TOL = 1e-8  # best-response line-search and convergence tolerance
MAX_CYCLES = 200  # best-response coordinate cycles per start
GRID_POINTS = 201  # coordinate grid where no unimodality certificate holds
SWEEP_STARTS = 3  # best-response multi-starts per truthfulness-sweep context
FIXED_POINT_TOL = 1e-12  # noisy_max_fixed_point stops when successive iterates are this close


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
class Extremizer(_Strategy):
    """Pull beliefs toward their nearest extreme: (1-pull)*p + pull*round(p).

    Models the variance-seeking misreporter: probabilities at or above 1/2
    are pushed toward 1, the rest toward 0.
    """

    pull: float

    def __post_init__(self) -> None:
        _require_pull(self.pull)

    def plan(self, beliefs) -> np.ndarray:
        return extremize(beliefs, self.pull)


@dataclass(frozen=True)
class BestResponse(_Strategy):
    """Best-respond to the other forecasters' reports by
    :func:`round_local_best_response`, the closed-form per-round optimum
    against expected continuations; it scales to any m under a regularized
    leader.  ``'round_local'`` is the one ``mode``."""

    mode: str = "round_local"

    responds: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.mode != "round_local":
            raise ValueError(f"unknown best-response mode {self.mode!r}: the one mode is 'round_local'")


AgentStrategy = Truthful | Extremizer | BestResponse


def _require_pull(pull: float) -> None:
    if not 0.0 <= pull <= 1.0:
        raise ValueError(f"pull must lie in [0, 1], got {pull}")


def extremize(beliefs, pull: float) -> np.ndarray:
    _require_pull(pull)
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
    """The (..., B) probabilities of the (B, m) outcome rows ``bits`` under
    (..., m) beliefs, one product along the last axis per row."""
    b = beliefs[..., None, :]
    return np.prod(bits * b + (1.0 - bits) * (1.0 - b), axis=-1)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of ``a`` and ``b`` (leading axes broadcast) in one
    ``matmul`` call, each with the bits of a 1-D ``np.dot`` on rows of the same strides."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class _ExactUtility:
    """Expected win probability of agent 0 as a function of their report: a
    float for an (m,) report, a (G,) array for a (G, m) stack of candidates
    under a law-based kernel (Simple Max and the lotteries: the grid path).

    Enumerates all outcome vectors once; the mechanism's utility kernel
    evaluates its law over all of them, and over every candidate, in one call.
    Each candidate's expectation has the bits of its own 1-D ``np.dot``
    (:func:`_row_dots`) on the kernel's rows as they are strided: a
    matrix-vector product over the stack rounds differently in the last bits.
    """

    def __init__(self, ctx: StrategicContext) -> None:
        if ctx.m > ENUM_BUDGET:
            raise ValueError(
                f"m={ctx.m} exceeds the exact enumeration budget {ENUM_BUDGET}: "
                f"the exact solver enumerates all 2^m outcome vectors and needs m <= {ENUM_BUDGET}"
            )
        bits = _outcome_table(ctx.m)
        self.weights = _outcome_weights(ctx.own_beliefs, bits)
        self.win_probs, self.line = ctx.mechanism.utility_kernel(ctx.opponent_reports, bits)

    def __call__(self, report) -> float | np.ndarray:
        probs = self.win_probs(np.asarray(report, dtype=float))
        values = _row_dots(self.weights, probs)
        return float(values) if probs.ndim == 1 else values


def expected_win_prob(ctx: StrategicContext, candidate) -> float:
    """Expected probability that the agent wins with the (m,) candidate
    report, exact by enumeration over all 2^m outcome vectors; m above
    ``ENUM_BUDGET`` is refused."""
    r = np.asarray(candidate, dtype=float)
    if r.shape != (ctx.m,):
        raise ValueError(f"candidate shape {r.shape} does not match m={ctx.m}")
    if r.size > 0:
        as_probabilities(r, "candidate")
    return _ExactUtility(ctx)(r)


# ---------------------------------------------------------------------------
# 1-D search
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-8) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    if not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol}: the bracket stops shrinking at adjacent doubles")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"the bracket needs finite lo <= hi, got [{lo}, {hi}]")
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


def lockstep_golden_section_max(
    f: Callable[[np.ndarray], np.ndarray], lo, hi, xtol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`golden_section_max` of G independent unimodal functions at once.

    ``f`` maps a (G,) array of points, one per row, to their (G,) values, and
    row g searches [lo[g], hi[g]].  Every step makes one call of ``f`` for all
    rows.  A row's bracket arithmetic and comparisons are the scalar
    search's, applied by ``np.where``, and a row whose bracket is within
    ``xtol`` stops updating (``f`` still sees a point inside its bracket).
    So row g returns the bits of ``golden_section_max`` on row g of ``f``.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol}: the bracket stops shrinking at adjacent doubles")
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a <= b))
    if np.any(bad):
        g = int(np.argmax(bad))
        raise ValueError(f"the bracket needs finite lo <= hi, got [{a.flat[g]}, {b.flat[g]}] in row {g}")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    live = b - a > xtol
    while live.any():
        left = live & (fc >= fd)
        right = live & ~left
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        live = b - a > xtol
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


def mw_leave_one_out_optimum(p_it: float, q0, q1, eta: float) -> float:
    """Optimal single-round report of forecaster 0 under multiplicative weights,
    given the two continuation score vectors.

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
    """
    if not 0.0 <= p_it <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {p_it}")
    _require_eta_in_range(eta, NEG_ENTROPY)
    a0 = np.asarray(q0, dtype=float)
    a1 = np.asarray(q1, dtype=float)
    if a0.shape != a1.shape or a0.ndim != 1:
        raise ValueError(f"q0 and q1 must be 1-D vectors of equal length, got {a0.shape} vs {a1.shape}")
    if np.max(np.abs(a0 - a1)) > 1.0 + 1e-9:
        raise ValueError("inconsistent continuations: ||q0 - q1||_inf must be <= 1")
    k0 = NEG_ENTROPY.conjugate_partial2(eta * a0, 0)
    k1 = NEG_ENTROPY.conjugate_partial2(eta * a1, 0)
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
        max_iter: iteration cap; iteration stops once successive iterates
            are within ``FIXED_POINT_TOL``.
    """
    if not 0.0 <= p_it <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {p_it}")
    if not b >= 4.0:
        raise ValueError(f"the fixed-point contraction requires b >= 4, got {b}")
    if not abs(mu1 - mu0) <= 1.0 + 1e-9:
        raise ValueError("inconsistent continuations: |mu1 - mu0| must be <= 1")

    def step(r: float) -> float:
        s1 = 1.0 - (1.0 - r) ** 2
        s0 = 1.0 - r**2
        e = math.exp((abs(s1 - mu1) - abs(s0 - mu0)) / b)
        return p_it / (e - p_it * e + p_it)

    r = p_it
    for _ in range(max_iter):
        nxt = step(r)
        if abs(nxt - r) <= FIXED_POINT_TOL:
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


def best_response_full(ctx: StrategicContext, starts: int = 5, seed: int = 0) -> BestResponseResult:
    """Maximize the exact expected win probability over reports in [0,1]^m.

    Cyclic coordinate ascent; each coordinate is solved by golden-section
    search when the mechanism guarantees per-coordinate unimodality of the
    expected utility (regularized leaders, noisy max), which its utility
    kernel states by having a line.  The search runs on the coordinate's
    line, built once per visit: along coordinate t the own total under
    outcome row y is Q_rest(y) + (1 - v^2) + y_t (2v - 1), so the opponents
    and the other coordinates are scored before the search and each step
    scores only v (negative-entropy FTRL: one sigmoid over the outcome
    rows).  The point found is then scored as a full report, once
    per line search, so the result's utility is the exact utility of its
    report.  Mechanisms without that guarantee (Simple Max, event lotteries)
    fall back to a dense coordinate grid of ``GRID_POINTS`` values, all
    evaluated by one call of the mechanism's ``law`` on the (GRID_POINTS, m)
    stack of candidate reports, and the result is flagged non-certified.

    The solver multi-starts (beliefs plus random starts) and keeps the best.
    The utility is exact, over all 2^m outcome vectors, so m must be at most
    ``ENUM_BUDGET``.
    """
    utility = _ExactUtility(ctx)
    m = ctx.m
    line = utility.line
    certified = line is not None
    rng = np.random.default_rng(seed)
    start_points = [ctx.own_beliefs.copy()]
    for _ in range(max(0, starts - 1)):
        start_points.append(rng.random(m))

    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    best_r: np.ndarray | None = None
    best_u = -math.inf
    for r0 in start_points:
        r = r0.copy()
        u = utility(r)
        for _ in range(MAX_CYCLES):
            moved = 0.0
            for t in range(m):
                old = r[t]
                if certified:
                    r[t], _ = golden_section_max(line(r, t, utility.weights), 0.0, 1.0, xtol=COORD_TOL)
                    fx = utility(r)
                else:
                    candidates = np.repeat(r[None], GRID_POINTS, axis=0)
                    candidates[:, t] = grid
                    vals = utility(candidates)
                    k = int(np.argmax(vals))
                    r[t], fx = float(grid[k]), float(vals[k])
                # Only a strict gain moves the coordinate: on a flat utility the
                # line search's answer drifts between cycles and never settles.
                if fx > u:
                    u = fx
                    moved = max(moved, abs(r[t] - old))
                else:
                    r[t] = old
            if moved <= COORD_TOL:
                break
        if u > best_u:
            best_u = u
            best_r = r.copy()
    if best_r is None:
        raise ValueError(f"every start's expected utility was non-finite ({len(start_points)} starts)")
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
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    r = as_probabilities(r_hat, "r_hat")
    if r.shape != (ctx.m,):
        raise ValueError(f"r_hat shape {r.shape} does not match m={ctx.m}")
    p = ctx.own_beliefs
    clamped = np.clip(r, p - gamma, p + gamma)
    utility = _ExactUtility(ctx)
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
        return asdict(self)


def truthfulness_gap_sweep(
    mechanism: MechanismConfig,
    n: int,
    m: int,
    num_contexts: int,
    seed: int,
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
    """
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if m > ENUM_BUDGET:
        raise ValueError(f"m={m} exceeds the exact enumeration budget {ENUM_BUDGET} of each best response")
    rng = np.random.default_rng(seed)
    worst = -1.0
    witness: dict = {}
    gaps: list[float] = []
    contexts = [StrategicContext(rng.random((n - 1, m)), rng.random(m), mechanism) for _ in range(num_contexts)]
    for k, ctx in enumerate(contexts):
        result = best_response_full(ctx, starts=SWEEP_STARTS, seed=k)
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
) -> np.ndarray:
    """Report row produced by one strategy for one forecaster: its plan, or a best
    responder's round-local response to ``opponent_reports`` under ``mechanism``."""
    if not strategy.responds:
        return strategy.plan(beliefs)
    if not isinstance(strategy, BestResponse):
        raise ValueError(f"competition trials cannot play the responder {strategy}")
    if opponent_reports is None or mechanism is None:
        raise ValueError("best-response strategies need opponent reports and a mechanism")
    if not isinstance(mechanism, Ftrl):
        raise ValueError("round_local best response needs a regularized-leader mechanism")
    return round_local_best_response(beliefs, opponent_reports, mechanism.eta, mechanism.regularizer)


def build_reports(
    strategies,
    beliefs,
    mechanism: MechanismConfig,
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
            reports[i] = strategy_report_row(s, p[i], others, mechanism)
    return reports
