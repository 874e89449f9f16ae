"""Winner-selection mechanisms for forecasting competitions.

All mechanisms map a report matrix R (n forecasters x m events) and an
outcome vector y to either a selection distribution over forecasters or a
sampled winner.  Stochastic selections take an explicit integer seed and
return a :class:`WinnerDraw` carrying the seed and the number of uniform
draws consumed, so every selection replays bit-for-bit.  Parallel callers
must pass independent seeds; nothing here touches global RNG state.

Every mechanism is one frozen dataclass with the same interface:

- ``law(reports, outcomes, budget)``: the exact selection law given (R, y);
- ``sample(reports, outcomes, seed)``: a sampled :class:`WinnerDraw`;
- ``utility_kernel(opponent_reports, bits)``: precomputes everything that
  does not depend on row 0's report and returns a function mapping that
  report to P(row 0 wins) under each of the 2^m outcome rows of ``bits``;
- ``unimodal``: whether the expected win probability is unimodal in each
  coordinate of one's own report (the best-response solver's certificate);
- ``truthfulness_band()``: the approximate-truthfulness radius, or None, and
  notes on its provenance.

Mechanisms:

- Simple Max: argmax of total quadratic score, uniform tie-breaking.
- Event lotteries (ELF): one point per event awarded by a wagering-style
  lottery, winner is the point leader.
- Generalized point-per-round: same tally structure with any bounded proper
  scoring rule whose range fits in an interval of length 1/n.  ELF is the
  point-per-round lottery with the quadratic rule; both share one per-event
  point table, which feeds the tally sampler and the exact tally DP.
- FTRL: selection distribution equals the conjugate gradient of a strictly
  convex regularizer at the scaled score totals.
- Multiplicative Weights: FTRL with negative entropy (a subclass of
  :class:`Ftrl` with the regularizer fixed); the distribution is a softmax of
  the scaled totals.
- Report Noisy Max: add independent Laplace noise to the totals and take
  the argmax.

The module-level functions (``select``, ``selection_law``,
``simple_max_select``, ``elf_select``, ...) are thin delegates kept for
callers that name a mechanism by function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from forecastcomp.regularizers import NEG_ENTROPY, Regularizer
from forecastcomp.scoring import as_outcomes, as_probabilities, score_matrix

__all__ = [
    "RngTrace",
    "WinnerDraw",
    "SimpleMax",
    "Elf",
    "PointPerRound",
    "Ftrl",
    "MultWeights",
    "ReportNoisyMax",
    "MechanismConfig",
    "derive_seed",
    "simple_max_select",
    "elf_point_prob",
    "elf_sample_points",
    "elf_select",
    "elf_winner_law",
    "point_per_round_point_prob",
    "point_per_round_select",
    "ftrl_select",
    "mw_select",
    "report_noisy_max_select",
    "noisy_max_win_prob",
    "noisy_max_law",
    "laplace_cdf",
    "laplace_from_uniform",
    "sample_laplace",
    "sample_winner",
    "selection_law",
    "mc_winner_law",
    "select",
]

DISTRIBUTION_TOL = 1e-10
DEFAULT_ENUMERATION_BUDGET = 2**20


def derive_seed(master: int, *key: int) -> int:
    """Stable per-trial seed derived from a master seed and an index path."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=key).generate_state(1)[0])


@dataclass(frozen=True)
class RngTrace:
    """Seed and draw count of one stochastic selection, for exact replay."""

    seed: int
    draws: int


@dataclass(frozen=True)
class WinnerDraw:
    """A sampled winner plus the selection law it was drawn from.

    ``distribution`` is the conditional law of the winner given everything
    realized before the final sampling step: for Simple Max that is the
    uniform law on the argmax set given (R, y); for event-lottery mechanisms
    it is the tie-break law given the realized point tallies (the exact
    unconditional winner law is available from :func:`elf_winner_law`); for
    Report Noisy Max it is the point mass given the realized noise.
    """

    winner: int
    distribution: np.ndarray
    rng_trace: RngTrace

    def __post_init__(self) -> None:
        dist = np.asarray(self.distribution, dtype=float)
        if dist.min() < -DISTRIBUTION_TOL or abs(dist.sum() - 1.0) > DISTRIBUTION_TOL:
            raise ValueError("distribution must be a point in the simplex")
        if not 0 <= self.winner < dist.size:
            raise ValueError(f"winner index {self.winner} out of range for n={dist.size}")

    def to_record(self) -> dict:
        return {
            "winner": int(self.winner),
            "distribution": [float(v) for v in self.distribution],
            "seed": int(self.rng_trace.seed),
            "draws": int(self.rng_trace.draws),
        }


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _validate_reports(reports) -> np.ndarray:
    r = np.asarray(reports, dtype=float)
    if r.ndim != 2:
        raise ValueError(f"reports must be a 2-D (n, m) matrix, got shape {r.shape}")
    if r.shape[1] > 0:
        as_probabilities(r, "reports")
    return r


def score_totals(reports, outcomes) -> np.ndarray:
    """Total quadratic score per forecaster; zero vector when there are no events."""
    r = _validate_reports(reports)
    if r.shape[1] == 0:
        return np.zeros(r.shape[0])
    y = as_outcomes(outcomes)
    if y.shape[0] != r.shape[1]:
        raise ValueError(f"shape mismatch: reports {r.shape} vs outcomes {y.shape}")
    return score_matrix(r, y).sum(axis=1)


def _totals_for_outcomes(reports: np.ndarray, bits: np.ndarray) -> np.ndarray:
    # sum_t S(r_t, y_t) = sum_t (1 - r_t^2) + sum_t y_t (2 r_t - 1), for every
    # outcome row of ``bits`` at once
    base = np.sum(1.0 - reports**2, axis=-1)
    return base + bits @ (2.0 * reports - 1.0).T


def _categorical_draw(probs: np.ndarray, u: float) -> int:
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u * cum[-1], side="right"), probs.size - 1))


def sample_winner(distribution, seed: int) -> WinnerDraw:
    """Sample a winner from an explicit selection distribution."""
    dist = np.asarray(distribution, dtype=float)
    rng = np.random.default_rng(seed)
    winner = _categorical_draw(dist, float(rng.random()))
    return WinnerDraw(winner=winner, distribution=dist, rng_trace=RngTrace(seed, 1))


def _argmax_tie_law(totals: np.ndarray) -> np.ndarray:
    ties = totals == totals.max()
    return ties / ties.sum()


def _argmax_draw(values: np.ndarray, seed: int, draws: int, rng: np.random.Generator | None = None) -> WinnerDraw:
    """Winner of argmax(values) with uniform tie-breaking: one more draw on a tie."""
    law = _argmax_tie_law(values)
    ties = np.flatnonzero(law)
    if ties.size == 1:
        return WinnerDraw(int(ties[0]), law, RngTrace(seed, draws))
    if rng is None:
        rng = np.random.default_rng(seed)
    winner = int(ties[_categorical_draw(np.ones(ties.size), float(rng.random()))])
    return WinnerDraw(winner, law, RngTrace(seed, draws + 1))


# ---------------------------------------------------------------------------
# The mechanism interface
# ---------------------------------------------------------------------------

class _Mechanism:
    """What every mechanism provides; see the module docstring."""

    unimodal: ClassVar[bool] = False

    def law(self, reports, outcomes, budget: int = DEFAULT_ENUMERATION_BUDGET) -> np.ndarray:
        raise NotImplementedError

    def sample(self, reports, outcomes, seed: int) -> WinnerDraw:
        raise NotImplementedError

    def utility_kernel(self, opponent_reports: np.ndarray, bits: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        raise NotImplementedError

    def truthfulness_band(self) -> tuple[float | None, dict]:
        return None, {}


class _TotalsMechanism(_Mechanism):
    """A mechanism whose law depends on the reports only through score totals."""

    def utility_kernel(self, opponent_reports, bits):
        own_win = self._own_win_prob(_totals_for_outcomes(opponent_reports, bits))
        return lambda report: own_win(_totals_for_outcomes(report, bits))

    def _own_win_prob(self, opp_totals: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Map row 0's totals (one per outcome row) to its win probabilities,
        against the fixed (outcomes, n-1) opponent totals."""
        raise NotImplementedError


class _PointLottery(_Mechanism):
    """One point per event by lottery; the point leader wins, ties uniform.

    Subclasses give ``point_probs(reports, outcomes)``, the (m, n) table of
    per-event point probabilities.
    """

    def point_probs(self, reports, outcomes) -> np.ndarray:
        raise NotImplementedError

    def law(self, reports, outcomes, budget=DEFAULT_ENUMERATION_BUDGET):
        return _tally_dp_law(self.point_probs(reports, outcomes), budget)

    def sample(self, reports, outcomes, seed):
        """One uniform draw per event plus one more on a tie.  The returned
        distribution is the tie-break law over the realized point argmax."""
        probs = self.point_probs(reports, outcomes)
        rng = np.random.default_rng(seed)
        points, draws = _tally_points(probs, rng)
        return _argmax_draw(points.astype(float), seed, draws, rng)

    def utility_kernel(self, opponent_reports, bits):
        def win_probs(report: np.ndarray) -> np.ndarray:
            stacked = np.vstack([report, opponent_reports])
            return np.array([self.law(stacked, y)[0] for y in bits])

        return win_probs


# ---------------------------------------------------------------------------
# Simple Max
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleMax(_TotalsMechanism):
    """Select the forecaster with the highest total quadratic score."""

    def law(self, reports, outcomes, budget=DEFAULT_ENUMERATION_BUDGET):
        return _argmax_tie_law(score_totals(reports, outcomes))

    def sample(self, reports, outcomes, seed):
        """Ties are broken uniformly at random; the returned distribution is
        the exact winner law (point mass, or uniform over the argmax set)."""
        return _argmax_draw(score_totals(reports, outcomes), seed, 0)

    def _own_win_prob(self, opp_totals):
        best = opp_totals.max(axis=1)
        ties = np.sum(opp_totals == best[:, None], axis=1)
        return lambda own: np.where(own > best, 1.0, np.where(own == best, 1.0 / (1.0 + ties), 0.0))


def simple_max_select(reports, outcomes, seed: int) -> WinnerDraw:
    """Pick the forecaster with the highest cumulative quadratic score."""
    return SimpleMax().sample(reports, outcomes, seed)


# ---------------------------------------------------------------------------
# Event-lottery mechanisms
# ---------------------------------------------------------------------------

def _lottery_reports(reports) -> np.ndarray:
    r = _validate_reports(reports)
    if r.shape[0] < 2:
        raise ValueError(f"event lotteries need n >= 2 forecasters, got {r.shape[0]}")
    return r


def _rule_point_probs(g: Callable, r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(m, n) table f_ti = 1/n + g(r_it, y_t) - mean over j != i of g(r_jt, y_t),
    with one call of ``g`` on (n, m) arrays.  A result outside [0, 1] is a hard
    error carrying the offending entry.
    """
    n, m = r.shape
    if y.shape[0] != m:
        raise ValueError(f"shape mismatch: reports {r.shape} vs outcomes {y.shape}")
    gs = np.ascontiguousarray(np.broadcast_to(g(r, np.broadcast_to(y, r.shape)), r.shape).T, dtype=float)
    f = 1.0 / n + gs - (gs.sum(axis=1, keepdims=True) - gs) / (n - 1)
    if f.min() < -1e-12 or f.max() > 1.0 + 1e-12:
        t, bad = np.unravel_index(int(np.argmax(np.abs(f - 0.5))), f.shape)
        raise ValueError(
            f"scoring rule g violates its range budget: event {t}, outcome {int(y[t])}, "
            f"forecaster {bad} gets point probability {f[t, bad]}"
        )
    return np.clip(f, 0.0, 1.0)


@dataclass(frozen=True)
class Elf(_PointLottery):
    """One point per event via the wagering lottery; winner is the leader."""

    def point_probs(self, reports, outcomes):
        """Forecaster i receives the point on event t with probability
        1/n + (1/n) * (S(r_it, y_t) - mean of the other forecasters' scores);
        entries lie in [0, 2/n] and each row sums to 1."""
        r = _lottery_reports(reports)
        s = score_matrix(r, outcomes)
        mean_others = (s.sum(axis=0) - s) / (r.shape[0] - 1)
        return ((1.0 + s - mean_others) / r.shape[0]).T


@dataclass(frozen=True)
class PointPerRound(_PointLottery):
    """Point-per-event mechanism driven by a bounded proper scoring rule.

    ``g(r, y)`` maps (n, m) arrays of reports and outcomes to scores (a scalar
    applies everywhere).  Its values must lie in an interval of length
    ``range_length``, sampled once at construction, and ``range_length`` must
    be at most 1/n at call time; any per-event probability escaping [0, 1] is
    a hard error with a witness.
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray | float]
    range_length: float

    def __post_init__(self) -> None:
        if not self.range_length > 0.0:
            raise ValueError(f"range_length must be positive, got {self.range_length}")
        grid = np.linspace(0.0, 1.0, 101)
        vals = np.concatenate([np.broadcast_to(self.g(grid, np.full(grid.size, y)), grid.shape) for y in (0.0, 1.0)])
        observed = float(vals.max() - vals.min())
        if observed > self.range_length + 1e-9:
            raise ValueError(
                f"sampled range of g has length {observed}, exceeding range_length = {self.range_length}"
            )

    def point_probs(self, reports, outcomes):
        r = _lottery_reports(reports)
        n = r.shape[0]
        if self.range_length > 1.0 / n + 1e-12:
            raise ValueError(f"declared range length {self.range_length} exceeds 1/n = {1.0 / n} for n={n}")
        return _rule_point_probs(self.g, r, as_outcomes(outcomes))


def _tally_points(point_probs: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    m, n = point_probs.shape
    cum = np.cumsum(point_probs, axis=1)
    us = rng.random(m) * cum[:, -1]
    idx = np.minimum(np.sum(cum <= us[:, None], axis=1), n - 1)
    return np.bincount(idx, minlength=n), m


def _tally_dp_law(point_probs: np.ndarray, budget: int) -> np.ndarray:
    """Exact winner law of a tally-and-argmax mechanism by dynamic programming.

    Tracks the joint distribution of the point-tally vector across events.
    The state space has at most C(m + n - 1, n - 1) tallies, far below the
    n^m cost of enumerating point-winner paths.
    """
    m, n = point_probs.shape
    est_states = math.comb(m + n - 1, n - 1)
    est_ops = est_states * n * m
    if est_ops > budget:
        raise ValueError(
            f"exact winner law needs ~{est_ops} operations, over budget {budget}; "
            "use mc_winner_law instead"
        )
    states: dict[tuple[int, ...], float] = {(0,) * n: 1.0}
    for t in range(m):
        row = point_probs[t]
        nxt: dict[tuple[int, ...], float] = {}
        for counts, pr in states.items():
            for i in range(n):
                if row[i] == 0.0:
                    continue
                key = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                nxt[key] = nxt.get(key, 0.0) + pr * row[i]
        states = nxt
    law = np.zeros(n)
    for counts, pr in states.items():
        best = max(counts)
        ties = [i for i, c in enumerate(counts) if c == best]
        share = pr / len(ties)
        for i in ties:
            law[i] += share
    return law


def elf_point_prob(reports, y_t: int, t: int) -> np.ndarray:
    """ELF's lottery probabilities for the point on event ``t``."""
    return Elf().point_probs(_validate_reports(reports)[:, [t]], [y_t])[0]


def point_per_round_point_prob(reports, y_t: int, t: int, g: Callable) -> np.ndarray:
    """Per-event point probabilities for a generalized scoring rule ``g``."""
    return _rule_point_probs(g, _lottery_reports(reports)[:, [t]], np.array([float(y_t)]))[0]


def elf_sample_points(reports, outcomes, seed: int) -> np.ndarray:
    """Sample the per-forecaster point tallies of one ELF run."""
    return _tally_points(Elf().point_probs(reports, outcomes), np.random.default_rng(seed))[0]


def elf_select(reports, outcomes, seed: int) -> WinnerDraw:
    """Run the event lotteries, tally points, and pick the point leader."""
    return Elf().sample(reports, outcomes, seed)


def point_per_round_select(
    reports, outcomes, g: Callable, seed: int,
    range_length: float | None = None,
) -> WinnerDraw:
    """Tally-and-argmax selection for a generalized per-event scoring rule;
    the declared range length defaults to the 1/n budget."""
    if range_length is None:
        range_length = 1.0 / _validate_reports(reports).shape[0]
    return PointPerRound(g, range_length).sample(reports, outcomes, seed)


def elf_winner_law(reports, outcomes, budget: int = DEFAULT_ENUMERATION_BUDGET) -> np.ndarray:
    """Exact winner law of the event-lottery mechanism (budget permitting)."""
    return Elf().law(reports, outcomes, budget)


# ---------------------------------------------------------------------------
# Regularized leaders
# ---------------------------------------------------------------------------

def _warn_if_eta_outside_truthful_range(eta: float, reg: Regularizer) -> None:
    if reg.declared is None:
        return
    limit = reg.declared.eta_ceiling
    if eta >= limit:
        warnings.warn(
            f"eta={eta} is outside the approximate-truthfulness range "
            f"eta < min(alpha/2, 1/beta) = {limit} for {reg.name}",
            stacklevel=3,
        )


@dataclass(frozen=True)
class Ftrl(_TotalsMechanism):
    """Distribution-valued selection: gradient of the conjugate at eta * totals."""

    regularizer: Regularizer
    eta: float

    unimodal: ClassVar[bool] = True
    # Published learning-rate ceilings recorded beside the truthfulness band.
    eta_ceilings: ClassVar[dict] = {}

    def __post_init__(self) -> None:
        if not self.eta > 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        _warn_if_eta_outside_truthful_range(self.eta, self.regularizer)

    def law(self, reports, outcomes, budget=DEFAULT_ENUMERATION_BUDGET):
        return ftrl_select(reports, outcomes, self.regularizer, self.eta)

    def sample(self, reports, outcomes, seed):
        return sample_winner(self.law(reports, outcomes), seed)

    def _own_win_prob(self, opp_totals):
        eta, z = self.eta, self.eta * opp_totals
        if self.regularizer is NEG_ENTROPY:
            # law_0 = sigmoid(eta q_0 - log sum_j exp(eta q_j)), stable at any eta
            zmax = z.max(axis=1)
            log_a = zmax + np.log(np.sum(np.exp(z - zmax[:, None]), axis=1))
            return lambda own: 1.0 / (1.0 + np.exp(log_a - eta * own))
        return lambda own: self.regularizer.conjugate_grad(np.column_stack([eta * own, z]))[:, 0]

    def truthfulness_band(self):
        declared = self.regularizer.declared
        if declared is None:
            return None, {}
        return (declared.beta + 1.0) * self.eta, {"eta": self.eta, **self.eta_ceilings}


@dataclass(frozen=True)
class MultWeights(Ftrl):
    """FTRL with negative entropy: softmax of eta-scaled total quadratic scores."""

    regularizer: Regularizer = field(default=NEG_ENTROPY, init=False, repr=False)

    # Two learning-rate ceilings circulate for this guarantee: the strict 1/4
    # and the curvature-level min(alpha/2, 1/beta).
    eta_ceilings: ClassVar[dict] = {
        "eta_threshold_strict": 0.25,
        "eta_threshold_curvature": NEG_ENTROPY.declared.eta_ceiling,
    }


def ftrl_select(reports, outcomes, regularizer: Regularizer, eta: float) -> np.ndarray:
    """Selection distribution of the regularized leader: grad C(eta * totals).

    Deterministic; sample the winner separately with :func:`sample_winner`
    so experiments can work with exact expectations.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return regularizer.conjugate_grad(eta * score_totals(reports, outcomes))


def mw_select(reports, outcomes, eta: float) -> np.ndarray:
    """Multiplicative-weights distribution: softmax of eta-scaled totals."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    z = eta * score_totals(reports, outcomes)
    e = np.exp(z - z.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# Report Noisy Max
# ---------------------------------------------------------------------------

def laplace_from_uniform(u: float, b: float) -> float:
    """Inverse-CDF map from u in (-1/2, 1/2) to a Laplace(0, b) sample."""
    if b <= 0.0:
        raise ValueError(f"scale b must be positive, got {b}")
    return -b * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u)) if u != 0.0 else 0.0


def sample_laplace(rng: np.random.Generator, b: float) -> float:
    """One Laplace(0, b) sample from one uniform draw (exact replay contract)."""
    return laplace_from_uniform(float(rng.random()) - 0.5, b)


def laplace_cdf(x, b: float) -> np.ndarray:
    """CDF of the Laplace(0, b) distribution, vectorized."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.0, 0.5 * np.exp(x / b), 1.0 - 0.5 * np.exp(-x / b))


@dataclass(frozen=True)
class ReportNoisyMax(_TotalsMechanism):
    """Argmax of Laplace-perturbed totals; the scale b must be at least 4."""

    b: float

    unimodal: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not self.b >= 4.0:
            raise ValueError(f"ReportNoisyMax requires b >= 4, got {self.b}")

    def law(self, reports, outcomes, budget=DEFAULT_ENUMERATION_BUDGET):
        return noisy_max_law(score_totals(reports, outcomes), self.b)

    def sample(self, reports, outcomes, seed):
        return report_noisy_max_select(reports, outcomes, self.b, seed)

    def _own_win_prob(self, opp_totals):
        return lambda own: np.array(
            [noisy_max_win_prob(np.concatenate([[own[k]], opp_totals[k]]), self.b, 0) for k in range(own.size)]
        )

    def truthfulness_band(self):
        return 4.0 / self.b, {"b": self.b}


def report_noisy_max_select(reports, outcomes, b: float, seed: int) -> WinnerDraw:
    """Argmax of totals perturbed by independent Laplace(0, b) noise.

    Ties are measure-zero and broken by lowest index.  The returned
    distribution is the point mass on the realized winner.
    """
    if b <= 0.0:
        raise ValueError(f"scale b must be positive, got {b}")
    totals = score_totals(reports, outcomes)
    rng = np.random.default_rng(seed)
    noisy = totals + np.array([sample_laplace(rng, b) for _ in range(totals.size)])
    winner = int(np.argmax(noisy))
    law = np.zeros(totals.size)
    law[winner] = 1.0
    return WinnerDraw(winner, law, RngTrace(seed, totals.size))


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def noisy_max_win_prob(totals, b: float, index: int, order: int = 24) -> float:
    """Exact probability that one forecaster wins under Report Noisy Max.

    P(i wins) = E over i's noise W of prod_{j != i} F(q_i + W - q_j), with F
    the Laplace CDF.  The integrand is piecewise smooth between the CDF kinks
    at q_j - q_i and the density kink at 0, so panel Gauss-Legendre
    quadrature between the kinks is exact to near machine precision.
    """
    if b <= 0.0:
        raise ValueError(f"scale b must be positive, got {b}")
    q = np.asarray(totals, dtype=float)
    n = q.size
    if n == 1:
        return 1.0
    nodes, weights = _gl_nodes(order)
    tail = 40.0 * b
    kinks = np.unique(np.concatenate([[0.0], np.delete(q, index) - q[index]]))
    edges = np.concatenate([[kinks[0] - tail], kinks, [kinks[-1] + tail]])
    # Subdivide wide panels: the density decays on scale b, and one GL panel
    # only resolves a few decay lengths.
    refined = [edges[0]]
    for right in edges[1:]:
        left = refined[-1]
        chunks = max(1, int(math.ceil((right - left) / (4.0 * b))))
        refined.extend(left + (right - left) * (k + 1) / chunks for k in range(chunks))
    edges = np.array(refined)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    density = np.exp(-np.abs(pts) / b) / (2.0 * b)
    prod = np.ones_like(pts)
    for j in range(n):
        if j == index:
            continue
        prod *= laplace_cdf(q[index] + pts - q[j], b)
    return float(np.sum(half[:, None] * weights[None, :] * density * prod))


def noisy_max_law(totals, b: float, order: int = 24) -> np.ndarray:
    """Exact selection law of Report Noisy Max given score totals."""
    q = np.asarray(totals, dtype=float)
    law = np.array([noisy_max_win_prob(q, b, i, order) for i in range(q.size)])
    total = law.sum()
    if abs(total - 1.0) > 1e-8:
        raise RuntimeError(f"noisy-max quadrature lost mass: sum={total}")
    return law / total


MechanismConfig = SimpleMax | Elf | PointPerRound | Ftrl | MultWeights | ReportNoisyMax


# ---------------------------------------------------------------------------
# Dispatchers
# ---------------------------------------------------------------------------

def selection_law(
    config: MechanismConfig, reports, outcomes,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> np.ndarray:
    """Exact selection distribution of any mechanism given (R, y)."""
    return config.law(reports, outcomes, budget)


def select(config: MechanismConfig, reports, outcomes, seed: int) -> WinnerDraw:
    """Sample a winner under any mechanism configuration."""
    return config.sample(reports, outcomes, seed)


def mc_winner_law(config: MechanismConfig, reports, outcomes, trials: int, seed: int) -> tuple[np.ndarray, float]:
    """Monte Carlo winner law with its worst-entry standard error."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    r = _validate_reports(reports)
    counts = np.zeros(r.shape[0])
    for k in range(trials):
        draw = select(config, r, outcomes, seed=derive_seed(seed, k))
        counts[draw.winner] += 1
    law = counts / trials
    se = float(np.sqrt(np.max(law * (1.0 - law)) / trials))
    return law, se
