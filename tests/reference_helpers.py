"""Reference computations that only the tests use.

- ``entropy_conjugate``: log-sum-exp summed with ``math.fsum``, the value whose
  gradient is ``entropy_conjugate_grad``;
- ``l2_conjugate``: the L2 conjugate's value at the simplex projection;
- ``finite_difference_partials``: central-difference partials of a conjugate,
  to check closed forms against;
- ``fsum_totals``: each forecaster's total quadratic score, summed with
  ``math.fsum``, to check the mechanisms' score totals against;
- ``mc_winner_law``: a mechanism's winner frequencies over its sampler, to
  check exact laws against;
- ``sampled_draws``: a sampler's rows as :class:`WinnerDraw` values, row k
  drawn from the stream of ``seeds[k]``;
- ``elf_sample_points``: one ELF run's sampled point tallies;
- ``to_record``: a :class:`WinnerDraw` as a dict of plain values, to compare
  draws by;
- ``FixedReport``: a strategy that reports a fixed vector, to play a known
  report against.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from forecastcomp.agents import _Strategy
from forecastcomp.mechanisms import (
    Elf,
    MechanismConfig,
    RngTrace,
    WinnerDraw,
    _derive_seeds,
    _outcome_stack,
    _sample_tallies,
    _Streams,
    _validate_reports,
)
from forecastcomp.regularizers import _as_finite_rows, _project_to_simplex
from forecastcomp.scoring import as_probabilities

FD_STEP = 1e-4  # central-difference step of the finite-difference partials


def _as_finite_vector(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    return _as_finite_rows(arr, name)


def entropy_conjugate(x) -> float:
    """log-sum-exp of ``x``, computed with max-shift stabilization."""
    arr = _as_finite_vector(x)
    shift = float(np.max(arr))
    return shift + math.log(math.fsum(np.exp(arr - shift)))


def l2_conjugate(x) -> float:
    arr = _as_finite_vector(x)
    pi = _project_to_simplex(arr)
    return float(np.dot(arr, pi) - 0.5 * np.dot(pi, pi))


def finite_difference_partials(
    conjugate_value: Callable[[np.ndarray], float],
) -> tuple[Callable[[np.ndarray, int], float], Callable[[np.ndarray, int], float]]:
    """Central-difference second and third coordinate partials of C, with step h = FD_STEP.

    The third difference divides by h^3, so its float noise is orders of
    magnitude above closed forms; alpha estimates built on it are unreliable.
    """
    h = FD_STEP

    def partial2(x, i: int) -> float:
        arr = _as_finite_vector(x)
        e = np.zeros_like(arr)
        e[i] = h
        return (conjugate_value(arr + e) - 2.0 * conjugate_value(arr) + conjugate_value(arr - e)) / h**2

    def partial3(x, i: int) -> float:
        arr = _as_finite_vector(x)
        e = np.zeros_like(arr)
        e[i] = h
        return (
            conjugate_value(arr + 2 * e)
            - 2.0 * conjugate_value(arr + e)
            + 2.0 * conjugate_value(arr - e)
            - conjugate_value(arr - 2 * e)
        ) / (2.0 * h**3)

    return partial2, partial3


def fsum_totals(reports, outcomes) -> np.ndarray:
    """(..., n) totals sum_t 1 - (y_t - r_t)^2 of (n, m) reports against (..., m) outcomes, by ``math.fsum``."""
    r, y = np.asarray(reports, dtype=float), np.asarray(outcomes, dtype=float)
    rows = y.reshape(math.prod(y.shape[:-1]), r.shape[1])
    totals = [[math.fsum((1.0 - (row - report) ** 2).tolist()) for report in r] for row in rows]
    return np.array(totals).reshape(y.shape[:-1] + r.shape[:1])


def mc_winner_law(config: MechanismConfig, reports, outcomes, trials: int, seed: int) -> tuple[np.ndarray, float]:
    """Monte Carlo winner law with its worst-entry standard error."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    r = _validate_reports(reports)
    y = np.asarray(outcomes, dtype=float)
    streams = _Streams.of(_derive_seeds(seed, np.arange(trials)))
    winners = config.sampler(r)(np.broadcast_to(y, (trials, y.size)), streams)[0]
    law = np.bincount(winners, minlength=r.shape[0]) / trials
    se = float(np.sqrt(np.max(law * (1.0 - law)) / trials))
    return law, se


def sampled_draws(config: MechanismConfig, reports, outcomes, seeds) -> list[WinnerDraw]:
    """The rows of ``config.sampler(reports)`` on (B, m) outcomes, row k drawn from the stream of ``seeds[k]``."""
    winners, laws, draws = config.sampler(reports)(outcomes, _Streams.of(seeds))
    return [WinnerDraw(int(w), law, RngTrace(seed, int(d))) for w, law, d, seed in zip(winners, laws, draws, seeds)]


def elf_sample_points(reports, outcomes, seed: int) -> np.ndarray:
    """Sample the per-forecaster point tallies of one ELF run, its uniforms those of
    ``np.random.default_rng(seed)``."""
    tables = Elf()._point_tables(reports)
    y = _outcome_stack(np.asarray(outcomes, dtype=float)[None], 1, tables[1].shape[1])
    return _sample_tallies(tables, y, np.random.default_rng(seed).random((1, y.shape[1])))[0]


def to_record(draw: WinnerDraw) -> dict:
    return {
        "winner": int(draw.winner),
        "distribution": [float(v) for v in draw.distribution],
        "seed": int(draw.rng_trace.seed),
        "draws": int(draw.rng_trace.draws),
    }


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
