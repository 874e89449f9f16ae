"""Reference computations that only the tests use.

- ``entropy_conjugate``: log-sum-exp summed with ``math.fsum``, the value whose
  gradient is ``entropy_conjugate_grad``;
- ``l2_conjugate``: the L2 conjugate's value at the simplex projection;
- ``finite_difference_partials``: central-difference partials of a conjugate,
  to check closed forms against;
- ``mc_winner_law``: a mechanism's winner frequencies over its sampler, to
  check exact laws against;
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
    WinnerDraw,
    _outcome_stack,
    _sample_tallies,
    _validate_reports,
    derive_seed,
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


def mc_winner_law(config: MechanismConfig, reports, outcomes, trials: int, seed: int) -> tuple[np.ndarray, float]:
    """Monte Carlo winner law with its worst-entry standard error."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    r = _validate_reports(reports)
    y = np.asarray(outcomes, dtype=float)
    draws = config.sampler(r)(np.broadcast_to(y, (trials, y.size)), [derive_seed(seed, k) for k in range(trials)])
    law = np.bincount([d.winner for d in draws], minlength=r.shape[0]) / trials
    se = float(np.sqrt(np.max(law * (1.0 - law)) / trials))
    return law, se


def elf_sample_points(reports, outcomes, seed: int) -> np.ndarray:
    """Sample the per-forecaster point tallies of one ELF run."""
    tables = Elf()._point_tables(reports)
    y = _outcome_stack(np.asarray(outcomes, dtype=float)[None], [seed], tables[1].shape[1])
    return _sample_tallies(tables, y, [np.random.default_rng(seed)])[0]


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
