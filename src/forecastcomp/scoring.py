"""Quadratic (Brier) scoring, forecaster accuracy, and expected-score identities.

The quadratic score S(q, y) = 1 - (y - q)^2 is a strictly proper scoring rule
on binary outcomes: reporting one's true probability maximizes expected score.
A forecaster's accuracy is one minus the mean squared deviation of their
beliefs from the per-event ground-truth probabilities, and the expected
average quadratic score of a truthful forecaster equals their accuracy minus
a constant that depends only on the event variances.  Everything here is a
pure function; all randomness lives in callers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "score_matrix",
    "accuracy",
    "expected_avg_quadratic_score",
    "outcome_variance_constant",
    "epsilon_optimal_set",
    "as_probabilities",
    "as_outcomes",
]


def as_probabilities(values, name: str = "values") -> np.ndarray:
    """Validate and return an array of probabilities in [0, 1].

    Raises:
        ValueError: if empty, non-finite, or any entry falls outside [0, 1].
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return arr


def as_outcomes(values, name: str = "outcomes") -> np.ndarray:
    """Validate and return a float array of binary outcomes (exactly 0 or 1)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} entries must be exactly 0 or 1")
    return arr


def score_matrix(reports, outcomes) -> np.ndarray:
    """Quadratic scores for a report matrix against an outcome vector.

    Args:
        reports: (n, m) or (m,) array of probabilities.
        outcomes: (m,) array of binary outcomes.

    Returns:
        Array of the same shape as ``reports`` with entries 1 - (y_t - r_t)^2.
    """
    r = as_probabilities(reports, "reports")
    y = as_outcomes(outcomes)
    if r.shape[-1] != y.shape[0]:
        raise ValueError(f"shape mismatch: reports {r.shape} vs outcomes {y.shape}")
    return 1.0 - (y - r) ** 2


def accuracy(beliefs, theta) -> float:
    """Accuracy of one forecaster: 1 - mean squared deviation from ground truth.

    Uses compensated summation so downstream identities hold to ~1e-12 even
    for very long event sequences.

    Args:
        beliefs: (m,) belief vector of the forecaster.
        theta: (m,) ground-truth probabilities.
    """
    p = as_probabilities(beliefs, "beliefs")
    t = as_probabilities(theta, "theta")
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: beliefs {p.shape} vs theta {t.shape}")
    return 1.0 - math.fsum((p - t) ** 2) / p.size


def outcome_variance_constant(theta) -> float:
    """Mean per-event outcome variance, (1/m) * sum_t theta_t * (1 - theta_t)."""
    t = as_probabilities(theta, "theta")
    return math.fsum(t * (1.0 - t)) / t.size


def expected_avg_quadratic_score(reports, theta) -> float:
    """Expected average quadratic score of a report row under ground truth.

    Computes (1/m) * sum_t [theta_t * S(r_t, 1) + (1 - theta_t) * S(r_t, 0)].
    When ``reports`` equals the forecaster's beliefs, this equals their
    accuracy minus :func:`outcome_variance_constant`.

    Args:
        reports: (m,) report vector.
        theta: (m,) ground-truth probabilities.
    """
    r = as_probabilities(reports, "reports")
    t = as_probabilities(theta, "theta")
    if r.shape != t.shape or r.ndim != 1:
        raise ValueError(f"shape mismatch: reports {r.shape} vs theta {t.shape}")
    s1 = 1.0 - (1.0 - r) ** 2
    s0 = 1.0 - r**2
    return math.fsum(t * s1 + (1.0 - t) * s0) / r.size


def epsilon_optimal_set(accuracies, epsilon: float) -> set[int]:
    """Indices of forecasters whose accuracy is within ``epsilon`` of the best.

    Always contains an argmax.  ``epsilon >= 1`` makes every forecaster
    qualify because accuracies lie in [0, 1].

    Args:
        accuracies: (n,) accuracy vector.
        epsilon: slack, any nonnegative real.
    """
    a = np.asarray(accuracies, dtype=float)
    if a.size == 0:
        raise ValueError("accuracy vector must be nonempty")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return set(int(i) for i in np.flatnonzero(a >= a.max() - epsilon))
