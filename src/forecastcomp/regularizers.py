"""Strictly convex regularizers on the simplex and their conjugate calculus.

A regularizer R is a strictly convex differentiable function on the
probability simplex.  The mechanisms built on top of it only ever touch its
convex conjugate C(x) = max_pi { pi . x - R(pi) }: the gradient of C maps
score vectors to selection distributions, and the second and third coordinate
partials of C control how aggressively a forecaster can move their own
selection probability.  Two curvature constants summarize that control:

- alpha: a pointwise lower bound on d2_i C / |d3_i C|,
- beta: a Lipschitz constant for log d2_i C in the sup norm.

:func:`condition_check` estimates both constants empirically on a sampled
domain and reports witnesses, since closed-form claims about them are easy to
get wrong (see the negative-entropy notes below).

Negative entropy ships as the compliant instance (C = log-sum-exp, so the
gradient is the softmax).  The L2 regularizer ||pi||^2 / 2 ships as a
deliberate negative example: its conjugate is flat far from the origin, so
the second partial hits exactly zero and the log-Lipschitz condition fails.

Note on the negative-entropy alpha: with softmax weights pi, the ratio
d2_i C / |d3_i C| equals 1 / |1 - 2 pi_i|.  It is >= 2 exactly when
pi_i lies in [1/4, 3/4] and decays toward 1 as pi_i approaches 0 or 1, so
the declared alpha = 2 only certifies on domains where the weights stay
balanced.  The empirical check makes the domain explicit instead of trusting
a global constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CurvatureConstants",
    "Regularizer",
    "ConditionReport",
    "neg_entropy",
    "entropy_conjugate",
    "entropy_conjugate_grad",
    "entropy_conjugate_partial2",
    "entropy_conjugate_partial3",
    "l2_value",
    "l2_conjugate",
    "l2_conjugate_grad",
    "l2_conjugate_partial2",
    "l2_conjugate_partial3",
    "finite_difference_partials",
    "condition_check",
    "NEG_ENTROPY",
    "L2",
]

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class CurvatureConstants:
    """Declared curvature constants (alpha, beta), both strictly positive."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"alpha and beta must be positive, got {self}")

    @property
    def eta_ceiling(self) -> float:
        """min(alpha/2, 1/beta): the learning rates below it are approximately truthful."""
        return min(self.alpha / 2.0, 1.0 / self.beta)


@dataclass(frozen=True)
class Regularizer:
    """A strictly convex regularizer together with its conjugate calculus.

    Attributes:
        name: identifier used in configs and reports.
        value: R(pi) on the simplex.
        conjugate_value: C(x) for arbitrary real score vectors.
        conjugate_grad: gradient of C; always a point in the simplex.  Takes
            (..., n) input and maps each row along the last axis.
        conjugate_partial2: second partial of C along one coordinate, for
            (..., n) input one value per row.
        conjugate_partial3: third partial of C along one coordinate.
        declared: curvature constants claimed for this regularizer, if any.
    """

    name: str
    value: Callable[[np.ndarray], float]
    conjugate_value: Callable[[np.ndarray], float]
    conjugate_grad: Callable[[np.ndarray], np.ndarray]
    conjugate_partial2: Callable[[np.ndarray, int], float | np.ndarray]
    conjugate_partial3: Callable[[np.ndarray, int], float]
    declared: CurvatureConstants | None = None


def _as_finite_vector(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    return _as_finite_rows(arr, name)


def _as_finite_rows(x, name: str = "x") -> np.ndarray:
    """A (..., n) array of score vectors, one per row along the last axis."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"{name} must have a nonempty last axis")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def _as_simplex_point(pi, tol: float = SIMPLEX_TOL) -> np.ndarray:
    arr = _as_finite_vector(pi, "pi")
    if arr.min() < -tol or abs(arr.sum() - 1.0) > tol:
        raise ValueError(f"pi must lie in the probability simplex (tol {tol})")
    return np.clip(arr, 0.0, None)


# ---------------------------------------------------------------------------
# Negative entropy / log-sum-exp
# ---------------------------------------------------------------------------

def neg_entropy(pi) -> float:
    """Negative entropy sum_i pi_i log pi_i, with 0 log 0 = 0."""
    arr = _as_simplex_point(pi)
    nz = arr[arr > 0.0]
    return float(np.sum(nz * np.log(nz)))


def entropy_conjugate(x) -> float:
    """log-sum-exp of ``x``, computed with max-shift stabilization."""
    arr = _as_finite_vector(x)
    shift = float(np.max(arr))
    return shift + math.log(math.fsum(np.exp(arr - shift)))


def entropy_conjugate_grad(x) -> np.ndarray:
    """Softmax of each row of ``x``; entries are positive and sum to 1."""
    arr = _as_finite_rows(x)
    # Max-shifted; the softmax is shift-invariant.  One (..., n) temporary.
    e = arr - arr.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def entropy_conjugate_partial2(x, i: int):
    """Second coordinate partial of log-sum-exp: pi_i * (1 - pi_i)."""
    pi = entropy_conjugate_grad(x)[..., i]
    return pi * (1.0 - pi)


def entropy_conjugate_partial3(x, i: int) -> float:
    """Third coordinate partial of log-sum-exp: pi_i (1 - pi_i) (1 - 2 pi_i)."""
    pi = entropy_conjugate_grad(_as_finite_vector(x))
    return float(pi[i] * (1.0 - pi[i]) * (1.0 - 2.0 * pi[i]))


# ---------------------------------------------------------------------------
# L2 regularizer (negative example)
# ---------------------------------------------------------------------------

def l2_value(pi) -> float:
    """Half squared Euclidean norm on the simplex."""
    arr = _as_simplex_point(pi)
    return 0.5 * float(np.dot(arr, arr))


def _project_to_simplex(x: np.ndarray) -> np.ndarray:
    # Euclidean projection of each row onto the simplex (sort-based); the
    # active set is the coordinates that survive the water-filling threshold.
    u = np.sort(x, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    n = x.shape[-1]
    cond = u - css / np.arange(1, n + 1) > 0.0
    rho = n - 1 - np.argmax(cond[..., ::-1], axis=-1)[..., None]  # last index meeting cond
    tau = np.take_along_axis(css, rho, axis=-1) / (rho + 1)
    return np.maximum(x - tau, 0.0)


def l2_conjugate(x) -> float:
    arr = _as_finite_vector(x)
    pi = _project_to_simplex(arr)
    return float(np.dot(arr, pi) - 0.5 * np.dot(pi, pi))


def l2_conjugate_grad(x) -> np.ndarray:
    return _project_to_simplex(_as_finite_rows(x))


def l2_conjugate_partial2(x, i: int):
    # Piecewise linear gradient: slope 1 - 1/|S| on the active set, 0 off it.
    # The zero branch is what breaks strict convexity far from the origin.
    active = _project_to_simplex(_as_finite_rows(x)) > 0.0
    # [()] makes the result of a single vector a scalar
    return np.where(active[..., i], 1.0 - 1.0 / active.sum(axis=-1), 0.0)[()]


def l2_conjugate_partial3(x, i: int) -> float:
    return 0.0


# ---------------------------------------------------------------------------
# Finite-difference reference
# ---------------------------------------------------------------------------

def finite_difference_partials(
    conjugate_value: Callable[[np.ndarray], float], h: float = 1e-4
) -> tuple[Callable[[np.ndarray, int], float], Callable[[np.ndarray, int], float]]:
    """Central-difference second and third coordinate partials of C.

    A reference for checking closed-form partials.  The third difference
    divides by h^3, so its float noise is orders of magnitude above closed
    forms; alpha estimates built on it are unreliable.
    """

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


NEG_ENTROPY = Regularizer(
    name="negative_entropy",
    value=neg_entropy,
    conjugate_value=entropy_conjugate,
    conjugate_grad=entropy_conjugate_grad,
    conjugate_partial2=entropy_conjugate_partial2,
    conjugate_partial3=entropy_conjugate_partial3,
    declared=CurvatureConstants(alpha=2.0, beta=3.0),
)

L2 = Regularizer(
    name="l2",
    value=l2_value,
    conjugate_value=l2_conjugate,
    conjugate_grad=l2_conjugate_grad,
    conjugate_partial2=l2_conjugate_partial2,
    conjugate_partial3=l2_conjugate_partial3,
    declared=None,
)

_REGISTRY = {NEG_ENTROPY.name: NEG_ENTROPY, L2.name: L2}


def regularizer_by_name(name: str) -> Regularizer:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown regularizer {name!r}; known: {sorted(_REGISTRY)}") from None


# ---------------------------------------------------------------------------
# Curvature certification
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    """Outcome of an empirical curvature check on a sampled domain.

    ``empirical_alpha`` is the minimum of d2C/|d3C| over all sampled points
    and coordinates; ``empirical_beta`` is the maximum difference quotient of
    log d2C over sampled pairs.  A nonpositive second partial anywhere is a
    hard failure of strict convexity along coordinates and is recorded with
    its witness rather than silently skipped.
    """

    regularizer: str
    dim: int
    domain_radius: float
    sample_count: int
    declared_alpha: float | None
    declared_beta: float | None
    empirical_alpha: float
    empirical_beta: float
    alpha_witness: list[float]
    beta_witness: dict
    strict_convexity_ok: bool
    convexity_witness: list[float] | None
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "regularizer": self.regularizer,
            "dim": self.dim,
            "domain_radius": self.domain_radius,
            "sample_count": self.sample_count,
            "declared_alpha": self.declared_alpha,
            "declared_beta": self.declared_beta,
            "empirical_alpha": self.empirical_alpha,
            "empirical_beta": self.empirical_beta,
            "alpha_witness": self.alpha_witness,
            "beta_witness": self.beta_witness,
            "strict_convexity_ok": self.strict_convexity_ok,
            "convexity_witness": self.convexity_witness,
            "passed": self.passed,
            "notes": self.notes,
        }


def condition_check(
    reg: Regularizer,
    sample_count: int,
    domain_radius: float,
    rng_seed: int,
    dim: int = 2,
    pair_distances: tuple[float, ...] = (0.01, 0.1, 1.0),
    beta_tol: float = 0.01,
) -> ConditionReport:
    """Empirically estimate curvature constants of a regularizer's conjugate.

    Samples ``sample_count`` points x with ||x||_inf <= domain_radius.  For
    the alpha estimate it takes the worst ratio d2C/|d3C| over points and
    coordinates; for beta it takes the worst sup-norm difference quotient of
    log d2C over random pairs at each distance in ``pair_distances``.

    Args:
        reg: regularizer exposing closed-form partials.
        sample_count: number of sampled points per estimate; must be >= 1.
        domain_radius: sup-norm radius of the sampling box.
        rng_seed: seed for the sampling stream.
        dim: dimension of the score vectors (number of forecasters).
        pair_distances: sup-norm separations used for the beta pairs.
        beta_tol: slack allowed over the declared beta before failing.

    Returns:
        A :class:`ConditionReport`; ``passed`` is False on any strict
        convexity violation or when empirical estimates contradict the
        declared constants.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if domain_radius <= 0.0:
        raise ValueError(f"domain_radius must be positive, got {domain_radius}")

    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(-domain_radius, domain_radius, size=(sample_count, dim))

    emp_alpha = math.inf
    alpha_witness: list[float] = []
    strict_ok = True
    convexity_witness: list[float] | None = None

    for x in xs:
        for i in range(dim):
            p2 = reg.conjugate_partial2(x, i)
            if p2 <= 0.0:
                if strict_ok:
                    strict_ok = False
                    convexity_witness = [float(v) for v in x]
                continue
            p3 = abs(reg.conjugate_partial3(x, i))
            ratio = math.inf if p3 == 0.0 else p2 / p3
            if ratio < emp_alpha:
                emp_alpha = ratio
                alpha_witness = [float(v) for v in x]

    emp_beta = 0.0
    beta_witness: dict = {}
    for k, x in enumerate(xs):
        d = pair_distances[k % len(pair_distances)]
        step = rng.uniform(-1.0, 1.0, size=dim)
        peak = np.max(np.abs(step))
        if peak == 0.0:
            continue
        step *= d / peak
        x2 = x + step
        for i in range(dim):
            a = reg.conjugate_partial2(x, i)
            b = reg.conjugate_partial2(x2, i)
            if a <= 0.0 or b <= 0.0:
                if strict_ok:
                    strict_ok = False
                    convexity_witness = [float(v) for v in (x if a <= 0.0 else x2)]
                continue
            quot = abs(math.log(a) - math.log(b)) / d
            if quot > emp_beta:
                emp_beta = quot
                beta_witness = {
                    "x": [float(v) for v in x],
                    "x_prime": [float(v) for v in x2],
                    "coordinate": i,
                    "distance": d,
                }

    declared_alpha = reg.declared.alpha if reg.declared else None
    declared_beta = reg.declared.beta if reg.declared else None
    passed = strict_ok
    if passed and declared_alpha is not None and emp_alpha < declared_alpha:
        passed = False
    if passed and declared_beta is not None and emp_beta > declared_beta + beta_tol:
        passed = False

    return ConditionReport(
        regularizer=reg.name,
        dim=dim,
        domain_radius=domain_radius,
        sample_count=sample_count,
        declared_alpha=declared_alpha,
        declared_beta=declared_beta,
        empirical_alpha=emp_alpha,
        empirical_beta=emp_beta,
        alpha_witness=alpha_witness,
        beta_witness=beta_witness,
        strict_convexity_ok=strict_ok,
        convexity_witness=convexity_witness,
        passed=passed,
    )
