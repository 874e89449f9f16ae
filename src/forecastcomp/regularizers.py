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
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CurvatureConstants",
    "Regularizer",
    "ConditionReport",
    "entropy_conjugate_grad",
    "entropy_conjugate_partial2",
    "entropy_conjugate_partial3",
    "l2_conjugate_grad",
    "l2_conjugate_partial2",
    "l2_conjugate_partial3",
    "condition_check",
    "NEG_ENTROPY",
    "L2",
]

PAIR_DISTANCES = (0.01, 0.1, 1.0)  # sup-norm separations of condition_check's beta pairs
BETA_TOL = 0.01  # slack condition_check allows over a declared beta
# condition_check takes logs with libm's math.log: numpy's SIMD log differs
# from it in the last bit on some inputs.
_log = np.vectorize(math.log, otypes=[float])


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

    Every derivative takes score vectors as an (..., n) array and maps each
    row along the last axis; a single vector gives a single value.

    Attributes:
        name: identifier used in configs and reports.
        conjugate_grad: gradient of C; each row a point in the simplex.
        conjugate_partial2: second partial of C along coordinate i, one value
            per row.
        conjugate_partial3: third partial of C along coordinate i, one value
            per row.
        declared: curvature constants claimed for this regularizer, if any.
    """

    name: str
    conjugate_grad: Callable[[np.ndarray], np.ndarray]
    conjugate_partial2: Callable[[np.ndarray, int], float | np.ndarray]
    conjugate_partial3: Callable[[np.ndarray, int], float | np.ndarray]
    declared: CurvatureConstants | None = None


def _as_finite_rows(x, name: str = "x") -> np.ndarray:
    """A (..., n) array of score vectors, one per row along the last axis."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"{name} must have a nonempty last axis")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


# ---------------------------------------------------------------------------
# Negative entropy / log-sum-exp
# ---------------------------------------------------------------------------

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


def entropy_conjugate_partial3(x, i: int):
    """Third coordinate partial of log-sum-exp: pi_i (1 - pi_i) (1 - 2 pi_i)."""
    pi = entropy_conjugate_grad(x)[..., i]
    return pi * (1.0 - pi) * (1.0 - 2.0 * pi)


# ---------------------------------------------------------------------------
# L2 regularizer (negative example)
# ---------------------------------------------------------------------------

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


def l2_conjugate_grad(x) -> np.ndarray:
    return _project_to_simplex(_as_finite_rows(x))


def l2_conjugate_partial2(x, i: int):
    # Piecewise linear gradient: slope 1 - 1/|S| on the active set, 0 off it.
    # The zero branch is what breaks strict convexity far from the origin.
    active = _project_to_simplex(_as_finite_rows(x)) > 0.0
    # [()] makes the result of a single vector a scalar
    return np.where(active[..., i], 1.0 - 1.0 / active.sum(axis=-1), 0.0)[()]


def l2_conjugate_partial3(x, i: int):
    # The gradient is piecewise linear, so its derivative is piecewise constant.
    return np.zeros(_as_finite_rows(x).shape[:-1])[()]


NEG_ENTROPY = Regularizer(
    name="negative_entropy",
    conjugate_grad=entropy_conjugate_grad,
    conjugate_partial2=entropy_conjugate_partial2,
    conjugate_partial3=entropy_conjugate_partial3,
    declared=CurvatureConstants(alpha=2.0, beta=3.0),
)

L2 = Regularizer(
    name="l2",
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
        return asdict(self)


def condition_check(
    reg: Regularizer,
    sample_count: int,
    domain_radius: float,
    rng_seed: int,
    dim: int = 2,
) -> ConditionReport:
    """Empirically estimate curvature constants of a regularizer's conjugate.

    Samples ``sample_count`` points x with ||x||_inf <= domain_radius.  For
    the alpha estimate it takes the worst ratio d2C/|d3C| over points and
    coordinates; for beta it takes the worst sup-norm difference quotient of
    log d2C over random pairs: point k is paired with a random step of sup
    norm ``PAIR_DISTANCES[k % 3]`` (a zero step pairs with nothing).  Every
    witness is the first extreme in point-then-coordinate order, and a
    convexity failure at a point comes before one at a partner.

    Args:
        reg: regularizer exposing closed-form partials.
        sample_count: number of sampled points per estimate; must be >= 1.
        domain_radius: sup-norm radius of the sampling box.
        rng_seed: seed for the sampling stream.
        dim: dimension of the score vectors (number of forecasters).

    Returns:
        A :class:`ConditionReport`; ``passed`` is False on any strict
        convexity violation or when empirical estimates contradict the
        declared constants (beta with ``BETA_TOL`` of slack).
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if not (domain_radius > 0.0 and math.isfinite(domain_radius)):
        raise ValueError(f"domain_radius must be finite and positive, got {domain_radius}")
    if not math.isfinite(2.0 * domain_radius):
        raise ValueError(f"domain_radius {domain_radius} is too large: the sampling box width 2r overflows")

    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(-domain_radius, domain_radius, size=(sample_count, dim))
    steps = rng.uniform(-1.0, 1.0, size=(sample_count, dim))
    dist = np.resize(PAIR_DISTANCES, sample_count)
    peak = np.abs(steps).max(axis=1)
    paired = peak > 0.0
    steps *= (dist / np.where(paired, peak, 1.0))[:, None]
    partners = xs + steps

    # (sample_count, dim) tables, entry [k, i] at point k along coordinate i;
    # argmin and argmax read them in point-then-coordinate (C) order.
    p2 = np.column_stack([reg.conjugate_partial2(xs, i) for i in range(dim)])
    q2 = np.column_stack([reg.conjugate_partial2(partners, i) for i in range(dim)])
    p3 = np.abs(np.column_stack([reg.conjugate_partial3(xs, i) for i in range(dim)]))

    broken = np.concatenate([xs[(p2 <= 0.0).any(axis=1)], partners[paired & (q2 <= 0.0).any(axis=1)]])
    strict_ok = len(broken) == 0
    convexity_witness = None if strict_ok else broken[0].tolist()

    ratio = np.divide(p2, p3, out=np.full_like(p2, math.inf), where=(p2 > 0.0) & (p3 != 0.0))
    k, i = divmod(int(ratio.argmin()), dim)
    emp_alpha = float(ratio[k, i])
    alpha_witness = xs[k].tolist() if emp_alpha < math.inf else []

    usable = paired[:, None] & (p2 > 0.0) & (q2 > 0.0)  # log(1) - log(1) = 0 elsewhere
    quot = np.abs(_log(np.where(usable, p2, 1.0)) - _log(np.where(usable, q2, 1.0))) / dist[:, None]
    k, i = divmod(int(quot.argmax()), dim)
    emp_beta = float(quot[k, i])
    beta_witness = (
        {"x": xs[k].tolist(), "x_prime": partners[k].tolist(), "coordinate": i, "distance": float(dist[k])}
        if emp_beta > 0.0
        else {}
    )

    declared_alpha = reg.declared.alpha if reg.declared else None
    declared_beta = reg.declared.beta if reg.declared else None
    passed = strict_ok
    if passed and declared_alpha is not None and emp_alpha < declared_alpha:
        passed = False
    if passed and declared_beta is not None and emp_beta > declared_beta + BETA_TOL:
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
