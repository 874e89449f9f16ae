"""Regularizer conjugate calculus and curvature certification."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from forecastcomp.regularizers import (
    BETA_TOL,
    L2,
    NEG_ENTROPY,
    PAIR_DISTANCES,
    ConditionReport,
    condition_check,
    entropy_conjugate_grad,
    entropy_conjugate_partial2,
    entropy_conjugate_partial3,
    l2_conjugate_grad,
    l2_conjugate_partial2,
)
from reference_helpers import entropy_conjugate, finite_difference_partials, l2_conjugate


class TestEntropyConjugate:
    def test_zero_vector(self):
        for n in (2, 5):
            assert entropy_conjugate(np.zeros(n)) == pytest.approx(math.log(n), abs=1e-12)

    def test_shift(self):
        assert entropy_conjugate(np.full(4, 3.5)) == pytest.approx(3.5 + math.log(4), abs=1e-12)

    def test_no_overflow(self):
        assert entropy_conjugate(np.array([1000.0, 0.0])) == pytest.approx(1000.0, abs=1e-9)

    def test_empty(self):
        with pytest.raises(ValueError):
            entropy_conjugate(np.array([]))

    def test_one_lipschitz_sup_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = rng.integers(2, 8)
            x = rng.uniform(-10, 10, n)
            d = rng.uniform(-1, 1, n)
            assert abs(entropy_conjugate(x + d) - entropy_conjugate(x)) <= np.max(np.abs(d)) + 1e-12


class TestEntropyGrad:
    def test_uniform(self):
        np.testing.assert_allclose(entropy_conjugate_grad(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_hand_value(self):
        np.testing.assert_allclose(
            entropy_conjugate_grad(np.array([math.log(3), 0.0])), [0.75, 0.25], atol=1e-15
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, 5)
        np.testing.assert_allclose(
            entropy_conjugate_grad(x), entropy_conjugate_grad(x + 7.25), rtol=1e-12
        )

    def test_simplex_output(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pi = entropy_conjugate_grad(rng.uniform(-50, 50, 6))
            assert pi.min() >= 0.0
            assert abs(pi.sum() - 1.0) <= 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_constrained_argmax(self):
        # grad C(eta q) must solve max_pi eta pi.q - R(pi) over the simplex.
        # (scipy's SLSQP emits a bounds-clipping RuntimeWarning internally.)
        rng = np.random.default_rng(2)
        for n in (2, 3):
            for _ in range(5):
                eta = rng.uniform(0.01, 0.5)
                q = rng.uniform(0, 10, n)
                target = entropy_conjugate_grad(eta * q)

                def objective(pi):
                    safe = np.clip(pi, 1e-300, 1.0)
                    return -(eta * np.dot(pi, q) - np.sum(safe * np.log(safe)))

                res = scipy.optimize.minimize(
                    objective,
                    np.full(n, 1.0 / n),
                    method="SLSQP",
                    bounds=[(1e-12, 1.0)] * n,
                    constraints={"type": "eq", "fun": lambda pi: pi.sum() - 1.0},
                    options={"ftol": 1e-14, "maxiter": 200},
                )
                np.testing.assert_allclose(res.x, target, atol=1e-6)


class TestEntropyPartials:
    def test_symmetric_two_point(self):
        x = np.zeros(2)
        assert entropy_conjugate_partial2(x, 0) == pytest.approx(0.25, abs=1e-15)
        assert entropy_conjugate_partial3(x, 0) == pytest.approx(0.0, abs=1e-15)

    def test_grad_matches_first_difference(self):
        rng = np.random.default_rng(3)
        h = 1e-4
        for _ in range(50):
            n = rng.integers(2, 6)
            x = rng.uniform(-10, 10, n)
            i = int(rng.integers(n))
            e = np.zeros(n)
            e[i] = h
            fd = (entropy_conjugate(x + e) - entropy_conjugate(x - e)) / (2 * h)
            assert abs(entropy_conjugate_grad(x)[i] - fd) <= 1e-6

    def test_partial2_matches_second_difference(self):
        rng = np.random.default_rng(4)
        h = 1e-4
        for _ in range(50):
            n = rng.integers(2, 6)
            x = rng.uniform(-10, 10, n)
            i = int(rng.integers(n))
            e = np.zeros(n)
            e[i] = h
            fd = (entropy_conjugate(x + e) - 2 * entropy_conjugate(x) + entropy_conjugate(x - e)) / h**2
            assert abs(entropy_conjugate_partial2(x, i) - fd) <= 1e-6

    def test_partial3_matches_difference_of_partial2(self):
        rng = np.random.default_rng(5)
        h = 1e-4
        for _ in range(50):
            n = rng.integers(2, 6)
            x = rng.uniform(-10, 10, n)
            i = int(rng.integers(n))
            e = np.zeros(n)
            e[i] = h
            fd = (entropy_conjugate_partial2(x + e, i) - entropy_conjugate_partial2(x - e, i)) / (2 * h)
            assert abs(entropy_conjugate_partial3(x, i) - fd) <= 1e-6

    def test_curvature_ratio_on_balanced_domain(self):
        # With both softmax weights in [1/4, 3/4] the ratio d2/|d3| stays >= 2.
        rng = np.random.default_rng(6)
        for _ in range(500):
            x = rng.uniform(-0.5, 0.5, 2)
            for i in range(2):
                p2 = entropy_conjugate_partial2(x, i)
                p3 = abs(entropy_conjugate_partial3(x, i))
                assert p3 == 0.0 or p2 / p3 >= 2.0

    def test_curvature_ratio_global_floor_is_one(self):
        # Outside the balanced domain the ratio drops below 2 but never
        # below 1: it equals 1/|1 - 2 pi_i|.
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(2000):
            x = rng.uniform(-8, 8, 3)
            for i in range(3):
                p2 = entropy_conjugate_partial2(x, i)
                p3 = abs(entropy_conjugate_partial3(x, i))
                if p3 > 0:
                    ratios.append(p2 / p3)
        ratios = np.array(ratios)
        assert ratios.min() < 2.0
        assert ratios.min() >= 1.0


class TestFiniteDifferenceFallback:
    def test_matches_closed_form_partial2(self):
        fd2, _ = finite_difference_partials(entropy_conjugate)
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(-5, 5, 3)
            assert abs(fd2(x, 1) - entropy_conjugate_partial2(x, 1)) <= 1e-5


class TestL2Conjugate:
    def test_grad_is_simplex_projection(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.uniform(-3, 3, 4)
            pi = l2_conjugate_grad(x)
            assert pi.min() >= 0.0
            assert abs(pi.sum() - 1.0) <= 1e-10
            # projection optimality: C(x) = max pi.x - ||pi||^2/2
            assert l2_conjugate(x) >= np.dot(x, pi) - 0.5 * np.dot(pi, pi) - 1e-12

    def test_partial2_zero_off_support(self):
        # far from the origin one coordinate dominates and the rest go flat
        x = np.array([5.0, 0.0, -1.0])
        assert l2_conjugate_partial2(x, 1) == 0.0
        assert l2_conjugate_partial2(x, 2) == 0.0


class TestConditionCheck:
    def test_neg_entropy_passes_on_balanced_domain(self):
        report = condition_check(NEG_ENTROPY, sample_count=2000, domain_radius=0.5, rng_seed=0, dim=2)
        assert report.strict_convexity_ok
        assert report.empirical_alpha >= 2.0
        assert report.empirical_beta <= 3.0 + 0.01
        assert report.passed

    def test_neg_entropy_alpha_declared_fails_on_wide_domain(self):
        # The declared alpha = 2 is a balanced-domain constant; sampling a
        # wide box exposes ratios below 2 (but never below the global 1).
        report = condition_check(NEG_ENTROPY, sample_count=3000, domain_radius=6.0, rng_seed=1, dim=3)
        assert report.strict_convexity_ok
        assert 1.0 <= report.empirical_alpha < 2.0
        assert not report.passed

    def test_l2_fails_with_witness(self):
        report = condition_check(L2, sample_count=2000, domain_radius=5.0, rng_seed=2, dim=3)
        assert not report.strict_convexity_ok
        assert not report.passed
        assert report.convexity_witness is not None
        # the witness really does break strict convexity along a coordinate
        x = np.array(report.convexity_witness)
        assert min(l2_conjugate_partial2(x, i) for i in range(3)) <= 0.0

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            condition_check(NEG_ENTROPY, sample_count=0, domain_radius=1.0, rng_seed=0)

    @pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="domain_radius must be finite and positive"):
            condition_check(NEG_ENTROPY, sample_count=5, domain_radius=radius, rng_seed=0)

    @pytest.mark.parametrize("radius", [1e308, 1.7e308])
    def test_radius_whose_box_width_overflows_rejected(self, radius):
        with pytest.raises(ValueError, match="the sampling box width 2r overflows"):
            condition_check(NEG_ENTROPY, sample_count=5, domain_radius=radius, rng_seed=0)

    def test_report_round_trips_to_dict(self):
        report = condition_check(NEG_ENTROPY, sample_count=100, domain_radius=0.5, rng_seed=3)
        d = report.to_dict()
        assert d["regularizer"] == "negative_entropy"
        assert d["declared_alpha"] == 2.0
        assert d["declared_beta"] == 3.0


# The per-point, per-coordinate loops that condition_check replaced, kept as
# its oracle: every partial is evaluated at one score vector at a time.

def _loop_condition_check(reg, sample_count, domain_radius, rng_seed, dim=2) -> dict:
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(-domain_radius, domain_radius, size=(sample_count, dim))

    emp_alpha = math.inf
    alpha_witness = []
    strict_ok = True
    convexity_witness = None

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
    beta_witness = {}
    for k, x in enumerate(xs):
        d = PAIR_DISTANCES[k % len(PAIR_DISTANCES)]
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
    ).to_dict()


REGULARIZERS = st.sampled_from([NEG_ENTROPY, L2])


@settings(max_examples=150, deadline=None)
@given(
    reg=REGULARIZERS,
    sample_count=st.integers(min_value=1, max_value=300),
    dim=st.integers(min_value=2, max_value=5),
    radius=st.floats(min_value=0.01, max_value=40.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_condition_check_matches_the_loop_oracle(reg, sample_count, dim, radius, seed):
    report = condition_check(reg, sample_count=sample_count, domain_radius=radius, rng_seed=seed, dim=dim)
    assert report.to_dict() == _loop_condition_check(reg, sample_count, radius, seed, dim)


@pytest.mark.parametrize(
    "reg, radius, seed, dim", [(NEG_ENTROPY, 0.5, 104, 2), (L2, 5.0, 105, 3)], ids=["neg_entropy", "l2"]
)
def test_condition_check_matches_the_loop_oracle_on_the_acceptance_configs(reg, radius, seed, dim):
    report = condition_check(reg, sample_count=10_000, domain_radius=radius, rng_seed=seed, dim=dim)
    assert report.to_dict() == _loop_condition_check(reg, 10_000, radius, seed, dim)


@settings(max_examples=100, deadline=None)
@given(reg=REGULARIZERS, data=st.data())
def test_partials_of_a_stack_are_the_partials_of_its_rows(reg, data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    rows = data.draw(st.integers(min_value=1, max_value=20))
    xs = data.draw(arrays(float, (rows, n), elements=st.floats(min_value=-40.0, max_value=40.0)))
    for i in range(n):
        for partial in (reg.conjugate_partial2, reg.conjugate_partial3):
            stacked = partial(xs, i)
            assert stacked.shape == (rows,)
            assert np.array_equal(stacked, [partial(x, i) for x in xs])
