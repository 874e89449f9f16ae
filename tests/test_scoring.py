"""Scoring primitives: values, identities, and properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from forecastcomp.scoring import (
    accuracy,
    epsilon_optimal_set,
    expected_avg_quadratic_score,
    outcome_variance_constant,
    score_matrix,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _score(q: float, y: int) -> float:
    """The quadratic score of one report against one outcome."""
    return float(score_matrix([q], [y])[0])


class TestQuadraticScore:
    def test_perfect_report(self):
        assert _score(1.0, 1) == 1.0

    def test_worst_report(self):
        assert _score(0.0, 1) == 0.0

    def test_half_report(self):
        assert _score(0.5, 1) == 0.75

    @pytest.mark.parametrize("q", [-0.1, 1.1, 2.0])
    def test_out_of_domain_report(self, q):
        with pytest.raises(ValueError):
            _score(q, 1)

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            _score(0.5, 2)

    @given(q=probs, y=st.integers(min_value=0, max_value=1))
    def test_bounds(self, q, y):
        assert 0.0 <= _score(q, y) <= 1.0

    @given(q1=probs, q2=probs, y=st.integers(min_value=0, max_value=1))
    def test_two_lipschitz(self, q1, q2, y):
        assert abs(_score(q1, y) - _score(q2, y)) <= 2.0 * abs(q1 - q2) + 1e-12


class TestAccuracy:
    def test_beliefs_equal_truth(self):
        theta = np.array([0.2, 0.7, 0.5])
        assert accuracy(theta, theta) == 1.0

    def test_perfect_and_terrible(self):
        theta = np.ones(4)
        assert accuracy(np.ones(4), theta) == 1.0
        assert accuracy(np.zeros(4), theta) == 0.0

    def test_single_event(self):
        assert accuracy([0.5], [1.0]) == pytest.approx(0.75, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0.5, 0.5], [1.0])


class TestExpectedScore:
    def test_deterministic_perfect(self):
        assert expected_avg_quadratic_score(np.ones(3), np.ones(3)) == 1.0

    def test_hand_evaluated_two_branch(self):
        # 0.5 * S(0.3, 1) + 0.5 * S(0.3, 0) = 0.5 * 0.51 + 0.5 * 0.91
        assert expected_avg_quadratic_score([0.3], [0.5]) == pytest.approx(0.71, abs=1e-15)

    def test_identity_with_accuracy(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = rng.integers(1, 51)
            p = rng.random(m)
            theta = rng.random(m)
            lhs = expected_avg_quadratic_score(p, theta)
            rhs = accuracy(p, theta) - outcome_variance_constant(theta)
            assert abs(lhs - rhs) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expected_avg_quadratic_score([0.5], [1.0, 0.0])

    def test_properness_on_grid(self):
        # For a single event the expected score is 1 - (r-p)^2 - p(1-p), so
        # the truthful report beats every grid alternative by (r-p)^2.
        grid = np.linspace(0.0, 1.0, 1001)
        rng = np.random.default_rng(7)
        for p in rng.random(50):
            truthful = expected_avg_quadratic_score([p], [p])
            scores = np.array([expected_avg_quadratic_score([r], [p]) for r in grid])
            assert truthful >= scores.max() - 1e-15
            far = np.abs(grid - p) >= 1e-3
            assert np.all(truthful - scores[far] >= (1e-3) ** 2 - 1e-12)


class TestEpsilonOptimalSet:
    def test_clear_gap(self):
        assert epsilon_optimal_set([1.0, 0.0, 0.0], 0.5) == {0}

    def test_threshold(self):
        assert epsilon_optimal_set([0.9, 0.85, 0.5], 0.1) == {0, 1}

    def test_epsilon_one_includes_everyone(self):
        rng = np.random.default_rng(0)
        a = rng.random(8)
        assert epsilon_optimal_set(a, 1.0) == set(range(8))

    def test_contains_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.random(6)
            assert int(np.argmax(a)) in epsilon_optimal_set(a, 0.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            epsilon_optimal_set([0.5], -0.1)

    @pytest.mark.parametrize("accuracies", [[0.5], [0.9, 0.85, 0.5]])
    def test_nan_epsilon_rejected(self, accuracies):
        # a NaN slack would qualify no one, though the set always holds an argmax
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            epsilon_optimal_set(accuracies, float("nan"))


class TestScoreMatrix:
    def test_matches_scalar(self):
        rng = np.random.default_rng(3)
        r = rng.random((4, 6))
        y = (rng.random(6) < 0.5).astype(float)
        s = score_matrix(r, y)
        for i in range(4):
            for t in range(6):
                assert s[i, t] == 1.0 - (y[t] - r[i, t]) ** 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            score_matrix(np.full((2, 3), 0.5), np.zeros(4))
