"""Mechanism behavior: laws, invariants, replay, and cross-mechanism identities."""

import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from forecastcomp.mechanisms import (
    DEFAULT_ENUMERATION_BUDGET,
    Elf,
    Ftrl,
    MultWeights,
    PointPerRound,
    ReportNoisyMax,
    RngTrace,
    SimpleMax,
    WinnerDraw,
    elf_point_prob,
    elf_select,
    elf_winner_law,
    ftrl_select,
    laplace_from_uniform,
    mw_select,
    noisy_max_law,
    report_noisy_max_select,
    sample_winner,
    score_totals,
    select,
    selection_law,
    simple_max_select,
)
from forecastcomp import mechanisms
from forecastcomp.experiments import DRAW_CHUNK
from forecastcomp.mechanisms import _noisy_max_draws, _score_terms, _tally_dp_law, _totals
from forecastcomp.regularizers import L2, NEG_ENTROPY
from reference_helpers import elf_sample_points, fsum_totals, mc_winner_law, sampled_draws, to_record

rng_global = np.random.default_rng(2024)


def random_instance(rng, n_max=6, m_max=6):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return rng.random((n, m)), (rng.random(m) < 0.5).astype(float)


class TestSimpleMax:
    def test_middle_forecaster_cannot_win(self):
        # Reports 0.5 / 0.9 / 0.1 on one event: the hedger loses under both
        # outcomes while the extreme reporters split the wins.
        reports = np.array([[0.5], [0.9], [0.1]])
        up = simple_max_select(reports, [1.0], seed=0)
        down = simple_max_select(reports, [0.0], seed=0)
        assert up.winner == 1 and up.distribution[0] == 0.0
        assert down.winner == 2 and down.distribution[0] == 0.0

    def test_full_tie_uniform(self):
        reports = np.full((4, 3), 0.6)
        y = np.array([1.0, 0.0, 1.0])
        draw = simple_max_select(reports, y, seed=5)
        np.testing.assert_allclose(draw.distribution, np.full(4, 0.25))

    def test_clear_winner(self):
        draw = simple_max_select(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones(2), seed=1)
        assert draw.winner == 0
        np.testing.assert_array_equal(draw.distribution, [1.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            simple_max_select(np.full((2, 3), 0.5), np.ones(2), seed=0)


class TestElfPointProb:
    def test_perfect_vs_terrible(self):
        for n in (3, 5, 10):
            reports = np.zeros((n, 1))
            reports[0] = 1.0
            f = elf_point_prob(reports, 1, 0)
            assert f[0] == 2.0 / n
            np.testing.assert_allclose(f[1:], (n - 2) / (n * (n - 1)), rtol=1e-14)

    def test_equal_reports_uniform(self):
        f = elf_point_prob(np.full((5, 2), 0.3), 0, 1)
        np.testing.assert_allclose(f, 0.2, rtol=1e-14)

    def test_two_player_extreme(self):
        f = elf_point_prob(np.array([[1.0], [0.0]]), 1, 0)
        np.testing.assert_allclose(f, [1.0, 0.0], atol=1e-15)

    def test_range_and_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            reports, y = random_instance(rng, n_max=10, m_max=4)
            n = reports.shape[0]
            t = int(rng.integers(reports.shape[1]))
            f = elf_point_prob(reports, int(y[t]), t)
            assert f.min() >= -1e-15
            assert f.max() <= 2.0 / n + 1e-15
            assert abs(f.sum() - 1.0) <= 1e-12

    def test_single_forecaster_rejected(self):
        with pytest.raises(ValueError):
            elf_point_prob(np.full((1, 1), 0.5), 1, 0)

    def test_normality(self):
        # raising one forecaster's score weakly lowers everyone else's
        # point probability
        rng = np.random.default_rng(12)
        for _ in range(100):
            reports, y = random_instance(rng, n_max=6, m_max=3)
            t = int(rng.integers(reports.shape[1]))
            f_before = elf_point_prob(reports, 1, t)
            improved = reports.copy()
            improved[0, t] = min(1.0, improved[0, t] + 0.3)
            f_after = elf_point_prob(improved, 1, t)
            assert np.all(f_after[1:] <= f_before[1:] + 1e-12)


class TestElfSelect:
    def test_single_event_law_matches_point_prob(self):
        rng = np.random.default_rng(13)
        reports = rng.random((4, 1))
        y = np.array([1.0])
        np.testing.assert_allclose(
            elf_winner_law(reports, y), elf_point_prob(reports, 1, 0), atol=1e-12
        )

    def test_expected_points_perfect_vs_terrible(self):
        n, m, trials = 5, 20, 4000
        reports = np.zeros((n, m))
        reports[0] = 1.0
        y = np.ones(m)
        totals = np.zeros(n)
        for k in range(trials):
            totals += elf_sample_points(reports, y, seed=k)
        mean_leader = totals[0] / trials
        expect = 2.0 * m / n
        se = math.sqrt(m * (2 / n) * (1 - 2 / n) / trials)
        assert abs(mean_leader - expect) <= 4 * se

    def test_seed_replay(self):
        rng = np.random.default_rng(14)
        reports, y = random_instance(rng)
        a = elf_select(reports, y, seed=123)
        b = elf_select(reports, y, seed=123)
        assert a.winner == b.winner
        np.testing.assert_array_equal(a.distribution, b.distribution)
        assert a.rng_trace == b.rng_trace

    def test_exact_law_matches_monte_carlo(self):
        rng = np.random.default_rng(15)
        reports = rng.random((3, 4))
        y = (rng.random(4) < 0.5).astype(float)
        law = elf_winner_law(reports, y)
        mc, se = mc_winner_law(Elf(), reports, y, trials=8000, seed=77)
        np.testing.assert_allclose(law, mc, atol=5 * se + 1e-3)

    def test_dp_budget_error(self):
        reports = np.random.default_rng(16).random((8, 200))
        y = np.ones(200)
        with pytest.raises(ValueError, match=f"over budget {DEFAULT_ENUMERATION_BUDGET}"):
            elf_winner_law(reports, y)


class TestPointPerRound:
    def test_scaled_quadratic_recovers_event_lottery(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            reports, y = random_instance(rng, n_max=6, m_max=4)
            n = reports.shape[0]
            g = lambda r, yy: (1.0 - (yy - r) ** 2) / n
            t = int(rng.integers(reports.shape[1]))
            np.testing.assert_allclose(
                PointPerRound(g, 1.0 / n)._point_probs(reports, y)[t],
                elf_point_prob(reports, int(y[t]), t),
                atol=1e-12,
            )

    def test_constant_rule_uniform(self):
        reports = np.random.default_rng(18).random((4, 2))
        f = PointPerRound(lambda r, y: 0.125, 0.25)._point_probs(reports, np.ones(2))[0]
        np.testing.assert_allclose(f, 0.25, atol=1e-15)

    def test_oversized_range_rejected(self):
        reports = np.random.default_rng(19).random((4, 2))
        y = np.ones(2)
        # range length 2/n: twice the allowed budget
        g = lambda r, yy: (1.0 - (yy - r) ** 2) / 2.0
        with pytest.raises(ValueError, match="range"):
            PointPerRound(g, 0.5).sample(reports, y, seed=0)

    def test_range_sampled_once_and_g_called_once_per_sample(self):
        calls = []

        def g(r, y):
            calls.append(1)
            return (1.0 - (y - r) ** 2) / 5.0

        mech = PointPerRound(g, range_length=0.2)
        calls.clear()
        rng = np.random.default_rng(34)
        reports, y = rng.random((5, 60)), (rng.random(60) < 0.5).astype(float)
        draws = [mech.sample(reports, y, seed=k) for k in range(2)]
        assert len(calls) == 2
        assert [d.winner for d in draws] == [Elf().sample(reports, y, seed=k).winner for k in range(2)]

    @pytest.mark.parametrize(
        "call, message",
        [
            ("construct", "sampled range of g has length nan"),
            ("law", "violates its range budget: .* point probability nan"),
            ("sample", "violates its range budget: .* point probability nan"),
        ],
        ids=["construct", "law", "sample"],
    )
    def test_nan_rule_rejected(self, call, message):
        # NaN everywhere at construction; otherwise only strictly between the
        # construction grid's 0.30 and 0.31, where its range check cannot see it
        def g(r, y):
            nan = np.full(np.shape(r), True) if call == "construct" else (r > 0.302) & (r < 0.308)
            return np.where(nan, np.nan, (1.0 - (y - r) ** 2) / 5.0)

        reports, y = np.array([[0.305, 0.5], [0.2, 0.7], [0.9, 0.1]]), np.array([1.0, 0.0])
        with pytest.raises(ValueError, match=message):
            mech = PointPerRound(g, range_length=0.2)
            mech.law(reports, y) if call == "law" else mech.sample(reports, y, seed=0)

    def test_range_beyond_declared_length_rejected_at_construction(self):
        with pytest.raises(ValueError, match="range_length"):
            PointPerRound(lambda r, y: (1.0 - (y - r) ** 2) / 2.0, range_length=0.25)


class TestLotteryValidation:
    LOTTERIES = [Elf(), PointPerRound(g=lambda r, y: (1.0 - (y - r) ** 2) / 4.0, range_length=0.25)]

    @pytest.mark.parametrize("mech", LOTTERIES, ids=["elf", "point-per-round"])
    def test_law_validates_the_reports_once(self, mech):
        rng = np.random.default_rng(50)
        reports, bits = rng.random((3, 3)), (rng.random((8, 3)) < 0.5).astype(float)
        with mock.patch.object(mechanisms, "_validate_stack", wraps=mechanisms._validate_stack) as validate:
            law = mech.law(reports, bits)
        assert validate.call_count == 1
        assert np.array_equal(law, _tally_dp_law(mech._point_probs(reports, bits)))

    @pytest.mark.parametrize("mech", LOTTERIES, ids=["elf", "point-per-round"])
    def test_law_keeps_its_refusals(self, mech):
        y = np.ones(2)
        with pytest.raises(ValueError, match=r"^event lotteries need n >= 2 forecasters, got 1$"):
            mech.law(np.full((1, 2), 0.5), y)
        with pytest.raises(ValueError, match=r"^reports entries must lie in \[0, 1\]$"):
            mech.law(np.full((3, 2), 1.5), y)
        with pytest.raises(ValueError, match=r"^reports must be an \(n, m\) matrix or a \(\.\.\., n, m\) stack"):
            mech.law(np.full(2, 0.5), y)


class TestOneTrialLotterySample:
    LOTTERIES = [Elf(), PointPerRound(g=lambda r, y: (1.0 - (y - r) ** 2) / 6.0, range_length=1.0 / 6.0)]

    @pytest.mark.parametrize("mech", LOTTERIES, ids=["elf", "point-per-round"])
    def test_sample_equals_its_draw_row(self, mech):
        # reports on a coarse grid tie tallies often, so the tie-break draw is compared too
        rng = np.random.default_rng(52)
        for _ in range(40):
            n, m, rows = int(rng.integers(2, 7)), int(rng.integers(1, 9)), int(rng.integers(1, 6))
            reports = rng.random((n, m))
            reports[rng.random((n, m)) < 0.5] = 0.5
            outcomes = (rng.random((rows, m)) < rng.random()).astype(float)
            seeds = [int(seed) for seed in rng.integers(0, 2**32, rows)]
            for y, seed, draw in zip(outcomes, seeds, sampled_draws(mech, reports, outcomes, seeds)):
                assert to_record(mech.sample(reports, y, seed)) == to_record(draw)


class TestFtrlAndMw:
    def test_equal_scores_uniform(self):
        reports = np.full((5, 3), 0.4)
        y = np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(ftrl_select(reports, y, NEG_ENTROPY, 0.3), 0.2, rtol=1e-14)

    def test_ftrl_entropy_equals_mw_closed_form(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, 101))
            reports = rng.random((n, m))
            y = (rng.random(m) < 0.5).astype(float)
            eta = float(rng.uniform(0.001, 0.3))
            a = ftrl_select(reports, y, NEG_ENTROPY, eta)
            b = mw_select(reports, y, eta)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_vanishing_eta_goes_uniform(self):
        rng = np.random.default_rng(21)
        reports = rng.random((6, 100))
        y = (rng.random(100) < 0.5).astype(float)
        pi = ftrl_select(reports, y, NEG_ENTROPY, 1e-8)
        assert np.max(np.abs(pi - 1.0 / 6.0)) <= 1e-6

    def test_mw_hand_softmax(self):
        # score gap Delta with eta*Delta = log 3 gives (0.75, 0.25)
        reports = np.array([[1.0], [0.0]])
        y = np.ones(1)
        eta = math.log(3.0)
        np.testing.assert_allclose(mw_select(reports, y, eta), [0.75, 0.25], rtol=1e-14)

    def test_mw_shift_invariance(self):
        rng = np.random.default_rng(22)
        reports = rng.random((4, 3))
        y = np.ones(3)
        base = mw_select(reports, y, 0.7)
        # identical extra event for everyone shifts all totals equally
        extended = np.hstack([reports, np.full((4, 1), 0.5)])
        shifted = mw_select(extended, np.ones(4), 0.7)
        np.testing.assert_allclose(base, shifted, rtol=1e-12)

    def test_mw_exponential_tail(self):
        # a trailing forecaster further than log(2n/delta)/eta behind the
        # leader gets probability at most delta/(2n)
        n, delta, eta = 6, 0.1, 0.5
        gap = math.log(2 * n / delta) / eta
        totals_gap = gap + 0.5
        m = int(math.ceil(totals_gap)) + 1
        reports = np.zeros((n, m))
        reports[0, : m - 1] = 1.0
        y = np.ones(m)
        # leader scores m-1, everyone else 0; ensure gap exceeds threshold
        assert (m - 1) - 0 > gap
        pi = mw_select(reports, y, eta)
        assert pi[1] <= delta / (2 * n)

    def test_mw_monotonicity(self):
        rng = np.random.default_rng(23)
        reports = rng.random((4, 5))
        y = (rng.random(5) < 0.5).astype(float)
        pi = mw_select(reports, y, 0.4)
        better = reports.copy()
        better[2] = y  # perfect reports strictly raise forecaster 2's total
        pi2 = mw_select(better, y, 0.4)
        assert pi2[2] > pi[2]
        others = [i for i in range(4) if i != 2]
        assert np.all(pi2[others] < pi[others])

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            mw_select(np.full((2, 1), 0.5), np.ones(1), 0.0)
        with pytest.raises(ValueError):
            MultWeights(eta=-1.0)

    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_non_finite_eta_rejected(self, eta):
        for build in (lambda: MultWeights(eta=eta), lambda: Ftrl(regularizer=L2, eta=eta)):
            with pytest.raises(ValueError, match="eta must be > 0 and finite"):
                build()

    def test_mult_weights_is_entropy_ftrl(self):
        mw = MultWeights(eta=0.2)
        assert isinstance(mw, Ftrl) and mw.regularizer is NEG_ENTROPY
        assert repr(mw) == "MultWeights(eta=0.2)"
        reports, y = random_instance(np.random.default_rng(34))
        np.testing.assert_array_equal(selection_law(mw, reports, y), mw_select(reports, y, 0.2))

    def test_eta_truthfulness_warning(self):
        with pytest.warns(UserWarning, match="eta"):
            MultWeights(eta=0.9)

    @pytest.mark.parametrize("build", [lambda: MultWeights(eta=5.0), lambda: Ftrl(NEG_ENTROPY, 5.0)], ids=["mw", "ftrl"])
    def test_eta_warning_names_the_caller(self, build):
        with pytest.warns(UserWarning, match="eta") as record:
            build()
        assert record[0].filename == __file__


class TestReportNoisyMax:
    def test_vanishing_noise_matches_simple_max(self):
        rng = np.random.default_rng(24)
        for k in range(20):
            reports = rng.random((4, 3))
            y = (rng.random(3) < 0.5).astype(float)
            noisy = report_noisy_max_select(reports, y, b=1e-9, seed=k)
            crisp = simple_max_select(reports, y, seed=k)
            assert noisy.winner == crisp.winner

    def test_seed_replay(self):
        reports = np.random.default_rng(25).random((5, 4))
        y = np.ones(4)
        a = report_noisy_max_select(reports, y, b=4.0, seed=9)
        b = report_noisy_max_select(reports, y, b=4.0, seed=9)
        assert a.winner == b.winner and a.rng_trace == b.rng_trace

    def test_law_matches_per_forecaster_quadrature(self):
        # tied totals give zero-width panels; spreads up to 1,000 give rows of
        # very different panel counts in one stack
        rng = np.random.default_rng(36)
        for _ in range(150):
            n, b = int(rng.integers(1, 6)), float(rng.uniform(4.0, 80.0))
            totals = rng.uniform(0.0, rng.choice([1.0, 10.0, 100.0, 1000.0]), (int(rng.integers(1, 6)), n))
            totals[:, -1] = np.where(rng.random(len(totals)) < 0.3, totals[:, 0], totals[:, -1])
            for q, law in zip(totals, noisy_max_law(totals, b)):
                oracle = np.array([_per_forecaster_quadrature(q, b, i) for i in range(n)])
                np.testing.assert_allclose(law, oracle / oracle.sum(), rtol=0.0, atol=1e-12)

    def test_law_matches_sampler_frequencies(self):
        # totals 8, 6 and 0 against b = 4: a law far from uniform
        y = (np.arange(8) % 2).astype(float)
        reports = np.vstack([y, np.full(8, 0.5), 1.0 - y])
        law = ReportNoisyMax(b=4.0).law(reports, y)
        trials = 20_000
        winners = [report_noisy_max_select(reports, y, 4.0, seed=k).winner for k in range(trials)]
        freq = np.bincount(winners, minlength=3) / trials
        assert np.all(np.abs(freq - law) <= 4.0 * np.sqrt(law * (1.0 - law) / trials))

    def test_config_requires_b_at_least_four(self):
        with pytest.raises(ValueError):
            ReportNoisyMax(b=2.0)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_config_requires_finite_b(self, b):
        with pytest.raises(ValueError, match="requires a finite b >= 4"):
            ReportNoisyMax(b=b)

    def test_laplace_tail_bound(self):
        b, trials = 3.0, 200_000
        rng = np.random.default_rng(26)
        draws = np.array([laplace_from_uniform(u - 0.5, b) for u in rng.random(trials)])
        for delta_prime in (0.1, 0.01):
            bound = b * math.log(1.0 / delta_prime)
            emp = np.mean(np.abs(draws) > bound)
            se = math.sqrt(delta_prime * (1 - delta_prime) / trials)
            assert emp <= delta_prime + 3 * se


class TestSampleLaplace:
    def test_median_maps_to_zero(self):
        assert laplace_from_uniform(0.0, 5.0) == 0.0

    def test_moments(self):
        b, trials = 2.0, 1_000_000
        rng = np.random.default_rng(27)
        draws = np.array([laplace_from_uniform(u - 0.5, b) for u in rng.random(trials)])
        assert abs(draws.mean()) <= 5 * b / 1000
        assert abs(draws.var() - 2 * b * b) <= 0.02 * 2 * b * b

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            laplace_from_uniform(0.2, 0.0)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_refused(self, b):
        with pytest.raises(ValueError, match="scale b must be finite and positive"):
            laplace_from_uniform(0.2, b)
        with pytest.raises(ValueError, match="scale b must be finite and positive"):
            report_noisy_max_select(np.full((3, 2), 0.5), np.ones(2), b, seed=1)
        with pytest.raises(ValueError, match="scale b must be finite and positive"):
            noisy_max_law(np.array([1.0, 2.0]), b)


ALL_CONFIGS = [
    SimpleMax(),
    Elf(),
    PointPerRound(g=lambda r, y: (1.0 - (y - r) ** 2) / 4.0, range_length=0.25),
    MultWeights(eta=0.2),
    Ftrl(regularizer=NEG_ENTROPY, eta=0.2),
    ReportNoisyMax(b=5.0),
]
ALL_IDS = ["simple_max", "elf", "point_per_round", "mw", "ftrl", "noisy_max"]


class TestSelectionLawInvariants:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=ALL_IDS)
    def test_law_is_distribution(self, config):
        rng = np.random.default_rng(28)
        for _ in range(20):
            reports, y = random_instance(rng, n_max=4, m_max=4)
            law = selection_law(config, reports, y)
            assert law.min() >= -1e-12
            assert abs(law.sum() - 1.0) <= 1e-10

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=ALL_IDS)
    def test_permutation_equivariance(self, config):
        rng = np.random.default_rng(29)
        for _ in range(10):
            reports, y = random_instance(rng, n_max=4, m_max=3)
            n = reports.shape[0]
            perm = rng.permutation(n)
            law = selection_law(config, reports, y)
            law_perm = selection_law(config, reports[perm], y)
            np.testing.assert_allclose(law_perm, law[perm], atol=1e-9)

    @pytest.mark.parametrize("config", ALL_CONFIGS + [Ftrl(regularizer=L2, eta=0.2)], ids=ALL_IDS + ["ftrl_l2"])
    def test_utility_kernel_matches_law(self, config):
        # the kernel's P(row 0 wins) under each outcome row is row 0 of the law
        rng = np.random.default_rng(33)
        for _ in range(5):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            opponents, report = rng.random((n - 1, m)), rng.random(m)
            bits = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
            expected = [config.law(np.vstack([report, opponents]), y)[0] for y in bits]
            np.testing.assert_allclose(config.utility_kernel(opponents, bits)[0](report), expected, atol=1e-9)

    @pytest.mark.parametrize("config", ALL_CONFIGS + [Ftrl(regularizer=L2, eta=0.2)], ids=ALL_IDS + ["ftrl_l2"])
    def test_law_over_a_stack_equals_each_row(self, config):
        # lotteries refuse empty outcomes; the (3, 9) stack spans two chunks;
        # in the (3, 60) stack, reports at 0, 1/2 and 1 against outcomes of
        # varying bias give noisy-max rows of different panel counts
        rng = np.random.default_rng(35)
        m_low = 1 if isinstance(config, (Elf, PointPerRound)) else 0
        shapes = [(int(rng.integers(2, 5)), int(rng.integers(m_low, 5)), int(rng.integers(1, 20))) for _ in range(12)]
        for n, m, rows in shapes + [(3, 9, 2**9), (3, 60, 12)]:
            reports = rng.random((n, m)) if m != 60 else np.repeat([[0.0], [0.5], [1.0]], m, axis=1)
            outcomes = (rng.random((rows, m)) < rng.random((rows, 1))).astype(float)
            law = config.law(reports, outcomes)
            assert law.shape == (rows, n)
            for k in range(rows):
                np.testing.assert_array_equal(law[k], config.law(reports, outcomes[k]))

    # the law-based kernels, which the best-response grid calls on candidate stacks
    @pytest.mark.parametrize("config", ALL_CONFIGS[:3], ids=ALL_IDS[:3])
    def test_utility_kernel_of_a_candidate_stack_equals_each_candidate(self, config):
        rng = np.random.default_rng(36)
        for n, m in [(2, 1), (3, 3), (4, 2)]:
            opponents, candidates = rng.random((n - 1, m)), rng.random((7, m))
            bits = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
            kernel, _ = config.utility_kernel(opponents, bits)
            stacked = kernel(candidates)
            assert stacked.shape == (7, 2**m)
            for row, candidate in zip(stacked, candidates):
                np.testing.assert_array_equal(row, kernel(candidate))

    def test_winner_draw_records_seed_provenance(self):
        reports, y = random_instance(np.random.default_rng(30))
        for config in (SimpleMax(), Elf(), MultWeights(eta=0.2), ReportNoisyMax(b=4.0)):
            draw = select(config, reports, y, seed=31)
            record = to_record(draw)
            assert record["seed"] == 31
            assert record["draws"] >= 0
            assert 0 <= record["winner"] < reports.shape[0]

    def test_sample_winner_matches_law_frequencies(self):
        law = np.array([0.6, 0.3, 0.1])
        counts = np.zeros(3)
        trials = 20000
        for k in range(trials):
            counts[sample_winner(law, seed=k).winner] += 1
        np.testing.assert_allclose(counts / trials, law, atol=0.015)


class TestTallyDp:
    def test_stack_matches_path_enumeration(self):
        # binary reports against perfect opponents give zero point probabilities
        rng = np.random.default_rng(37)
        zeros = 0
        for k in range(60):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            reports = rng.random((n, m)) if k % 2 else (rng.random((n, m)) < 0.5).astype(float)
            bits = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
            tables = Elf()._point_probs(reports, bits)
            zeros += int(np.sum(tables == 0.0))
            for table, law in zip(tables, _tally_dp_law(tables)):
                np.testing.assert_allclose(law, _path_enumeration(table), rtol=0.0, atol=1e-12)
        assert zeros > 0


def _path_enumeration(table: np.ndarray) -> np.ndarray:
    """Tally-and-argmax winner law of an (m, n) point table over all n^m point paths."""
    m, n = table.shape
    law = np.zeros(n)
    for path in itertools.product(range(n), repeat=m):
        prob = math.prod(table[t, i] for t, i in enumerate(path))
        tally = np.bincount(path, minlength=n)
        ties = np.flatnonzero(tally == tally.max())
        law[ties] += prob / ties.size
    return law


def _per_forecaster_quadrature(totals, b: float, index: int, order: int = 24) -> float:
    """P(index wins) under Report Noisy Max as an integral over its own noise
    w, by Gauss-Legendre panels between the kinks at 0 and q_j - q_index,
    one forecaster at a time: the oracle for the batched noisy-max law."""
    q = np.asarray(totals, dtype=float)
    if q.size == 1:
        return 1.0
    nodes, weights = np.polynomial.legendre.leggauss(order)
    tail = 40.0 * b
    kinks = np.unique(np.concatenate([[0.0], np.delete(q, index) - q[index]]))
    edges = np.concatenate([[kinks[0] - tail], kinks, [kinks[-1] + tail]])
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
    for j in range(q.size):
        if j != index:
            x = q[index] + pts - q[j]
            prod *= np.where(x < 0.0, 0.5 * np.exp(x / b), 1.0 - 0.5 * np.exp(-x / b))
    return float(np.sum(half[:, None] * weights[None, :] * density * prod))


def _tail_panel_law(totals, b: float) -> np.ndarray:
    """The noisy-max law by the quadrature the library used before its tails
    were exact: Gauss-Legendre panels at most 4b wide between the sorted totals
    and over a 40b tail on each side, one panel layout per row."""
    q = np.asarray(totals, dtype=float)
    rows = q.reshape(-1, q.shape[-1])
    nodes, weights = np.polynomial.legendre.leggauss(mechanisms.GL_ORDER)
    s = np.sort(rows, axis=1)
    edges = np.column_stack([s[:, 0] - 40.0 * b, s, s[:, -1] + 40.0 * b])
    width = np.diff(edges, axis=1)
    pieces = np.maximum(1.0, np.ceil(width / (4.0 * b)))
    ends = np.cumsum(pieces, axis=1)
    # panel boundary p lies in gap g, the number of gaps ending at or before p
    p = np.arange(ends[:, -1].max() + 1)[None, :]
    gap = np.minimum(np.sum(p[..., None] >= ends[:, None, :], axis=2), width.shape[1] - 1)
    pick = lambda a: np.take_along_axis(a, gap, axis=1)  # noqa: E731
    x = np.where(p >= ends[:, -1:], edges[:, -1:], pick(edges) + pick(width) * (p - pick(ends - pieces)) / pick(pieces))
    half = 0.5 * (x[:, 1:] - x[:, :-1])
    z = ((0.5 * (x[:, 1:] + x[:, :-1]))[..., None] + half[..., None] * nodes).reshape(len(rows), -1) - rows.T[..., None]
    tail = 0.5 * np.exp(-np.abs(z) / b)
    cdf = np.where(z < 0.0, tail, 1.0 - tail)
    others = np.ones_like(cdf)
    for i in range(len(cdf)):
        for j in range(len(cdf)):
            if j != i:
                others[i] *= cdf[j]
    terms = (half[..., None] * weights).reshape(len(rows), -1) * tail / b * others
    law = terms.sum(axis=-1).T.reshape(q.shape)
    return law / law.sum(axis=-1, keepdims=True)


def _noisy_max_integrand(q: np.ndarray, b: float, i: int, x: float) -> float:
    """f(x - q_i) prod_{j != i} F(x - q_j) for Laplace(0, b) noise, one point at a time."""
    cdf = lambda z: 0.5 * math.exp(z / b) if z < 0.0 else 1.0 - 0.5 * math.exp(-z / b)  # noqa: E731
    return math.exp(-abs(x - q[i]) / b) / (2.0 * b) * math.prod(cdf(x - q[j]) for j in range(q.size) if j != i)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    b=st.floats(4.0, 80.0),
    spread=st.sampled_from([0.0, 1.0, 10.0, 100.0, 2000.0]) | st.floats(0.0, 2000.0),
    ties=st.integers(0, 3),
    data=st.data(),
)
def test_law_matches_the_tail_panel_oracle(n, b, spread, ties, data):
    # the exact tails against the 40b tail panels they replaced, whose
    # truncation error is below e^-40; tied totals give zero-width gaps
    rows = data.draw(st.integers(1, 4), label="rows")
    unit = data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows * n, max_size=rows * n), label="unit")
    totals = spread * np.array(unit).reshape(rows, n)
    totals[:, n - min(ties, n - 1):] = totals[:, :1]
    law = noisy_max_law(totals, b)
    np.testing.assert_allclose(law, _tail_panel_law(totals, b), rtol=0.0, atol=1e-13)
    for row, row_law in zip(totals, law):
        np.testing.assert_array_equal(noisy_max_law(row, b), row_law)


@pytest.mark.parametrize("n, b, spread", [(1, 4.0, 0.0), (2, 4.0, 3.0), (3, 40.0, 2.5), (5, 10.0, 60.0), (8, 80.0, 300.0)])
def test_noisy_max_tails_match_integrals_of_their_own_intervals(n, b, spread):
    # node 0 is the closed-form mass left of the lowest total, the last ceil(n/2)
    # nodes the mass right of the highest; each against adaptive quadrature over
    # its interval, cut at 60b, where the integrand is below e^-60 of its peak
    totals = np.random.default_rng(n).uniform(0.0, spread, (1, n))
    terms = mechanisms._noisy_max_terms(totals, b)[:, 0]
    lo, hi, right_nodes = totals.min(), totals.max(), (n + 1) // 2
    for i in range(n):
        f = functools.partial(_noisy_max_integrand, totals[0], b, i)
        left = scipy.integrate.quad(f, lo - 60.0 * b, lo, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        right = scipy.integrate.quad(f, hi, hi + 60.0 * b, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        assert terms[i, 0] == pytest.approx(left, rel=1e-12, abs=1e-16)
        assert terms[i, -right_nodes:].sum() == pytest.approx(right, rel=1e-12, abs=1e-16)


def test_lost_mass_is_a_runtime_error(monkeypatch):
    # halved quadrature weights lose a share of every row's mass
    nodes = mechanisms._gl_nodes
    monkeypatch.setattr(mechanisms, "_gl_nodes", lambda order: (nodes(order)[0], 0.5 * nodes(order)[1]))
    with pytest.raises(RuntimeError, match="noisy-max quadrature lost mass"):
        noisy_max_law(np.array([[0.0, 3.0, 5.0], [1.0, 1.0, 1.0]]), 4.0)


class TestL2FtrlRuns:
    def test_l2_ftrl_is_a_distribution(self):
        rng = np.random.default_rng(32)
        reports, y = random_instance(rng)
        pi = ftrl_select(reports, y, L2, 0.1)
        assert pi.min() >= 0.0
        assert abs(pi.sum() - 1.0) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mw_distribution_property(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    m = data.draw(st.integers(min_value=1, max_value=6))
    flat = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n * m,
            max_size=n * m,
        )
    )
    y = data.draw(st.lists(st.integers(min_value=0, max_value=1), min_size=m, max_size=m))
    eta = data.draw(st.floats(min_value=1e-4, max_value=0.3))
    pi = mw_select(np.array(flat).reshape(n, m), np.array(y, dtype=float), eta)
    assert pi.min() > 0.0
    assert abs(pi.sum() - 1.0) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mw_select_is_the_softmax_it_had(data):
    # mw_select is the negative-entropy conjugate gradient; before, it kept
    # its own copy of the softmax, which is the oracle here
    n = data.draw(st.integers(min_value=2, max_value=8))
    m = data.draw(st.integers(min_value=0, max_value=12))
    reports = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n * m, max_size=n * m))).reshape(n, m)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=float)
    eta = data.draw(st.floats(min_value=1e-4, max_value=50.0))
    z = eta * score_totals(reports, y)
    e = np.exp(z - z.max())
    assert np.array_equal(mw_select(reports, y, eta), e / e.sum())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_totals_keep_each_rows_bits_in_any_stack(data):
    # reports are drawn rows repeated at random, so some forecasters are
    # identical; outcome stacks reach the trial engine's chunk size, and the
    # (G, 1, n, m) report stacks stay within _totals' documented m <= 8,192
    n = data.draw(st.integers(1, 6), label="n")
    m = data.draw(st.integers(0, 40) | st.sampled_from([64, 255, 1000]), label="m")
    prob = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    rows = data.draw(st.lists(st.lists(prob, min_size=m, max_size=m), min_size=1, max_size=n), label="rows")
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n), label="picks")
    reports = np.array(rows).reshape(len(rows), m)[picks]
    chunk = DRAW_CHUNK // (n + m)
    b = data.draw(st.sampled_from([1, chunk]) | st.integers(1, chunk), label="B")
    y = (np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).random((b, m)) < 0.5) * 1.0
    totals = _totals(_score_terms(reports), y)
    assert totals.shape == (b, n)
    if m == 0:
        assert np.array_equal(totals, np.zeros((b, n)))
    for k in range(b):
        assert np.array_equal(totals[k], _totals(_score_terms(reports), y[k]))
    same = reports[:, None, :] == reports[None, :, :]
    i, j = np.nonzero(same.all(axis=-1))
    assert np.array_equal(totals[:, i], totals[:, j])
    assert np.abs(totals - fsum_totals(reports, y)).max(initial=0.0) <= 1e-12 * max(1, m)
    # the same matrix among others in a report stack, against the first rows of the outcome stack
    g = data.draw(st.integers(1, 3), label="G")
    stack = np.random.default_rng(g).random((g, n, m))
    stack[data.draw(st.integers(0, g - 1), label="at")] = reports
    few = y[:8]
    stacked = _totals(_score_terms(stack[:, None]), few)
    assert stacked.shape == (g, len(few), n)
    for h in range(g):
        assert np.array_equal(stacked[h], _totals(_score_terms(stack[h]), few))
        for k in range(len(few)):
            assert np.array_equal(stacked[h, k], _totals(_score_terms(stack[h]), few[k]))


def test_totals_past_the_iterator_buffer_keep_each_rows_bits():
    # at m = 9,000 a (B, m) outcome stack against one report matrix, and law's
    # rows of a (G, 1, n, m) report stack against a (B, m) outcome stack, are
    # each the row alone
    rng = np.random.default_rng(36)
    reports, y = rng.random((3, 9000)), (rng.random((4, 9000)) < 0.5) * 1.0
    totals = _totals(_score_terms(reports), y)
    for k in range(len(y)):
        assert np.array_equal(totals[k], _totals(_score_terms(reports), y[k]))
    stack = rng.random((3, 1, 3, 9000))
    law = MultWeights(eta=0.01).law(stack, y)
    for h, k in itertools.product(range(3), range(len(y))):
        assert np.array_equal(law[h, k], MultWeights(eta=0.01).law(stack[h, 0], y[k]))


# The per-trial samplers that ``draw`` replaced, kept as its oracle: one
# generator per trial, a fresh point table and its cumulative sums per trial
# for the lotteries, and n scalar Laplace draws for noisy max.

def _oracle_categorical(probs: np.ndarray, u: float) -> int:
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u * cum[-1], side="right"), probs.size - 1))


def _oracle_sample_winner(distribution, seed: int) -> WinnerDraw:
    dist = np.asarray(distribution, dtype=float)
    winner = _oracle_categorical(dist, float(np.random.default_rng(seed).random()))
    return WinnerDraw(winner, dist, RngTrace(seed, 1))


def _oracle_argmax(values: np.ndarray, seed: int, draws: int, rng=None) -> WinnerDraw:
    """argmax with uniform tie-breaking: one more uniform on a tie."""
    ties = values == values.max()
    law = ties / ties.sum()
    idx = np.flatnonzero(law)
    if idx.size == 1:
        return WinnerDraw(int(idx[0]), law, RngTrace(seed, draws))
    rng = np.random.default_rng(seed) if rng is None else rng
    winner = int(idx[_oracle_categorical(np.ones(idx.size), float(rng.random()))])
    return WinnerDraw(winner, law, RngTrace(seed, draws + 1))


def _oracle_sample(config, reports: np.ndarray, y: np.ndarray, seed: int) -> WinnerDraw:
    n, m = reports.shape
    if isinstance(config, (Elf, PointPerRound)):
        rng = np.random.default_rng(seed)
        cum = np.cumsum(config._point_probs(reports, y), axis=1)
        us = rng.random(m) * cum[:, -1]
        points = np.bincount(np.minimum(np.sum(cum <= us[:, None], axis=1), n - 1), minlength=n)
        return _oracle_argmax(points.astype(float), seed, m, rng)
    if isinstance(config, SimpleMax):
        return _oracle_argmax(score_totals(reports, y), seed, 0)
    if isinstance(config, ReportNoisyMax):
        rng = np.random.default_rng(seed)
        noise = [laplace_from_uniform(float(rng.random()) - 0.5, config.b) for _ in range(n)]
        winner = int(np.argmax(score_totals(reports, y) + np.array(noise)))
        return WinnerDraw(winner, np.eye(n)[winner], RngTrace(seed, n))
    return _oracle_sample_winner(config.law(reports, y), seed)


@pytest.mark.parametrize("config", ALL_CONFIGS + [Ftrl(regularizer=L2, eta=0.2)], ids=ALL_IDS + ["ftrl_l2"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_draw_matches_the_per_trial_oracle(config, data):
    # exact 0/1 reports make zero point probabilities and extreme totals;
    # identical rows tie the totals and often the tallies, and permuted rows
    # tie them up to the order of summation; the scaled rule needs n <= 4 for
    # its range 1/4
    lottery = isinstance(config, (Elf, PointPerRound))
    n = data.draw(st.integers(2, 4 if isinstance(config, PointPerRound) else 7), label="n")
    m = data.draw(st.integers(1 if lottery else 0, 6), label="m")
    trials = data.draw(st.integers(1, 6), label="trials")
    row = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=m, max_size=m)
    first = data.draw(row, label="first row")
    others = data.draw(st.sampled_from(["independent", "identical", "permuted"]), label="other rows")
    if others == "independent":
        reports = np.array([first] + [data.draw(row) for _ in range(n - 1)]).reshape(n, m)
    elif others == "identical":
        reports = np.tile(first, (n, 1)).reshape(n, m)
    else:
        reports = np.array([first] + [np.take(first, data.draw(st.permutations(range(m)))) for _ in range(n - 1)])
        reports = reports.reshape(n, m)
    outcomes = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=trials * m, max_size=trials * m)))
    outcomes = outcomes.reshape(trials, m)
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=trials, max_size=trials), label="seeds")
    drawn = [to_record(d) for d in sampled_draws(config, reports, outcomes, seeds)]
    assert drawn == [to_record(_oracle_sample(config, reports, y, seed)) for y, seed in zip(outcomes, seeds)]


def test_noisy_max_maps_each_uniform_by_the_scalar_laplace_map():
    # totals that cancel the scalar-mapped noise tie every forecaster at
    # exactly 0, so the lowest index wins; noise from a vectorized log1p,
    # off in the last bits, would make other winners
    n, b, seeds = 6, 4.0, list(range(40))
    uniforms = np.array([np.random.default_rng(seed).random(n) for seed in seeds])
    totals = np.array([[-laplace_from_uniform(u - 0.5, b) for u in row] for row in uniforms])
    assert _noisy_max_draws(totals, b, uniforms)[0].tolist() == [0] * len(seeds)


# n reaches 5, so the scaled rule's range is 1/5
STACK_CONFIGS = [
    SimpleMax(),
    Elf(),
    PointPerRound(g=lambda r, y: (1.0 - (y - r) ** 2) / 5.0, range_length=0.2),
    Ftrl(regularizer=L2, eta=0.2),
    MultWeights(eta=0.2),
    ReportNoisyMax(b=5.0),
]
STACK_IDS = ["simple_max", "elf", "point_per_round", "ftrl_l2", "mw", "noisy_max"]


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("config", STACK_CONFIGS, ids=STACK_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_law_over_a_report_stack_equals_each_matrix(config, chunk, data):
    # a (G, 1, n, m) grid of report matrices against every outcome vector, as
    # the best-response line search asks, and a (B, n, m) stack paired row by
    # row with (B, m) outcomes; chunks of 1 and 7 rows split the broadcast
    # batch, None keeps the family's own chunk
    n = data.draw(st.integers(2, 5), label="n")
    m = data.draw(st.integers(1, 5), label="m")
    prob = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)

    def matrices(count: int, label: str) -> np.ndarray:
        flat = data.draw(st.lists(prob, min_size=count * n * m, max_size=count * n * m), label=label)
        return np.array(flat).reshape(count, n, m)

    grid = matrices(data.draw(st.integers(1, 6), label="G"), "grid")
    rows = data.draw(st.integers(1, 12), label="B")
    paired = matrices(rows, "paired")
    outcomes = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows * m, max_size=rows * m)))
    outcomes = outcomes.reshape(rows, m)
    bits = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
    elements = mechanisms._LAW_ELEMENTS if chunk is None else chunk * config.law_elements(n, m)
    with mock.patch.object(mechanisms, "_LAW_ELEMENTS", elements):
        grid_law = config.law(grid[:, None], bits)
        paired_law = config.law(paired, outcomes)
    assert grid_law.shape == (len(grid), 2**m, n) and paired_law.shape == (rows, n)
    for law, reports in zip(grid_law, grid):
        np.testing.assert_array_equal(law, config.law(reports, bits))
    for law, reports, y in zip(paired_law, paired, outcomes):
        np.testing.assert_array_equal(law, config.law(reports, y))


def test_an_elf_grid_line_search_is_one_tally_dp(monkeypatch):
    # 201 candidates against 8 outcome rows: 1,608 rows, one chunk of ELF's size
    calls = []

    def counting(point_probs):
        calls.append(point_probs.shape)
        return _tally_dp_law(point_probs)

    monkeypatch.setattr(mechanisms, "_tally_dp_law", counting)
    rng = np.random.default_rng(54)
    bits = ((np.arange(8)[:, None] >> np.arange(3)) & 1).astype(float)
    Elf().utility_kernel(rng.random((2, 3)), bits)[0](rng.random((201, 3)))
    assert calls == [(201, 8, 3, 3)]


def _noisy_max_row_elements(n: int) -> int:
    """The working elements one row of n totals adds to a noisy-max quadrature chunk."""
    return n * (mechanisms.GL_ORDER * max(1, n - 1) + 1 + (n + 1) // 2)


def test_noisy_max_kernel_and_line_keep_their_values_in_small_chunks():
    # noisy_max_law runs the quadrature of the totals kernel and its line on
    # chunks of rows: 7 rows a call here, against every outcome row at once
    mech, m = ReportNoisyMax(b=5.0), 5
    rng = np.random.default_rng(55)
    bits = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
    own, weights = rng.random((4, m)), rng.random(2**m)
    kernel, line_of = mech.utility_kernel(rng.random((2, m)), bits)
    line = line_of(own[0], 2, weights)
    whole = *map(kernel, own), line(0.3), line(1.0)
    terms = mechanisms._noisy_max_terms
    with mock.patch.object(mechanisms, "_LAW_ELEMENTS", 7 * _noisy_max_row_elements(3)), \
            mock.patch.object(mechanisms, "_noisy_max_terms", side_effect=terms) as counted:
        chunked = *map(kernel, own), line(0.3), line(1.0)
    # six evaluations of 2^m = 32 rows, each in ceil(32 / 7) = 5 calls
    rows = [len(call.args[0]) for call in counted.call_args_list]
    assert max(rows) == 7 and sum(rows) == 6 * 2**m and len(rows) == 6 * 5
    for a, b in zip(whole, chunked):
        np.testing.assert_array_equal(a, b)


def test_noisy_max_law_of_a_large_stack_is_each_row_in_bounded_chunks():
    # 2^12 rows of 3 totals, with exact ties and spreads of up to 16 panels a
    # gap, go through the quadrature in chunks whose terms, padded to their
    # widest row, hold at most _LAW_ELEMENTS elements
    rng = np.random.default_rng(56)
    b = 4.0
    totals = rng.choice([0.0, 0.5, 3.0, 40.0, 250.0], size=(2**12, 3)) + rng.random((2**12, 1))
    totals[::5, 1] = totals[::5, 0]
    totals[::7] = totals[::7, :1]
    original, calls = mechanisms._noisy_max_terms, []

    def terms(rows, b):
        out = original(rows, b)
        calls.append((len(rows), out.size))
        return out

    with mock.patch.object(mechanisms, "_noisy_max_terms", terms):
        law = noisy_max_law(totals, b)
    assert max(size for _, size in calls) <= mechanisms._LAW_ELEMENTS and sum(rows for rows, _ in calls) == len(totals)
    # more chunks than a bound of one panel a gap makes (428 rows a chunk, 10 chunks)
    assert len(calls) > -(-len(totals) // (mechanisms._LAW_ELEMENTS // _noisy_max_row_elements(3)))
    for k, row in enumerate(totals):
        np.testing.assert_array_equal(law[k], noisy_max_law(row, b))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), rows=st.integers(1, 12), spread=st.sampled_from([0.0, 1.0, 30.0, 500.0]),
       offset=st.sampled_from([0.0, -1e3, 1e6]), b=st.floats(0.25, 50.0), seed=st.integers(0, 2**16))
def test_noisy_max_chunks_hold_their_bound_alone_or_whole(n, rows, spread, offset, b, seed):
    # a small element bound, so that some stacks fit whole by their spread and
    # others are cut row by row; every chunk but a single row stays within it
    totals = offset + spread * np.random.default_rng(seed).random((rows, n))
    original, sizes = mechanisms._noisy_max_terms, []

    def terms(chunk, b):
        out = original(chunk, b)
        sizes.append((len(chunk), out.size))
        return out

    bound = 5 * _noisy_max_row_elements(n)
    with mock.patch.object(mechanisms, "_LAW_ELEMENTS", bound), \
            mock.patch.object(mechanisms, "_noisy_max_terms", terms):
        law = noisy_max_law(totals, b)
    assert all(k == 1 or size <= bound for k, size in sizes)
    assert sum(k for k, _ in sizes) == rows
    for k, row in enumerate(totals):
        np.testing.assert_array_equal(law[k], noisy_max_law(row, b))


@pytest.mark.parametrize("shape", [(0, 3), (2, 0, 4), (0, 1)])
def test_noisy_max_law_of_an_empty_stack_is_empty(shape):
    # as every other totals law: an empty stack of totals gives an empty stack of laws
    law = noisy_max_law(np.zeros(shape), 4.0)
    assert law.shape == shape and law.dtype == float


@pytest.mark.parametrize("config", STACK_CONFIGS, ids=STACK_IDS)
def test_samplers_refuse_a_report_stack(config):
    # law is the one entry point that takes a stack of report matrices
    stack, y = np.full((2, 3, 2), 0.5), np.ones(2)
    for call in (
        lambda: config.sampler(stack),
        lambda: config.sampler(stack)(y[None], [0]),
        lambda: config.sample(stack, y, 0),
        lambda: select(config, stack, y, 0),
    ):
        with pytest.raises(ValueError, match=r"2-D \(n, m\) matrix"):
            call()


def test_elf_point_helpers_refuse_a_report_stack():
    stack = np.full((2, 3, 2), 0.5)
    with pytest.raises(ValueError, match=r"2-D \(n, m\) matrix"):
        elf_point_prob(stack, 1, 0)
    with pytest.raises(ValueError, match=r"2-D \(n, m\) matrix"):
        elf_sample_points(stack, np.ones(2), 0)
