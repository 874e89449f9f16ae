"""Harness behavior: settings, trials, complexity search, bounds, online runs."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forecastcomp import experiments
from forecastcomp.agents import BestResponse, Extremizer, Truthful, extremize, golden_section_max
from forecastcomp.experiments import (
    CompetitionSetting,
    ConsistentBestResponse,
    MyopicBestResponse,
    OnlinePreference,
    balls_in_bins_max,
    derive_seed,
    estimate_event_complexity,
    estimate_success_prob,
    gap_setting,
    identical_beliefs_setting,
    near_tie_setting,
    online_run,
    perfect_vs_terrible_setting,
    random_setting,
    regret_bound,
    run_competition_trial,
    theoretical_bounds,
    wilson_interval,
)
from forecastcomp.mechanisms import Elf, MultWeights, ReportNoisyMax, SimpleMax, elf_point_prob, selection_law
from forecastcomp.regularizers import L2, NEG_ENTROPY
from forecastcomp.scoring import accuracy
from reference_helpers import FixedReport, elf_sample_points, to_record


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompetitionSetting(np.full((1, 3), 0.5), np.full(3, 0.5))
        with pytest.raises(ValueError):
            CompetitionSetting(np.full((2, 3), 0.5), np.full(2, 0.5))
        with pytest.raises(ValueError):
            CompetitionSetting(np.full((2, 3), 1.5), np.full(3, 0.5))

    def test_perfect_vs_terrible_accuracies(self):
        setting = perfect_vs_terrible_setting(6, 10)
        acc = setting.accuracies()
        assert acc[0] == 1.0
        np.testing.assert_array_equal(acc[1:], 0.0)

    def test_perfect_vs_terrible_point_probs(self):
        n = 8
        setting = perfect_vs_terrible_setting(n, 1)
        f = elf_point_prob(setting.beliefs, 1, 0)
        assert f[0] == 2.0 / n
        np.testing.assert_allclose(f[1:], (n - 2) / (n * (n - 1)), rtol=1e-14)

    def test_perfect_vs_terrible_simple_max_always_picks_leader(self):
        setting = perfect_vs_terrible_setting(5, 4)
        for k in range(10):
            result = run_competition_trial(setting, [Truthful()] * 5, SimpleMax(), seed=k)
            assert result.winner == 0

    def test_gap_setting_accuracies(self):
        setting = gap_setting(4, 200, gap=0.32, seed=0)
        acc = setting.accuracies()
        assert acc[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(acc[1:], 1.0 - 0.32, atol=1e-9)

    def test_near_tie_tiers(self):
        eps = 0.2
        setting = near_tie_setting(5, 100, eps, seed=1)
        acc = setting.accuracies()
        assert acc[0] == pytest.approx(1.0, abs=1e-12)
        assert np.min(acc) == pytest.approx(1.0 - 2 * eps, abs=1e-9)
        assert setting.epsilon_optimal(eps) == {0, 1, 2}

    @pytest.mark.parametrize("seed", range(10))
    def test_accuracies_are_scoring_accuracy_of_each_row(self, seed):
        rng = np.random.default_rng(seed)
        setting = random_setting(int(rng.integers(2, 12)), int(rng.integers(1, 3000)), seed)
        np.testing.assert_array_equal(setting.accuracies(), [accuracy(row, setting.theta) for row in setting.beliefs])

    def test_identical_beliefs_full_tie(self):
        setting = identical_beliefs_setting(4, 7, seed=2)
        acc = setting.accuracies()
        assert np.all(acc == acc[0])


class TestTrials:
    def test_deterministic_leader_wins(self):
        beliefs = np.zeros((3, 4))
        beliefs[0] = 1.0
        setting = CompetitionSetting(beliefs, np.ones(4))
        result = run_competition_trial(setting, [Truthful()] * 3, SimpleMax(), seed=11)
        assert result.winner == 0
        assert result.winner in setting.epsilon_optimal(0.5)

    def test_bit_exact_replay(self):
        setting = perfect_vs_terrible_setting(5, 6)
        a = run_competition_trial(setting, [Truthful()] * 5, Elf(), seed=3)
        b = run_competition_trial(setting, [Truthful()] * 5, Elf(), seed=3)
        assert a.winner == b.winner
        assert a.rng_trace == b.rng_trace

    def test_mw_winner_frequency_matches_exact_law(self):
        # oracle: expected winner law = sum over outcome vectors of
        # P(y) * softmax law
        setting = random_setting(3, 4, seed=5)
        mech = MultWeights(eta=0.3)
        bits = ((np.arange(16)[:, None] >> np.arange(4)[None, :]) & 1).astype(float)
        weights = np.prod(bits * setting.theta + (1 - bits) * (1 - setting.theta), axis=1)
        exact = np.zeros(3)
        for k in range(16):
            exact += weights[k] * selection_law(mech, setting.beliefs, bits[k])
        trials = 30_000
        counts = np.zeros(3)
        for k in range(trials):
            result = run_competition_trial(setting, [Truthful()] * 3, mech, seed=derive_seed(1234, k))
            counts[result.winner] += 1
        freq = counts / trials
        se = np.sqrt(exact * (1 - exact) / trials)
        assert np.all(np.abs(freq - exact) <= 3 * se + 1e-9)


class TestSuccessProbability:
    def test_epsilon_one_always_succeeds(self):
        setting = random_setting(4, 5, seed=6)
        est = estimate_success_prob(setting, [Truthful()] * 4, Elf(), 1.0, 200, seed=7)
        assert est.rate == 1.0

    def test_dominant_leader_with_many_events(self):
        setting = gap_setting(4, 400, gap=0.32, seed=8)
        est = estimate_success_prob(setting, [Truthful()] * 4, SimpleMax(), 0.3, 200, seed=9)
        assert est.rate == 1.0

    def test_lower_bound_scenario_hurts_event_lotteries(self):
        n = 100
        m = math.ceil(n / 4 * math.log(n))
        setting = perfect_vs_terrible_setting(n, m)
        est = estimate_success_prob(setting, [Truthful()] * n, Elf(), 0.5, 400, seed=10)
        assert est.rate < 0.5

    def test_threads_do_not_change_counts(self):
        setting = random_setting(4, 6, seed=11)
        a = estimate_success_prob(setting, [Truthful()] * 4, Elf(), 0.2, 100, seed=12, threads=1)
        b = estimate_success_prob(setting, [Truthful()] * 4, Elf(), 0.2, 100, seed=12, threads=8)
        assert a == b

    @pytest.mark.parametrize("mechanism", [SimpleMax(), Elf(), MultWeights(eta=0.3), ReportNoisyMax(b=4.0)],
                             ids=["simple_max", "elf", "mw", "noisy_max"])
    def test_chunk_size_and_threads_do_not_change_draws(self, mechanism, monkeypatch):
        # one trial per chunk against the default chunk (all 40 trials);
        # identical beliefs give tied totals and tallies
        tied = isinstance(mechanism, SimpleMax)
        setting = (identical_beliefs_setting if tied else random_setting)(5, 7, seed=40)
        seeds = [(derive_seed(41, 1, k), derive_seed(41, 2, k)) for k in range(40)]
        records = []
        for chunk in (1, experiments.DRAW_CHUNK):
            monkeypatch.setattr(experiments, "DRAW_CHUNK", chunk)
            draws = experiments._draw_winners(setting.beliefs, setting.theta, mechanism, seeds)
            records.append([to_record(d) for d in draws])
        assert len(records[0]) == 40
        assert all(r == records[0] for r in records)

    def test_trials_start_no_thread(self, monkeypatch, tmp_path):
        # many chunks and a large thread count, through the library and the CLI
        from forecastcomp.cli import main

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(experiments, "DRAW_CHUNK", 1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        setting = random_setting(4, 6, seed=11)
        est = estimate_success_prob(setting, [Truthful()] * 4, Elf(), 0.2, 50, seed=12, threads=8)
        assert est.trials == 50
        config = tmp_path / "run.json"
        config.write_text(
            '{"command": "run", "mechanism": {"type": "elf"}, "setting": {"generator": "random", "n": 4, "m": 6},'
            ' "params": {"epsilon": 0.2}, "seed": 3, "trials": 30}'
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "8"]) == 0

    def test_wilson_interval_values(self):
        lower, upper = wilson_interval(90, 100)
        assert 0.82 < lower < 0.9 < upper < 0.96


class TestEventComplexity:
    def test_full_tie_needs_one_event(self):
        est = estimate_event_complexity(
            SimpleMax(),
            lambda m: identical_beliefs_setting(5, m, seed=13),
            [Truthful()] * 5,
            epsilon=0.3,
            delta=0.1,
            trials=100,
            seed=14,
        )
        assert est.m_estimate == 1

    def test_simple_max_within_theoretical_bound(self):
        bound = theoretical_bounds("simple_max", 10, 0.3, 0.1)
        est = estimate_event_complexity(
            SimpleMax(),
            lambda m: gap_setting(10, m, gap=0.32, seed=15),
            [Truthful()] * 10,
            epsilon=0.3,
            delta=0.1,
            trials=300,
            seed=16,
        )
        assert est.m_estimate <= bound
        assert est.probes[-1].rate >= 0.9

    def test_search_cap(self):
        # epsilon-optimality at eps=0.05 is unreachable for the trailing
        # forecasters, but the cap stops the search
        with pytest.raises(RuntimeError, match="cap"):
            estimate_event_complexity(
                Elf(),
                lambda m: perfect_vs_terrible_setting(4, m),
                [Truthful()] * 4,
                epsilon=0.5,
                delta=0.01,
                trials=50,
                seed=17,
                m_cap=8,
            )


class TestTheoreticalBounds:
    def test_simple_max_value(self):
        assert theoretical_bounds("simple_max", 10, 0.3, 0.1) == 103

    def test_mw_value(self):
        # ceil(200 * ln(2000) / 0.01) = ceil(152018.049...)
        assert theoretical_bounds("mw", 100, 0.1, 0.1) == 152019

    def test_elf_proof_scale_is_order_millions(self):
        value = theoretical_bounds("elf_proof", 100, 0.1, 0.1)
        assert 1_000_000 <= value < 10_000_000

    def test_elf_statement_constant(self):
        expected = math.ceil(5 * 99 / 0.01 * math.log(4 * 99 / 0.1))
        assert theoretical_bounds("elf", 100, 0.1, 0.1) == expected

    def test_noisy_max_needs_small_gamma(self):
        value = theoretical_bounds("noisy_max", 10, 0.3, 0.1)
        expected = math.ceil(28 * math.log(200) / (0.3 * (0.3 / 14)))
        assert value == expected
        with pytest.raises(ValueError):
            theoretical_bounds("noisy_max", 10, 0.3, 0.1, gamma=0.1)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            theoretical_bounds("simple_max", 1, 0.3, 0.1)
        with pytest.raises(ValueError):
            theoretical_bounds("elf", 2, 0.3, 0.1)
        with pytest.raises(ValueError):
            theoretical_bounds("simple_max", 10, 1.5, 0.1)
        with pytest.raises(ValueError):
            theoretical_bounds("unknown", 10, 0.3, 0.1)

    @pytest.mark.parametrize("variant", ["simple_max", "elf", "elf_proof", "mw", "noisy_max"])
    @pytest.mark.parametrize(
        "epsilon, delta", [(1e-300, 0.1), (1e-160, 0.1), (0.1, 1e-320)],
        ids=["epsilon-squared-underflows", "bound-overflows", "n-over-delta-overflows"],
    )
    def test_a_bound_that_is_not_finite_is_refused(self, variant, epsilon, delta):
        with pytest.raises(ValueError, match=f"^the {variant} bound is not finite at n=10, epsilon={epsilon}, delta={delta}$"):
            theoretical_bounds(variant, 10, epsilon, delta)


class TestBallsInBins:
    def test_single_ball_never_exceeds(self):
        result = balls_in_bins_max(50, 1, trials=50, seed=18)
        assert result.probability == 0.0

    def test_birthday_collision(self):
        # m = n balls: some bin holds at least 2 with high probability
        rng = np.random.default_rng(19)
        n = 2000
        hits = 0
        for _ in range(50):
            loads = np.bincount(rng.integers(0, n, size=n), minlength=n)
            if loads.max() >= 2:
                hits += 1
        assert hits == 50

    def test_heavy_load_tail(self):
        n = 10_000
        m = int(0.1 * n * math.log(n))
        result = balls_in_bins_max(n, m, trials=60, seed=20)
        assert result.threshold == pytest.approx(4 * m / n + 1)
        assert result.probability >= 0.95


class TestOnlineRun:
    def test_single_expert_zero_regret(self):
        rng = np.random.default_rng(21)
        beliefs = rng.random((1, 50))
        trace = online_run(
            beliefs, rng.random(50), [Truthful()], OnlinePreference("myopic"), NEG_ENTROPY, 0.1, seed=22
        )
        assert trace.regret == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(trace.pis, 1.0)

    def test_regret_bound_holds_per_trial(self):
        n, T = 10, 1000
        eta = math.sqrt(math.log(n) / (10 * T))
        bound = regret_bound("mw", T, n)
        rng = np.random.default_rng(23)
        for k in range(5):
            trace = online_run(
                rng.random((n, T)),
                rng.random(T),
                [Truthful()] * n,
                OnlinePreference("myopic"),
                NEG_ENTROPY,
                eta,
                seed=k,
            )
            assert trace.regret <= bound

    def test_identical_beliefs_matches_reference_accounting(self):
        # reference oracle: an independent exponential-weights loop over the
        # same reports and outcomes
        n, T = 4, 300
        rng = np.random.default_rng(24)
        row = rng.random(T)
        beliefs = np.tile(row, (n, 1))
        eta = 0.05
        trace = online_run(
            beliefs, rng.random(T), [Truthful()] * n, OnlinePreference("myopic"), NEG_ENTROPY, eta, seed=25
        )
        weights = np.ones(n)
        mech_score = 0.0
        for t in range(T):
            pi = weights / weights.sum()
            scores = 1.0 - (trace.outcomes[t] - trace.reports[:, t]) ** 2
            mech_score += float(np.dot(pi, scores))
            weights *= np.exp(eta * scores)
        best = max(np.sum(1.0 - (trace.outcomes - beliefs[i]) ** 2) for i in range(n))
        assert trace.regret == pytest.approx(best - mech_score, abs=1e-9)

    def test_causality_replay(self):
        n, T = 5, 200
        rng = np.random.default_rng(26)
        trace = online_run(
            rng.random((n, T)),
            rng.random(T),
            [Truthful()] * n,
            OnlinePreference("myopic"),
            NEG_ENTROPY,
            0.02,
            seed=27,
        )
        for t in (0, 1, 50, 199):
            np.testing.assert_array_equal(trace.replay_pi(t), trace.pis[t])
        assert abs(trace.recompute_regret() - trace.regret) <= 1e-10

    def test_causality_replay_uses_the_run_regularizer(self):
        n, T = 3, 40
        rng = np.random.default_rng(31)
        trace = online_run(
            rng.random((n, T)), rng.random(T), [Truthful()] * n, OnlinePreference("myopic"), L2, 0.05, seed=32
        )
        assert trace.regularizer is L2
        for t in (0, 20, 39):
            assert np.array_equal(trace.replay_pi(t), trace.pis[t])

    @pytest.mark.parametrize("name", ["tempered", NEG_ENTROPY.name])
    def test_causality_replay_uses_a_custom_regularizer(self, name):
        # an unregistered name, and an L2 copy under negative entropy's name:
        # the replay runs the run's own regularizer, not one looked up by name
        n, T = 3, 40
        rng = np.random.default_rng(33)
        custom = dataclasses.replace(L2, name=name)
        trace = online_run(
            rng.random((n, T)), rng.random(T), [Truthful()] * n, OnlinePreference("myopic"), custom, 0.05, seed=34
        )
        for t in (0, 3, 20, 39):
            np.testing.assert_array_equal(trace.replay_pi(t), trace.pis[t])

    def test_myopic_best_response_stays_in_band(self):
        n, T = 3, 40
        eta = 0.05
        rng = np.random.default_rng(28)
        beliefs = rng.random((n, T))
        trace = online_run(
            beliefs,
            rng.random(T),
            [MyopicBestResponse()] * n,
            OnlinePreference("myopic"),
            NEG_ENTROPY,
            eta,
            seed=29,
        )
        assert np.max(np.abs(trace.reports - beliefs)) <= 4 * eta

    def test_consistent_with_myopic_preference_matches_myopic(self):
        n, T = 3, 8
        rng = np.random.default_rng(30)
        beliefs = rng.random((n, T))
        theta = rng.random(T)
        kwargs = dict(preference=OnlinePreference("myopic"), regularizer=NEG_ENTROPY, eta=0.05, seed=31)
        a = online_run(beliefs, theta, [MyopicBestResponse()] * n, **kwargs)
        b = online_run(beliefs, theta, [ConsistentBestResponse()] * n, **kwargs)
        np.testing.assert_allclose(a.reports, b.reports, atol=1e-6)

    def test_consistent_uniform_runs_and_stays_in_band(self):
        n, T = 2, 6
        eta = 0.05
        rng = np.random.default_rng(32)
        beliefs = rng.random((n, T))
        trace = online_run(
            beliefs,
            rng.random(T),
            [ConsistentBestResponse(), Truthful()],
            OnlinePreference("consistent_uniform"),
            NEG_ENTROPY,
            eta,
            seed=33,
        )
        assert np.max(np.abs(trace.reports[0] - beliefs[0])) <= 4 * eta

    def test_horizon_guard(self):
        rng = np.random.default_rng(34)
        with pytest.raises(ValueError, match="horizon"):
            online_run(
                rng.random((2, 20)),
                rng.random(20),
                [ConsistentBestResponse(), Truthful()],
                OnlinePreference("consistent_uniform"),
                NEG_ENTROPY,
                0.05,
                seed=35,
            )

    @pytest.mark.parametrize("regularizer, T", [(NEG_ENTROPY, 8), (L2, 8), (NEG_ENTROPY, 20)])
    def test_consistent_under_myopic_preference_plays_myopic_reports_exactly(self, regularizer, T):
        # one round ahead: 2 outcome paths per response, so T = 20 fits MAX_HORIZON
        n = 3
        rng = np.random.default_rng(30)
        beliefs, theta = rng.random((n, T)), rng.random(T)
        kwargs = dict(preference=OnlinePreference("myopic"), regularizer=regularizer, eta=0.05, seed=31)
        a = online_run(beliefs, theta, [MyopicBestResponse()] * n, **kwargs)
        b = online_run(beliefs, theta, [ConsistentBestResponse()] * n, **kwargs)
        assert np.array_equal(a.reports, b.reports)

    def test_myopic_best_response_keeps_its_preference(self):
        rng = np.random.default_rng(42)
        beliefs, theta = rng.random((2, 6)), rng.random(6)
        a, b = (
            online_run(beliefs, theta, [MyopicBestResponse(), Truthful()], OnlinePreference(kind), NEG_ENTROPY, 0.05, 43)
            for kind in ("myopic", "consistent_uniform")
        )
        assert np.array_equal(a.reports, b.reports)
        with pytest.raises(TypeError):
            MyopicBestResponse(max_horizon=3)

    def test_replay_pi_refuses_rounds_outside_the_run(self):
        n, T = 3, 10
        rng = np.random.default_rng(44)
        trace = online_run(
            rng.random((n, T)), rng.random(T), [Truthful()] * n, OnlinePreference("myopic"), NEG_ENTROPY, 0.05, 45
        )
        for t in (-1, T + 1):
            with pytest.raises(ValueError, match=f"0 <= t <= T = {T}"):
                trace.replay_pi(t)
        # pi^T, after the last round, has no row in pis but replays
        totals = np.sum(1.0 - (trace.outcomes - trace.reports) ** 2, axis=1)
        np.testing.assert_allclose(trace.replay_pi(T), NEG_ENTROPY.conjugate_grad(0.05 * totals), atol=1e-12)


    def test_fixed_report_plays_its_report(self):
        rng = np.random.default_rng(36)
        trace = online_run(
            rng.random((2, 5)),
            rng.random(5),
            [FixedReport((0.9,) * 5), Truthful()],
            OnlinePreference("myopic"),
            NEG_ENTROPY,
            0.05,
            seed=37,
        )
        np.testing.assert_array_equal(trace.reports[0], 0.9)

    def test_unplayable_responder_is_named(self):
        rng = np.random.default_rng(38)
        with pytest.raises(ValueError, match="BestResponse"):
            online_run(
                rng.random((2, 5)),
                rng.random(5),
                [BestResponse(), Truthful()],
                OnlinePreference("myopic"),
                NEG_ENTROPY,
                0.05,
                seed=39,
            )


def per_round_oracle(beliefs, theta, plans, myopic, regularizer, eta, seed):
    """The online game played one round at a time: pi^t from the running
    totals, myopic experts responding to the others' plans for the round,
    then the round's outcome drawn."""
    n, T = beliefs.shape
    rng = np.random.default_rng(seed)
    reports, outcomes, pis = np.empty((n, T)), np.empty(T), np.empty((T, n))
    totals = np.zeros(n)
    for t in range(T):
        pis[t] = regularizer.conjugate_grad(eta * totals)
        row = plans[:, t].copy()
        for i in np.flatnonzero(myopic):
            p_it = float(beliefs[i, t])

            def next_selection_prob(r, i=i, p_it=p_it):
                rt = plans[:, t].copy()
                rt[i] = r
                q = totals + np.stack([1.0 - (1.0 - rt) ** 2, 1.0 - rt**2])
                pi1, pi0 = regularizer.conjugate_grad(eta * q)[:, i]
                return p_it * float(pi1) + (1.0 - p_it) * float(pi0)

            row[i] = golden_section_max(next_selection_prob, 0.0, 1.0, xtol=1e-8)[0]
        reports[:, t] = row
        outcomes[t] = 1.0 if rng.random() < theta[t] else 0.0
        totals += 1.0 - (outcomes[t] - row) ** 2
    best = max(math.fsum(1.0 - (outcomes - beliefs[i]) ** 2) for i in range(n))
    mech = math.fsum(float(np.dot(pis[t], 1.0 - (outcomes[t] - reports[:, t]) ** 2)) for t in range(T))
    return pis, reports, outcomes, best - mech


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    T=st.integers(min_value=1, max_value=60),
    kinds=st.lists(st.sampled_from(["truthful", "extremizer", "fixed", "myopic"]), min_size=6, max_size=6),
    pull=st.floats(min_value=0.0, max_value=1.0),
    eta=st.floats(min_value=0.01, max_value=0.5),
    regularizer=st.sampled_from([NEG_ENTROPY, L2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_online_run_matches_per_round_oracle(n, T, kinds, pull, eta, regularizer, seed):
    rng = np.random.default_rng(seed)
    beliefs, theta, fixed = rng.random((n, T)), rng.random(T), rng.random((n, T))
    strategies, plans = [], beliefs.copy()
    for i, kind in enumerate(kinds[:n]):
        if kind == "truthful":
            strategies.append(Truthful())
        elif kind == "extremizer":
            strategies.append(Extremizer(pull=pull))
            plans[i] = extremize(beliefs[i], pull)
        elif kind == "fixed":
            strategies.append(FixedReport(tuple(fixed[i])))
            plans[i] = fixed[i]
        else:
            strategies.append(MyopicBestResponse())
    myopic = np.array([kind == "myopic" for kind in kinds[:n]])
    trace = online_run(beliefs, theta, strategies, OnlinePreference("myopic"), regularizer, eta, seed)
    pis, reports, outcomes, regret = per_round_oracle(beliefs, theta, plans, myopic, regularizer, eta, seed)
    assert np.array_equal(trace.pis, pis)
    assert np.array_equal(trace.reports, reports)
    assert np.array_equal(trace.outcomes, outcomes)
    assert trace.regret == regret


@pytest.mark.parametrize("regularizer", [NEG_ENTROPY, L2], ids=["entropy", "l2"])
@pytest.mark.parametrize("n", [17, 33])
def test_regret_is_the_per_round_dot_loop_at_wide_n(n, regularizer):
    # n > 16 reaches the vector kernel of BLAS's dot, where a row's strides
    # change its bits; the oracle test above stops at n = 6.  A last-bit
    # change in a row shows in the regret of a short run, and rounds away in
    # the totals of a long one (T = 2,000, the benchmark's online size).
    for T, seed in [(T, seed) for T in (2, 3, 5) for seed in range(5)] + [(2000, 0)]:
        rng = np.random.default_rng([n, T, seed])
        beliefs, theta = rng.random((n, T)), rng.random(T)
        strategies = [Truthful() if i % 2 else Extremizer(pull=0.5) for i in range(n)]
        trace = online_run(beliefs, theta, strategies, OnlinePreference("myopic"), regularizer, 0.3, seed=seed)
        outcomes, reports = trace.outcomes, trace.reports
        best = max(math.fsum(1.0 - (outcomes - beliefs[i]) ** 2) for i in range(n))
        mech = math.fsum(float(np.dot(trace.pis[t], 1.0 - (outcomes[t] - reports[:, t]) ** 2)) for t in range(T))
        assert trace.regret == best - mech, (T, seed)
        assert trace.recompute_regret() == trace.regret, (T, seed)


def solo_responder_reports(beliefs, theta, strategies, preference, regularizer, eta, seed):
    """online_run's reports with every responder of a round solved alone by
    the scalar ``golden_section_max``: the oracle of the lockstep search."""
    n, T = beliefs.shape
    outcomes = (np.random.default_rng(seed).random(T) < theta).astype(float)
    planned = np.vstack([s.plan(beliefs[i]) for i, s in enumerate(strategies)])
    reports, totals = planned.copy(), np.zeros(n)
    for t in range(T):
        for i, s in enumerate(strategies):
            if not s.responds:
                continue
            coefs = (s.preference or preference).weights_after(t, T)
            horizon = len(coefs)
            paths = ((np.arange(2**horizon)[:, None] >> np.arange(horizon)[None, :]) & 1).astype(float)
            p_i = beliefs[i, t : t + horizon]
            weights = np.prod(paths * p_i + (1.0 - paths) * (1.0 - p_i), axis=1)
            local = planned[:, t : t + horizon].copy()
            start = np.tile(totals, (len(paths), 1))

            def utility(r, i=i, coefs=coefs, paths=paths, weights=weights, local=local, start=start):
                local[i, 0] = r
                tot, value = start, np.zeros(len(paths))
                for k in range(len(coefs)):
                    tot = tot + (1.0 - (paths[:, k : k + 1] - local[None, :, k]) ** 2)
                    if coefs[k] > 0.0:
                        value += coefs[k] * regularizer.conjugate_grad(eta * tot)[:, i]
                return float(np.sum(weights * value))

            reports[i, t] = golden_section_max(utility, 0.0, 1.0, xtol=1e-8)[0]
        totals += 1.0 - (outcomes[t] - reports[:, t]) ** 2
    return reports


class TestMixedPreferenceRounds:
    """Responders of a round that share a preference run as one lockstep
    search; each group must report what each responder reports alone."""

    @pytest.mark.parametrize("regularizer", [NEG_ENTROPY, L2], ids=["entropy", "l2"])
    @pytest.mark.parametrize(
        "preference",
        [OnlinePreference("consistent_uniform"), OnlinePreference("discounted", 0.7)],
        ids=["consistent-uniform", "discounted"],
    )
    def test_each_group_reports_as_its_responders_alone(self, preference, regularizer):
        n, T = 5, 7
        rng = np.random.default_rng(46)
        beliefs, theta = rng.random((n, T)), rng.random(T)
        strategies = [
            MyopicBestResponse(),
            ConsistentBestResponse(),
            Truthful(),
            MyopicBestResponse(),
            ConsistentBestResponse(),
        ]
        trace = online_run(beliefs, theta, strategies, preference, regularizer, 0.05, 47)
        expected = solo_responder_reports(beliefs, theta, strategies, preference, regularizer, 0.05, 47)
        assert np.array_equal(trace.reports, expected)
        # the two groups answer differently: the consistent responders look past the next round
        assert not np.array_equal(trace.reports[[0, 3]], trace.reports[[1, 4]])

    @pytest.mark.parametrize(
        "preference",
        [OnlinePreference("consistent_uniform"), OnlinePreference("discounted", 0.7)],
        ids=["consistent-uniform", "discounted"],
    )
    def test_horizon_refusal_keeps_its_message_beside_a_myopic_group(self, preference):
        rng = np.random.default_rng(48)
        T = experiments.MAX_HORIZON + 2
        strategies = [MyopicBestResponse(), ConsistentBestResponse(), MyopicBestResponse()]
        message = f"consistent best response enumerates 2^{T} outcome paths; max_horizon is {experiments.MAX_HORIZON}"
        with pytest.raises(ValueError) as refused:
            online_run(rng.random((3, T)), rng.random(T), strategies, preference, NEG_ENTROPY, 0.05, 49)
        assert str(refused.value) == message


class TestPointGapProperty:
    def test_expected_point_gap_exceeds_threshold(self):
        # leader vs trailer with accuracy gap 0.36 > eps = 0.3: the mean
        # per-run point gap must clear m * eps / (n - 1) up to噪 MC noise
        n, m, eps, trials = 5, 40, 0.3, 1500
        setting = gap_setting(n, m, gap=0.36, seed=36)
        rng = np.random.default_rng(37)
        gaps = []
        for k in range(trials):
            y = (rng.random(m) < setting.theta).astype(float)
            points = elf_sample_points(setting.beliefs, y, seed=derive_seed(38, k))
            gaps.append(points[0] - points[1])
        mean_gap = float(np.mean(gaps))
        se = float(np.std(gaps) / math.sqrt(trials))
        assert mean_gap > m * eps / (n - 1) - 3 * se


class TestHoeffdingSanity:
    def test_score_concentration(self):
        # per-forecaster deviation beyond sqrt(ln(2n/delta)/(2m)) happens
        # with probability at most delta/n (two-sided)
        n, m, delta, trials = 4, 60, 0.2, 2000
        setting = random_setting(n, m, seed=39)
        expected = np.array(
            [
                np.mean(
                    setting.theta * (1 - (1 - setting.beliefs[i]) ** 2)
                    + (1 - setting.theta) * (1 - setting.beliefs[i] ** 2)
                )
                for i in range(n)
            ]
        )
        bound = math.sqrt(math.log(2 * n / delta) / (2 * m))
        rng = np.random.default_rng(40)
        exceed = np.zeros(n)
        for _ in range(trials):
            y = (rng.random(m) < setting.theta).astype(float)
            avg = np.mean(1.0 - (y - setting.beliefs) ** 2, axis=1)
            exceed += np.abs(avg - expected) > bound
        rates = exceed / trials
        se = math.sqrt(0.25 / trials)
        assert np.all(rates <= delta / n + 3 * se)


ENTROPY_CONSTANTS = {"d_r": math.log(8), "alpha": 0.5, "beta": 3.0}


class TestRegretBound:
    def test_mw_value(self):
        T, n = 10**4, 10
        assert regret_bound("mw", T, n) == pytest.approx(2 * math.sqrt(10 * T * math.log(n)), rel=1e-12)
        assert regret_bound("mw", T, n) == pytest.approx(959.7, abs=0.3)

    def test_general_matches_mw_for_entropy_constants(self):
        T, n = 5000, 8
        general = regret_bound("general", T, d_r=math.log(n), alpha=0.5, beta=3.0)
        assert general == pytest.approx(regret_bound("mw", T, n), rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="T >= 8"):
            regret_bound("mw", 4, 10)
        with pytest.raises(ValueError, match="max"):
            regret_bound("general", 1, d_r=10.0, alpha=0.5, beta=3.0)

    @pytest.mark.parametrize(
        "variant, T, kwargs, message",
        [
            ("general", 5000, {**ENTROPY_CONSTANTS, "d_r": math.nan}, "positive d_r, alpha, beta"),
            ("general", 5000, {**ENTROPY_CONSTANTS, "alpha": math.nan}, "positive d_r, alpha, beta"),
            ("general", 5000, {**ENTROPY_CONSTANTS, "beta": math.nan}, "positive d_r, alpha, beta"),
            ("general", math.nan, ENTROPY_CONSTANTS, "requires T >= max"),
            ("mw", math.nan, {"n": 10}, "requires T >= 8"),
            ("mw", 10**4, {"n": math.nan}, "needs n >= 2"),
        ],
        ids=["d_r", "alpha", "beta", "general-T", "mw-T", "mw-n"],
    )
    def test_nan_input_rejected(self, variant, T, kwargs, message):
        with pytest.raises(ValueError, match=message):
            regret_bound(variant, T, **kwargs)


class TestSuccessMonotonicity:
    def test_success_rate_nondecreasing_in_m(self):
        # up to sampling noise, more events never hurt on the gap family
        rates = []
        for m in (2, 8, 32, 128):
            est = estimate_success_prob(
                gap_setting(4, m, gap=0.32, seed=41),
                [Truthful()] * 4,
                SimpleMax(),
                0.3,
                600,
                seed=42,
            )
            rates.append(est.rate)
        slack = 3 * math.sqrt(0.25 / 600)
        assert all(b >= a - slack for a, b in zip(rates, rates[1:]))


class TestOnlinePreference:
    def test_myopic_coefficients(self):
        pref = OnlinePreference("myopic")
        assert pref.coefficient(3, 4) == 1.0
        assert pref.coefficient(3, 7) == 0.0

    def test_uniform_coefficients(self):
        pref = OnlinePreference("consistent_uniform")
        assert pref.coefficient(1, 2) == pref.coefficient(1, 9) == 1.0

    def test_discounted_coefficients(self):
        pref = OnlinePreference("discounted", discount=0.5)
        assert pref.coefficient(2, 3) == 0.5
        assert pref.coefficient(2, 5) == 0.125

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlinePreference("whatever")
        with pytest.raises(ValueError):
            OnlinePreference("discounted", discount=1.5)
        with pytest.raises(ValueError):
            OnlinePreference("myopic").coefficient(4, 4)

    def test_weights_after_stop_at_the_last_weighed_round(self):
        assert OnlinePreference("myopic").weights_after(2, 9) == [1.0]
        assert OnlinePreference("consistent_uniform").weights_after(2, 5) == [1.0, 1.0, 1.0]
        assert OnlinePreference("discounted", discount=0.5).weights_after(7, 9) == [0.5, 0.25]


class TestSeeds:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 1, 3)
        assert derive_seed(7, 1) != derive_seed(8, 1)
