"""Strategic-agent solvers: utilities, per-round optima, best responses, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from forecastcomp import agents
from forecastcomp.agents import (
    BestResponse,
    Extremizer,
    StrategicContext,
    Truthful,
    best_response_full,
    build_reports,
    dominance_clamp_check,
    expected_win_prob,
    extremize,
    golden_section_max,
    lockstep_golden_section_max,
    mw_leave_one_out_optimum,
    noisy_max_fixed_point,
    round_local_best_response,
    strategy_report_row,
    truthfulness_gap_sweep,
)
from forecastcomp.experiments import MyopicBestResponse
from forecastcomp.mechanisms import Elf, Ftrl, MultWeights, PointPerRound, ReportNoisyMax, SimpleMax
from forecastcomp.regularizers import L2, entropy_conjugate_partial2
from reference_helpers import FixedReport


class TestExpectedWinProb:
    def test_two_player_symmetric(self):
        rng = np.random.default_rng(0)
        opp = rng.random((1, 3))
        ctx = StrategicContext(opp, rng.random(3), MultWeights(eta=0.1))
        assert expected_win_prob(ctx, opp[0]) == pytest.approx(0.5, abs=1e-12)

    def test_no_events_gives_uniform_share(self):
        for n in (2, 4):
            ctx = StrategicContext(np.zeros((n - 1, 0)), np.zeros(0), MultWeights(eta=0.2))
            assert expected_win_prob(ctx, np.zeros(0)) == pytest.approx(1.0 / n, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(1)
        m = 2
        ctx = StrategicContext(rng.random((2, m)), rng.random(m), MultWeights(eta=0.3))
        candidate = rng.random(m)
        exact = expected_win_prob(ctx, candidate)

        # independent vectorized Monte Carlo over outcome draws
        trials = 1_000_000
        mc_rng = np.random.default_rng(99)
        ys = (mc_rng.random((trials, m)) < ctx.own_beliefs).astype(float)
        stacked = np.vstack([candidate, ctx.opponent_reports])
        totals = (1.0 - stacked**2).sum(axis=1) + ys @ (2.0 * stacked - 1.0).T
        z = 0.3 * totals
        z -= z.max(axis=1, keepdims=True)
        laws = np.exp(z)
        laws = laws[:, 0] / laws.sum(axis=1)
        se = laws.std() / math.sqrt(trials)
        assert abs(exact - laws.mean()) <= 3 * se + 1e-9

    @pytest.mark.parametrize(
        "mechanism",
        [MultWeights(eta=0.1), Ftrl(regularizer=L2, eta=0.2), ReportNoisyMax(b=5.0), Elf(), SimpleMax()],
        ids=lambda mech: type(mech).__name__,
    )
    def test_budget_exceeded_without_fallback(self, mechanism):
        rng = np.random.default_rng(2)
        ctx = StrategicContext(rng.random((1, 25)), rng.random(25), mechanism)
        with pytest.raises(ValueError, match="m=25 exceeds the exact enumeration budget 20"):
            expected_win_prob(ctx, rng.random(25))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), rows=st.integers(1, 9), stride=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_row_dots_have_the_bits_of_each_rows_dot(n, rows, stride, seed):
    # n up to 40 runs past BLAS's unrolled blocks; stride > 1 makes b's rows a
    # column view's strided rows, as the grid path's law columns are
    rng = np.random.default_rng(seed)
    a, w = rng.random((rows, n)), rng.random(n)
    b = rng.random((rows, n, stride))[..., 0]
    np.testing.assert_array_equal(agents._row_dots(a, b), [np.dot(a[k], b[k]) for k in range(rows)])
    np.testing.assert_array_equal(agents._row_dots(w, b), [np.dot(w, row) for row in b])
    np.testing.assert_array_equal(agents._row_dots(b, w), [np.dot(row, w) for row in b])
    assert float(agents._row_dots(w, b[0])) == float(np.dot(w, b[0]))


class TestLeaveOneOutOptimum:
    def test_equal_continuations_exact(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(0, 15, 5)
        for p in (0.0, 0.2, 0.5, 0.97, 1.0):
            assert mw_leave_one_out_optimum(p, q, q, 0.05) == p

    def test_deviation_bound(self):
        rng = np.random.default_rng(4)
        for eta in (0.01, 0.05, 0.1):
            bound = 3 * eta + (3 * eta) ** 2
            for _ in range(200):
                n = int(rng.integers(2, 7))
                q0 = rng.uniform(0, 25, n)
                q1 = q0 + rng.uniform(-1, 1, n)
                p = float(rng.random())
                r = mw_leave_one_out_optimum(p, q0, q1, eta)
                assert abs(r - p) <= bound + 1e-12

    def test_matches_golden_section_on_induced_objective(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            eta = float(rng.choice([0.01, 0.05, 0.1]))
            q0 = rng.uniform(0, 20, n)
            q1 = q0 + rng.uniform(-1, 1, n)
            p = float(rng.random())
            r = mw_leave_one_out_optimum(p, q0, q1, eta)
            k0 = entropy_conjugate_partial2(eta * q0, 0)
            k1 = entropy_conjugate_partial2(eta * q1, 0)
            x, _ = golden_section_max(
                lambda v: (1 - p) * k0 * (1 - v**2) + p * k1 * (1 - (1 - v) ** 2), 0.0, 1.0, xtol=1e-10
            )
            assert abs(r - x) <= 1e-6

    def test_eta_out_of_range_refused(self):
        q = np.zeros(3)
        with pytest.raises(ValueError, match="min\\(alpha/2, 1/beta\\)"):
            mw_leave_one_out_optimum(0.5, q, q, 0.5)

    def test_inconsistent_continuations_refused(self):
        with pytest.raises(ValueError, match="inconsistent"):
            mw_leave_one_out_optimum(0.5, np.zeros(3), np.full(3, 1.5), 0.05)


class TestGoldenSection:
    def test_refuses_a_bracket_it_cannot_search(self):
        f = lambda x: -((x - 0.3) ** 2)
        with pytest.raises(ValueError, match="xtol"):
            golden_section_max(f, 0.0, 1.0, xtol=0.0)
        with pytest.raises(ValueError, match="lo <= hi"):
            golden_section_max(f, 1.0, 0.0)
        assert golden_section_max(f, 0.0, 1.0)[0] == pytest.approx(0.3, abs=1e-7)

    def test_lockstep_refuses_a_bracket_it_cannot_search(self):
        f = lambda x: -((x - 0.3) ** 2)
        with pytest.raises(ValueError, match="xtol must be positive"):
            lockstep_golden_section_max(f, np.zeros(2), np.ones(2), xtol=0.0)
        with pytest.raises(ValueError, match="xtol must be positive"):
            lockstep_golden_section_max(f, np.zeros(2), np.ones(2), xtol=-1e-8)
        with pytest.raises(ValueError, match=r"lo <= hi, got \[1.0, 0.5\] in row 1"):
            lockstep_golden_section_max(f, np.array([0.0, 1.0]), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
    def test_refuses_a_bracket_that_is_not_finite(self, lo, hi):
        # NaN compares False, so a bracket check written as lo > hi lets it through
        f = lambda x: -((x - 0.3) ** 2)
        with pytest.raises(ValueError, match=rf"finite lo <= hi, got \[{lo}, {hi}\]$"):
            golden_section_max(f, lo, hi)
        with pytest.raises(ValueError, match=rf"finite lo <= hi, got \[{lo}, {hi}\] in row 1"):
            lockstep_golden_section_max(f, np.array([0.0, lo]), np.array([1.0, hi]))
        with pytest.raises(ValueError, match=rf"finite lo <= hi, got \[{lo}, {hi}\] in row 0"):
            lockstep_golden_section_max(f, lo, hi)


# Row g of the stacked test function, by kind: a peak at t with slope s, a
# plateau of half-width w around t (ties inside it), a constant (ties
# everywhere), or a wave with several local maxima.  Elementwise numpy
# arithmetic, so a row computes the same bits alone as in the stack.
_KINDS = ("peak", "plateau", "flat", "wave")


def _stacked_function(kind, t, s, w):
    def f(x):
        peak = -s * (x - t) * (x - t)
        plateau = -np.maximum(np.abs(x - t), w)
        wave = np.sin(s * x) * t
        return np.select([kind == 0, kind == 1, kind == 2], [peak, plateau, np.full_like(x, t)], wave)

    return f


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(_KINDS) - 1),
            st.floats(min_value=-2.0, max_value=3.0),
            st.floats(min_value=-2.0, max_value=3.0),
            st.floats(min_value=0.0, max_value=50.0),
            st.floats(min_value=0.0, max_value=0.5),
        ),
        min_size=1,
        max_size=8,
    ),
    xtol=st.sampled_from([1e-8, 1e-3, 0.25, 10.0]),
)
@example(rows=[(2, 0.0, 1.0, 1.0, 0.0)], xtol=1e-8)
@example(rows=[(0, 0.0, 1.0, 3.0, 0.0), (1, -1.0, 0.5, 1.0, 0.2), (2, 0.4, 0.4, 0.0, 0.0), (3, 0.0, 3.0, 40.0, 0.0)],
         xtol=1e-8)
def test_lockstep_search_equals_each_scalar_search(rows, xtol):
    kind, lo, hi, s, w = (np.array(v) for v in zip(*rows))
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    t = 0.5 * (lo + hi) + 0.3 * (hi - lo) * np.cos(s)
    stacked = _stacked_function(kind, t, s, w)
    calls = []

    def f(x):
        calls.append(x.shape)
        return stacked(x)

    x, fx = lockstep_golden_section_max(f, lo, hi, xtol=xtol)
    scalar_calls = []
    for g in range(len(rows)):
        alone = _stacked_function(kind[g : g + 1], t[g : g + 1], s[g : g + 1], w[g : g + 1])
        counted = []

        def f_g(v, alone=alone, counted=counted):
            counted.append(v)
            return float(alone(np.array([v]))[0])

        xg, fg = golden_section_max(f_g, lo[g], hi[g], xtol=xtol)
        assert x[g] == xg and fx[g] == fg
        scalar_calls.append(len(counted))
    # one stacked call per step: as many as the longest scalar search made
    assert calls == [(len(rows),)] * max(scalar_calls)


class TestNoisyMaxFixedPoint:
    def test_symmetric_context(self):
        assert noisy_max_fixed_point(0.5, 1.0, 1.0, 40.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("b", [40.0, 80.0])
    def test_band(self, b):
        for p in np.arange(0.05, 0.96, 0.05):
            for mu0 in np.linspace(-2.0, 3.0, 11):
                for d in np.linspace(-1.0, 1.0, 9):
                    r = noisy_max_fixed_point(float(p), float(mu0), float(mu0 + d), b)
                    assert p - 2.0 / b - 1e-12 <= r <= p + 4.0 / b + 1e-12

    def test_stationarity(self):
        # the returned point satisfies r = p / (E - pE + p) at itself
        r = noisy_max_fixed_point(0.3, 0.7, 1.2, 40.0)
        s1 = 1 - (1 - r) ** 2
        s0 = 1 - r**2
        e = math.exp((abs(s1 - 1.2) - abs(s0 - 0.7)) / 40.0)
        assert abs(r - 0.3 / (e - 0.3 * e + 0.3)) <= 1e-10

    def test_b_below_four_refused(self):
        with pytest.raises(ValueError, match="b >= 4"):
            noisy_max_fixed_point(0.5, 0.0, 0.0, 3.0)

    def test_inconsistent_mus_refused(self):
        with pytest.raises(ValueError, match="inconsistent"):
            noisy_max_fixed_point(0.5, 0.0, 1.5, 40.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: noisy_max_fixed_point(0.5, 0.0, 0.0, math.nan), "b >= 4"),
        (lambda: noisy_max_fixed_point(0.5, math.nan, 0.0, 40.0), "inconsistent"),
        (lambda: noisy_max_fixed_point(0.5, 0.0, math.nan, 40.0), "inconsistent"),
        (lambda: dominance_clamp_check(
            StrategicContext(np.array([[0.3]]), np.array([0.5]), MultWeights(eta=0.05)), np.array([0.9]), math.nan,
        ), "gamma must be positive"),
    ],
    ids=["fixed-point-b", "fixed-point-mu0", "fixed-point-mu1", "clamp-gamma"],
)
def test_nan_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestBestResponseFull:
    def test_mw_band(self):
        rng = np.random.default_rng(6)
        eta = 0.05
        for k in range(15):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            ctx = StrategicContext(rng.random((n - 1, m)), rng.random(m), MultWeights(eta=eta))
            res = best_response_full(ctx, starts=3, seed=k)
            assert res.certified
            assert np.max(np.abs(res.report - ctx.own_beliefs)) <= 4 * eta

    def test_non_finite_utility_at_every_start_is_a_value_error(self):
        # eta * totals overflows, so every candidate's softmax utility is NaN
        with pytest.warns(UserWarning, match="approximate-truthfulness range"):
            mech = MultWeights(eta=1e308)
        ctx = StrategicContext(np.array([[0.3, 0.8]]), np.array([0.6, 0.4]), mech)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="every start's expected utility was non-finite"):
            best_response_full(ctx, starts=2, seed=0)

    def test_hedger_best_response_is_extreme(self):
        # Reports 0.9 and 0.1 on one event squeeze out a middle report of
        # 0.5 entirely; the best response jumps to an extreme and wins with
        # probability one half instead of zero.
        ctx = StrategicContext(np.array([[0.9], [0.1]]), np.array([0.5]), SimpleMax())
        res = best_response_full(ctx, starts=4, seed=0)
        assert not res.certified
        assert res.report[0] in (0.0, 1.0)
        assert res.expected_utility == pytest.approx(0.5, abs=1e-12)
        assert expected_win_prob(ctx, np.array([0.5])) == 0.0

    def test_flat_line_searches_do_not_stall(self, monkeypatch):
        # On this context one start's line searches kept returning points a
        # few 1e-8 apart at equal utility; counting such ties as moves ran
        # the ascent to its 200-cycle cap (424 line searches).
        searches = []

        def counting(*args, **kwargs):
            searches.append(1)
            return golden_section_max(*args, **kwargs)

        monkeypatch.setattr(agents, "golden_section_max", counting)
        opponents = np.array([
            [0.00031636440192883697, 0.03427409742475729],
            [0.12864507562031668, 0.865346246297068],
            [0.24574433849814237, 0.8707659994918415],
        ])
        ctx = StrategicContext(opponents, np.array([0.523101803174327, 0.6097434316570846]), MultWeights(eta=0.05))
        res = best_response_full(ctx, starts=5, seed=11)
        assert len(searches) <= 60
        assert np.max(np.abs(res.report - ctx.own_beliefs)) <= 4 * 0.05

    def test_symmetric_context_truthful(self):
        ctx = StrategicContext(np.full((1, 2), 0.5), np.full(2, 0.5), MultWeights(eta=0.1))
        res = best_response_full(ctx, starts=3, seed=0)
        np.testing.assert_allclose(res.report, 0.5, atol=1e-6)

    def test_beats_grid_refinement(self):
        rng = np.random.default_rng(7)
        ctx = StrategicContext(rng.random((2, 2)), rng.random(2), MultWeights(eta=0.05))
        res = best_response_full(ctx, starts=3, seed=0)
        grid = np.linspace(0, 1, 41)
        for a in grid:
            for b in grid:
                assert res.expected_utility >= expected_win_prob(ctx, np.array([a, b])) - 1e-7

    def test_per_coordinate_concavity(self):
        # second finite differences of the exact utility are negative along
        # every coordinate for small eta
        rng = np.random.default_rng(8)
        ctx = StrategicContext(rng.random((2, 3)), rng.random(3), MultWeights(eta=0.05))
        h = 0.02
        for t in range(3):
            for v in np.linspace(h, 1 - h, 9):
                r = ctx.own_beliefs.copy()

                def u(val):
                    r[t] = val
                    return expected_win_prob(ctx, r)

                second = u(v + h) - 2 * u(v) + u(v - h)
                assert second < 0.0


def _loop_best_response_full(ctx: StrategicContext, starts: int, seed: int) -> tuple[agents.BestResponseResult, int]:
    """The grid branch of ``best_response_full`` with one utility call per
    grid candidate, as it was before a coordinate's grid became one stacked
    ``law`` call; also returns its number of line searches."""
    utility = agents._ExactUtility(ctx)
    rng = np.random.default_rng(seed)
    start_points = [ctx.own_beliefs.copy()] + [rng.random(ctx.m) for _ in range(max(0, starts - 1))]
    grid = np.linspace(0.0, 1.0, agents.GRID_POINTS)
    best_r, best_u, searches = None, -math.inf, 0
    for r0 in start_points:
        r = r0.copy()
        u = utility(r)
        for _ in range(agents.MAX_CYCLES):
            moved = 0.0
            for t in range(ctx.m):
                old = r[t]
                vals = []
                for v in grid:
                    r[t] = float(v)
                    vals.append(utility(r))
                searches += 1
                k = int(np.argmax(vals))
                x, fx = float(grid[k]), float(vals[k])
                if fx > u:
                    r[t], u = x, fx
                    moved = max(moved, abs(x - old))
                else:
                    r[t] = old
            if moved <= agents.COORD_TOL:
                break
        if u > best_u:
            best_u, best_r = u, r.copy()
    return agents.BestResponseResult(report=best_r, expected_utility=best_u, certified=False), searches


GRID_MECHANISMS = [Elf(), PointPerRound(g=lambda r, y: (1.0 - (y - r) ** 2) / 4.0, range_length=0.25), SimpleMax()]


class TestGridBestResponse:
    @pytest.mark.parametrize("mechanism", GRID_MECHANISMS, ids=["elf", "point_per_round", "simple_max"])
    def test_matches_the_per_candidate_loop(self, mechanism):
        rng = np.random.default_rng(12)
        for k in range(6):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            ctx = StrategicContext(rng.random((n - 1, m)), rng.random(m), mechanism)
            res = best_response_full(ctx, starts=2, seed=k)
            oracle, _ = _loop_best_response_full(ctx, starts=2, seed=k)
            assert not res.certified
            np.testing.assert_array_equal(res.report, oracle.report)
            assert res.expected_utility == oracle.expected_utility

    @pytest.mark.parametrize("mechanism", GRID_MECHANISMS, ids=["elf", "point_per_round", "simple_max"])
    def test_a_candidate_stack_has_each_candidates_bits(self, mechanism):
        # 2^6 outcome rows with strided law columns: a matrix-vector product
        # over the stack sums them in another order
        rng = np.random.default_rng(14)
        utility = agents._ExactUtility(StrategicContext(rng.random((2, 6)), rng.random(6), mechanism))
        stack = rng.random((agents.GRID_POINTS, 6))
        np.testing.assert_array_equal(utility(stack), [utility(r) for r in stack])

    def test_one_law_call_per_line_search(self, monkeypatch):
        # the per-candidate loop made 1,811 law calls on this solve
        rng = np.random.default_rng(13)
        ctx = StrategicContext(rng.random((2, 3)), rng.random(3), Elf())
        _, searches = _loop_best_response_full(ctx, starts=2, seed=0)
        calls = []
        law = Elf.law

        def counting(self, reports, outcomes, *args):
            calls.append(np.shape(reports))
            return law(self, reports, outcomes, *args)

        monkeypatch.setattr(Elf, "law", counting)
        best_response_full(ctx, starts=2, seed=0)
        assert len(calls) == 2 + searches
        assert calls.count((agents.GRID_POINTS, 1, 3, 3)) == searches

    def test_refuses_m_beyond_the_enumeration_budget(self):
        m = agents.ENUM_BUDGET + 1
        for mechanism in (Elf(), MultWeights(eta=0.05)):
            ctx = StrategicContext(np.full((1, m), 0.5), np.full(m, 0.5), mechanism)
            with pytest.raises(ValueError, match=rf"m={m} exceeds the exact enumeration budget 20: .* needs m <= 20"):
                best_response_full(ctx)
        with pytest.raises(ValueError, match=rf"m={m} exceeds the exact enumeration budget 20"):
            dominance_clamp_check(ctx, np.full(m, 0.5), 0.1)


CERTIFIED_MECHANISMS = [MultWeights(eta=0.05), Ftrl(regularizer=L2, eta=0.2), ReportNoisyMax(b=5.0)]
CERTIFIED_IDS = ["mw", "ftrl_l2", "noisy_max"]


@pytest.mark.parametrize("mechanism", CERTIFIED_MECHANISMS, ids=CERTIFIED_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_line_equals_the_utility_of_the_full_report(mechanism, data):
    n = data.draw(st.integers(2, 4), label="n")
    m = data.draw(st.integers(1, 5), label="m")
    prob = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)

    def vector(size: int, label: str) -> np.ndarray:
        return np.array(data.draw(st.lists(prob, min_size=size, max_size=size), label=label))

    ctx = StrategicContext(vector((n - 1) * m, "opponents").reshape(n - 1, m), vector(m, "beliefs"), mechanism)
    r = vector(m, "report")
    t = data.draw(st.integers(0, m - 1), label="t")
    kept = r.copy()
    utility = agents._ExactUtility(ctx)
    line = utility.line(r, t, utility.weights)
    for v in (0.0, 1.0, data.draw(st.floats(0.0, 1.0), label="v")):
        moved = kept.copy()
        moved[t] = v
        assert abs(line(v) - expected_win_prob(ctx, moved)) <= 1e-14
        np.testing.assert_array_equal(r, kept)


class TestCoordinateLine:
    @pytest.mark.parametrize("mechanism", CERTIFIED_MECHANISMS + GRID_MECHANISMS,
                             ids=CERTIFIED_IDS + ["elf", "point_per_round", "simple_max"])
    def test_expected_utility_is_the_exact_utility_of_the_report(self, mechanism):
        rng = np.random.default_rng(14)
        for k in range(4):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            ctx = StrategicContext(rng.random((n - 1, m)), rng.random(m), mechanism)
            res = best_response_full(ctx, starts=2, seed=k)
            assert res.expected_utility == expected_win_prob(ctx, res.report)

    @pytest.mark.parametrize("mechanism", CERTIFIED_MECHANISMS, ids=CERTIFIED_IDS)
    def test_full_report_scored_once_per_line_search(self, mechanism, monkeypatch):
        # each start scores its first report, then each line search scores the
        # point it found; the search's own steps evaluate only the line
        searches, steps, full = [], [], []

        def counting_search(f, *args, **kwargs):
            searches.append(1)
            return golden_section_max(lambda v: steps.append(1) or f(v), *args, **kwargs)

        kernel_of = type(mechanism).utility_kernel

        def counting_kernel(self, opponent_reports, bits):
            win_probs, line = kernel_of(self, opponent_reports, bits)
            return (lambda own: full.append(1) or win_probs(own)), line

        monkeypatch.setattr(agents, "golden_section_max", counting_search)
        monkeypatch.setattr(type(mechanism), "utility_kernel", counting_kernel)
        rng = np.random.default_rng(15)
        ctx = StrategicContext(rng.random((2, 3)), rng.random(3), mechanism)
        best_response_full(ctx, starts=2, seed=0)
        assert len(searches) >= 3
        assert len(full) == 2 + len(searches)
        assert len(steps) >= 30 * len(searches)


class TestDominanceClamp:
    def test_out_of_band_coordinate_improved(self):
        rng = np.random.default_rng(9)
        eta = 0.05
        gamma = 4 * eta
        for k in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            p = rng.uniform(0.1, 1 - 2 * gamma - 0.05, m)
            ctx = StrategicContext(rng.random((n - 1, m)), p, MultWeights(eta=eta))
            r_hat = p.copy()
            t = int(rng.integers(m))
            r_hat[t] = p[t] + 2 * gamma
            chk = dominance_clamp_check(ctx, r_hat, gamma)
            assert chk.clamped is not None
            assert chk.clamped[t] == pytest.approx(p[t] + gamma, abs=1e-12)
            assert chk.improvement > 0.0

    def test_in_band_report_not_clamped(self):
        rng = np.random.default_rng(10)
        ctx = StrategicContext(rng.random((2, 3)), rng.random(3), MultWeights(eta=0.05))
        chk = dominance_clamp_check(ctx, ctx.own_beliefs, 0.2)
        assert chk.clamped is None
        assert chk.improvement == 0.0

    def test_requires_regularized_leader(self):
        ctx = StrategicContext(np.full((1, 1), 0.5), np.array([0.5]), SimpleMax())
        with pytest.raises(ValueError):
            dominance_clamp_check(ctx, np.array([0.9]), 0.2)


class TestTruthfulnessGapSweep:
    def test_mw_within_band(self):
        report = truthfulness_gap_sweep(MultWeights(eta=0.05), n=3, m=3, num_contexts=30, seed=0)
        assert report.gamma_theoretical == pytest.approx(0.2)
        assert report.gamma_empirical <= report.gamma_theoretical
        assert len(report.gaps) == 30
        assert report.notes["eta_threshold_strict"] == 0.25

    def test_noisy_max_within_band(self):
        report = truthfulness_gap_sweep(ReportNoisyMax(b=80.0), n=3, m=2, num_contexts=12, seed=1)
        assert report.gamma_theoretical == pytest.approx(0.05)
        assert report.gamma_empirical <= 0.05

    def test_simple_max_not_truthful(self):
        report = truthfulness_gap_sweep(SimpleMax(), n=3, m=1, num_contexts=5, seed=2)
        assert report.gamma_theoretical is None
        hedger = StrategicContext(np.array([[0.9], [0.1]]), np.array([0.5]), SimpleMax())
        result = best_response_full(hedger, starts=agents.SWEEP_STARTS, seed=5)
        assert np.max(np.abs(result.report - hedger.own_beliefs)) >= 0.5 - 1e-9


class TestStrategies:
    def test_extremizer_formula(self):
        p = np.array([0.2, 0.5, 0.8])
        np.testing.assert_allclose(extremize(p, 0.5), [0.1, 0.75, 0.9], atol=1e-15)

    def test_extremizer_zero_pull_is_truthful(self):
        p = np.random.default_rng(11).random(5)
        np.testing.assert_array_equal(extremize(p, 0.0), p)

    def test_pull_validation(self):
        with pytest.raises(ValueError):
            Extremizer(pull=1.5)

    @pytest.mark.parametrize("pull", [-0.1, 2.0, math.nan, math.inf])
    def test_extremize_refuses_a_pull_outside_the_unit_interval(self, pull):
        # Extremizer's check: a pull of 2 would move 0.3 to -0.3, not a report
        with pytest.raises(ValueError, match=rf"pull must lie in \[0, 1\], got {pull}"):
            extremize([0.3, 0.8], pull)

    def test_fixed_report_shape_checked(self):
        with pytest.raises(ValueError):
            strategy_report_row(FixedReport(report=(0.5,)), np.array([0.4, 0.6]))

    def test_round_local_band(self):
        rng = np.random.default_rng(12)
        eta = 0.0075
        bound = 3 * eta + (3 * eta) ** 2
        p = rng.random(2000)
        opp = rng.random((3, 2000))
        r = round_local_best_response(p, opp, eta)
        assert np.max(np.abs(r - p)) <= bound + 1e-12

    def test_build_reports_mixed(self):
        rng = np.random.default_rng(13)
        beliefs = rng.random((3, 4))
        strategies = [Truthful(), Extremizer(pull=0.3), BestResponse(mode="round_local")]
        reports = build_reports(strategies, beliefs, MultWeights(eta=0.05))
        np.testing.assert_array_equal(reports[0], beliefs[0])
        np.testing.assert_allclose(reports[1], extremize(beliefs[1], 0.3))
        assert np.max(np.abs(reports[2] - beliefs[2])) <= 4 * 0.05

    def test_build_reports_refuses_an_online_responder(self):
        beliefs = np.random.default_rng(15).random((3, 2))
        with pytest.raises(ValueError, match="cannot play the responder MyopicBestResponse"):
            build_reports([MyopicBestResponse()] * 3, beliefs, MultWeights(eta=0.05))

    def test_default_best_response_is_round_local(self):
        rng = np.random.default_rng(14)
        beliefs = rng.random((3, 3))
        mech = MultWeights(eta=0.05)
        reports = build_reports([Truthful(), Truthful(), BestResponse()], beliefs, mech)
        np.testing.assert_array_equal(reports[2], round_local_best_response(beliefs[2], beliefs[:2], mech.eta))
        with pytest.raises(ValueError, match="'round_local'"):
            BestResponse(mode="exact")
