"""Forecaster-selection mechanisms and strategic-forecaster simulation tools.

The package is organized around the lifecycle of a forecasting competition:

- :mod:`forecastcomp.scoring` -- quadratic (Brier) scoring, accuracy, and the
  expected-score identities every mechanism relies on.
- :mod:`forecastcomp.regularizers` -- strictly convex regularizers on the
  simplex, their convex conjugates, and numerical curvature certification.
- :mod:`forecastcomp.mechanisms` -- winner-selection mechanisms: cumulative
  score argmax, per-event lotteries, regularized leaders, and noisy argmax.
- :mod:`forecastcomp.agents` -- strategic forecaster models, best-response
  solvers, and truthfulness-gap measurement.
- :mod:`forecastcomp.experiments` -- seeded Monte Carlo harnesses: event
  complexity, adversarial scenarios, balls-in-bins, and online regret.
- :mod:`forecastcomp.cli` -- command-line entry point with reproducible
  CSV/JSON outputs.
"""

from forecastcomp.scoring import (
    accuracy,
    epsilon_optimal_set,
    expected_avg_quadratic_score,
    outcome_variance_constant,
    score_matrix,
)
from forecastcomp.regularizers import (
    L2,
    NEG_ENTROPY,
    ConditionReport,
    CurvatureConstants,
    Regularizer,
    condition_check,
    entropy_conjugate_grad,
    entropy_conjugate_partial2,
    entropy_conjugate_partial3,
)
from forecastcomp.mechanisms import (
    Elf,
    Ftrl,
    MechanismConfig,
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
    mw_select,
    report_noisy_max_select,
    select,
    selection_law,
    simple_max_select,
)
from forecastcomp.agents import (
    AgentStrategy,
    BestResponse,
    BestResponseResult,
    ClampCheck,
    Extremizer,
    StrategicContext,
    Truthful,
    TruthfulnessGapReport,
    best_response_full,
    dominance_clamp_check,
    expected_win_prob,
    mw_leave_one_out_optimum,
    noisy_max_fixed_point,
    truthfulness_gap_sweep,
)
from forecastcomp.experiments import (
    BallsInBinsResult,
    CompetitionSetting,
    ComplexityEstimate,
    OnlinePreference,
    RegretTrace,
    SuccessEstimate,
    balls_in_bins_max,
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
)

__version__ = "0.1.0"
