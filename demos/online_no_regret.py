#!/usr/bin/env python3
"""No-regret selection against the experts' private beliefs.

Runs the sequential softmax-of-scores learner against three expert
populations -- truthful, extremizing (variance seekers within the
approximate-truthfulness band), and myopic best responders -- and compares
the realized regret with the 2 sqrt(10 T log n) guarantee.  Regret is
measured against the best expert's *beliefs*, not their reports: the
approximate-truthfulness band is what makes that benchmark attainable.

Run: python demos/online_no_regret.py
"""

import numpy as np

from forecastcomp.agents import Extremizer, Truthful
from forecastcomp.experiments import (
    MyopicBestResponse,
    OnlinePreference,
    mw_tuned_eta,
    online_run,
    regret_bound,
)
from forecastcomp.regularizers import NEG_ENTROPY

SEED = 4242
N, T = 10, 10_000
ETA = mw_tuned_eta(T, N)
BOUND = regret_bound("mw", T, N)

print(f"n={N} experts, T={T} rounds, eta=sqrt(ln n / 10T)={ETA:.5f}")
print(f"guarantee: regret <= 2 sqrt(10 T ln n) = {BOUND:.1f}\n")

populations = {
    "truthful": [Truthful()] * N,
    "extremizer (pull=4 eta)": [Extremizer(pull=min(1.0, 4 * ETA))] * N,
}

for name, strategies in populations.items():
    regrets = []
    for k in range(5):
        rng = np.random.default_rng(SEED + k)
        trace = online_run(
            rng.random((N, T)),
            rng.random(T),
            strategies,
            OnlinePreference("myopic"),
            NEG_ENTROPY,
            ETA,
            seed=SEED + 100 + k,
        )
        regrets.append(trace.regret)
    print(f"{name:>24}: regret over 5 runs  min {min(regrets):7.1f}  max {max(regrets):7.1f}")

# myopic best responders are expensive (a line search per expert per round),
# so demonstrate them on a shorter horizon
T_SHORT = 400
eta_s = mw_tuned_eta(T_SHORT, N)
rng = np.random.default_rng(SEED)
beliefs = rng.random((N, T_SHORT))
trace = online_run(
    beliefs,
    rng.random(T_SHORT),
    [MyopicBestResponse()] * N,
    OnlinePreference("myopic"),
    NEG_ENTROPY,
    eta_s,
    seed=SEED + 999,
)
drift = np.max(np.abs(trace.reports - beliefs))
print(
    f"{'myopic best response':>24}: regret {trace.regret:7.1f} over T={T_SHORT}"
    f" (bound {regret_bound('mw', T_SHORT, N):.1f}); worst report drift {drift:.4f} <= {4 * eta_s:.4f}"
)

print()
print("Causality audit on the last trace: recomputing pi^t from stored")
print("prefixes reproduces the live run bit-for-bit at every probed round:")
ok = all(np.array_equal(trace.replay_pi(t), trace.pis[t]) for t in (0, 1, T_SHORT // 2, T_SHORT - 1))
print(f"  replay exact: {ok}; accounting audit |recomputed - stored| = "
      f"{abs(trace.recompute_regret() - trace.regret):.1e}")
