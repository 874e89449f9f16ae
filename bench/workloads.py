"""The four benchmark workloads.

A workload is built once from its seed and then run in identical rounds.
Each round calls the library through the same list of operations; an
operation is one search, estimate, CLI invocation, online run or
best-response solve.  Every operation belongs to part ``a`` or part ``b`` of
its workload, so each workload reports two throughputs that different
optimisations are expected to move.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from forecastcomp import agents, cli, experiments, mechanisms, regularizers

EPS, DELTA = 0.3, 0.1


def sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part).tobytes() if not isinstance(part, bytes) else part)
    return h.hexdigest()


@dataclass
class Op:
    part: str  # "a" or "b"
    name: str
    run: Callable[[], object]
    work: Callable[[object], int]
    check: Callable[[object], list[str]]
    fingerprint: Callable[[object], str]


class Workload:
    name = ""
    units = ("", "")  # what parts a and b count

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.regularizer = regularizers.NEG_ENTROPY

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check_round(self, outputs: dict[str, object]) -> list[str]:
        """Checks that span several operations of one round."""
        return []


# ---------------------------------------------------------------------------
# complexity: acceptance test 08 at reduced trial counts
# ---------------------------------------------------------------------------

class Complexity(Workload):
    """Event-complexity searches and success estimates at the published bounds.

    m_start=96 puts both searches' doubling phase in the same octave on
    nearly every seed (ELF's m* lies near 2,000 and MW's near 900); from 64, ELF's
    bracket flips between [1024, 2048] and [2048, 4096] by seed, and its
    work by half.  One trial count per probe (max_trial_scale=1) keeps the
    work of a probe the same on every seed.
    """

    name = "complexity"
    # A trial's cost grows with m and the probes' m differ by seed, so work
    # is counted in simulated events: trials x m.
    units = ("ELF trial-events", "MW and SimpleMax trial-events")
    N_BIG, PROBE_TRIALS, M_START, EST_TRIALS, N_GAP, N_BR, GAP = 100, 100, 96, 4000, 10, 4, 0.32
    REFERENCE_SAMPLES = 4000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        exp = experiments
        self.family = functools.partial(exp.perfect_vs_terrible_setting, self.N_BIG)
        self.truthful_big = [agents.Truthful()] * self.N_BIG
        self.eta = EPS / 40.0
        self.estimates = {
            "simple_max_estimate": (
                exp.gap_setting(self.N_GAP, exp.theoretical_bounds("simple_max", self.N_GAP, EPS, DELTA),
                                self.GAP, seed=sub_seed(seed, 1)),
                [agents.Truthful()] * self.N_GAP,
                mechanisms.SimpleMax(),
            ),
            "mw_truthful_estimate": (
                exp.gap_setting(self.N_GAP, exp.theoretical_bounds("mw", self.N_GAP, EPS, DELTA),
                                self.GAP, seed=sub_seed(seed, 2)),
                [agents.Truthful()] * self.N_GAP,
                mechanisms.MultWeights(eta=self.eta),
            ),
            "mw_br_estimate": (
                exp.gap_setting(self.N_BR, exp.theoretical_bounds("mw", self.N_BR, EPS, DELTA),
                                self.GAP, seed=sub_seed(seed, 3)),
                [agents.BestResponse(mode="round_local")] * self.N_BR,
                mechanisms.MultWeights(eta=self.eta),
            ),
        }

    def _search(self, mechanism, key: int):
        return experiments.estimate_event_complexity(
            mechanism, self.family, self.truthful_big, EPS, DELTA, self.PROBE_TRIALS,
            seed=sub_seed(self.seed, key), m_start=self.M_START, max_trial_scale=1, threads=1,
        )

    def _estimate(self, name: str, key: int):
        setting, strategies, mechanism = self.estimates[name]
        return experiments.estimate_success_prob(
            setting, strategies, mechanism, EPS, self.EST_TRIALS, seed=sub_seed(self.seed, key), threads=1
        )

    def ops(self) -> list[Op]:
        target = 1.0 - DELTA
        search_work = lambda est: sum(p.trials * p.m for p in est.probes)
        search_print = lambda est: digest(repr([tuple(vars(p).values()) for p in est.probes]).encode())
        est_print = lambda est: digest(repr((est.successes, est.trials)).encode())
        ops = [
            Op("a", "elf_search", lambda: self._search(mechanisms.Elf(), 4), search_work,
               lambda est: checks.check_search(est, target) + checks.check_elf_probes(
                   est.probes, self.N_BIG, self.REFERENCE_SAMPLES, self.seed), search_print),
            Op("b", "mw_search", lambda: self._search(mechanisms.MultWeights(eta=self.eta), 5), search_work,
               lambda est: checks.check_search(est, target) + checks.check_mw_probes(
                   est.probes, self.N_BIG, self.eta), search_print),
        ]
        for key, name in enumerate(self.estimates, start=6):
            m = self.estimates[name][0].m
            ops.append(Op("b", name, functools.partial(self._estimate, name, key), lambda est, m=m: est.trials * m,
                          lambda est: checks.check_estimate(est, target), est_print))
        return ops

    def check_round(self, outputs):
        elf, mw = outputs.get("elf_search"), outputs.get("mw_search")
        if elf is not None and mw is not None and not elf.m_estimate > mw.m_estimate:
            return [f"ELF m*={elf.m_estimate} is not above MW m*={mw.m_estimate}"]
        return []


# ---------------------------------------------------------------------------
# cli_run: the CLI in-process at --threads 2
# ---------------------------------------------------------------------------

@dataclass
class CliOutput:
    code: int
    rows: list[list[str]]  # results.csv without its header
    summary: dict
    raw: bytes  # results.csv then summary.json


class CliRun(Workload):
    """``run`` (MW, gap family, round-local best responders) and
    ``lower-bound-demo``, through ``forecastcomp.cli.main``.

    Configs and outputs always go to new files: on ext4, rewriting an
    existing file flushes it on close, which cost about 70 ms a file on the
    reference host and varied with the disk.
    """

    name = "cli_run"
    units = ("run trials", "lower-bound-demo trials")
    N, M, GAP, ETA, RUN_TRIALS, LB_N, LB_TRIALS, THREADS = 10, 5000, 0.32, 0.0075, 300, 100, 2000, 2

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        configs = {
            "run": {
                "command": "run",
                "mechanism": {"type": "mw", "eta": self.ETA},
                "setting": {"generator": "gap", "n": self.N, "m": self.M, "gap": self.GAP},
                "params": {"epsilon": EPS, "strategies": "round_local_best_response"},
                "seed": sub_seed(seed, 1),
                "trials": self.RUN_TRIALS,
            },
            "lower-bound-demo": {
                "command": "lower-bound-demo",
                "params": {"n": self.LB_N},
                "seed": sub_seed(seed, 2),
                "trials": self.LB_TRIALS,
            },
        }
        self.dir = Path(tempfile.mkdtemp(dir=workdir))
        self.paths = {}
        for command, config in configs.items():
            path = self.dir / f"{command}.json"
            path.write_text(json.dumps(config))
            self.paths[command] = path

    def _invoke(self, command: str) -> CliOutput:
        out = Path(tempfile.mkdtemp(prefix=command, dir=self.dir))
        argv = [command, "--config", str(self.paths[command]), "--out", str(out), "--threads", str(self.THREADS)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        results = (out / "results.csv").read_bytes()
        summary = (out / "summary.json").read_bytes()
        table = list(csv.reader(io.StringIO(results.decode())))
        return CliOutput(code, table[1:], json.loads(summary), results + summary)

    def ops(self) -> list[Op]:
        def check_run(o: CliOutput) -> list[str]:
            if o.code != 0:
                return [f"exit code {o.code}"]
            return checks.check_cli_run(o.rows, o.summary, self.N, self.GAP, EPS, self.RUN_TRIALS)

        def check_lb(o: CliOutput) -> list[str]:
            if o.code != 0:
                return [f"exit code {o.code}"]
            return checks.check_lower_bound_demo(o.rows, o.summary, self.LB_N, self.LB_TRIALS)

        return [
            Op("a", "run", lambda: self._invoke("run"), lambda o: len(o.rows), check_run,
               lambda o: digest(o.raw)),
            Op("b", "lower_bound_demo", lambda: self._invoke("lower-bound-demo"),
               lambda o: sum(int(r[3]) for r in o.rows), check_lb, lambda o: digest(o.raw)),
        ]


# ---------------------------------------------------------------------------
# online: acceptance test 11 at reduced counts
# ---------------------------------------------------------------------------

class Online(Workload):
    """Fixed-plan experts (truthful, extremizer) at T=10,000 and myopic
    responders at T=300, n=10, eta = sqrt(ln n / (10 T))."""

    name = "online"
    units = ("fixed-plan rounds", "myopic rounds")
    N, T, T_MYOPIC, FIXED_RUNS = 10, 10_000, 300, 2

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.runs = []  # (part, name, beliefs, theta, strategies, eta, planned, band)
        eta = math.sqrt(math.log(self.N) / (10.0 * self.T))
        pull = min(1.0, 4.0 * eta)
        for k in range(2 * self.FIXED_RUNS):
            rng = np.random.default_rng(sub_seed(seed, 1, k))
            beliefs, theta = rng.random((self.N, self.T)), rng.random(self.T)
            if k < self.FIXED_RUNS:
                self.runs.append(("a", f"truthful_{k}", beliefs, theta, [agents.Truthful()] * self.N, eta,
                                  beliefs, None))
            else:
                planned = (1.0 - pull) * beliefs + pull * (beliefs >= 0.5)
                self.runs.append(("a", f"extremizer_{k}", beliefs, theta,
                                  [agents.Extremizer(pull=pull)] * self.N, eta, planned, None))
        eta_m = math.sqrt(math.log(self.N) / (10.0 * self.T_MYOPIC))
        beta = regularizers.NEG_ENTROPY.declared.beta
        rng = np.random.default_rng(sub_seed(seed, 2))
        self.runs.append(("b", "myopic", rng.random((self.N, self.T_MYOPIC)), rng.random(self.T_MYOPIC),
                          [experiments.MyopicBestResponse()] * self.N, eta_m, None,
                          beta * eta_m + (beta * eta_m) ** 2))

    def ops(self) -> list[Op]:
        ops = []
        for k, (part, name, beliefs, theta, strategies, eta, planned, band) in enumerate(self.runs):
            run = functools.partial(self._run, beliefs, theta, strategies, eta, sub_seed(self.seed, 3, k))
            check = functools.partial(checks.check_online, eta=eta, planned=planned, band=band)
            ops.append(Op(part, name, run, lambda tr: tr.outcomes.size, check,
                          lambda tr: digest(tr.pis, tr.reports, tr.outcomes, np.float64(tr.regret))))
        return ops

    def _run(self, beliefs, theta, strategies, eta, seed):
        return experiments.online_run(
            beliefs, theta, strategies, experiments.OnlinePreference("myopic"), self.regularizer, eta, seed
        )


# ---------------------------------------------------------------------------
# best_response: acceptance test 06's sweep plus full solves
# ---------------------------------------------------------------------------

class BestResponseWork(Workload):
    """MW sweep over every (n, m) in 2..4 x 1..5 with dominance clamps, then
    full best responses under Report Noisy Max (b=40) and ELF at n=3, m=3."""

    name = "best_response"
    units = ("MW sweep solves", "NoisyMax and ELF solves")
    MW_ETA, SWEEP_REPEATS, SWEEP_STARTS, NM_B, FULL_STARTS = 0.05, 4, 5, 40.0, 2
    FULL_CONTEXTS = {"noisy_max": 4, "elf": 4}

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # The MW and noisy-max contexts come from a fixed seed, not from
        # --seed: best_response_full runs all 200 of its ascent cycles on a
        # few contexts (CHANGES.md, FOUND), up to 27 times a normal solve, and
        # which contexts a seed drew set the round time (5 s or 13 s).
        fixed = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
        gamma = 4.0 * self.MW_ETA
        self.sweep = []  # (opponents, beliefs, r_hat)
        for _ in range(self.SWEEP_REPEATS):
            for n in (2, 3, 4):
                for m in range(1, 6):
                    beliefs = fixed.random(m)
                    opponents = fixed.random((n - 1, m))
                    # out-of-band report, as in acceptance test 06
                    t = int(fixed.integers(m))
                    r_hat = np.clip(beliefs + fixed.uniform(-0.05, 0.05, m), 0.0, 1.0)
                    if beliefs[t] <= 0.5:
                        r_hat[t] = min(1.0, beliefs[t] + gamma + 0.15)
                    else:
                        r_hat[t] = max(0.0, beliefs[t] - gamma - 0.15)
                    self.sweep.append((opponents, beliefs, r_hat))
        rng = np.random.default_rng(sub_seed(seed, 1))
        self.full = []  # (name, mechanism, opponents, beliefs)
        for kind, count in self.FULL_CONTEXTS.items():
            draw = fixed if kind == "noisy_max" else rng
            for k in range(count):
                mech = mechanisms.ReportNoisyMax(b=self.NM_B) if kind == "noisy_max" else mechanisms.Elf()
                self.full.append((f"{kind}_{k}", mech, draw.random((2, 3)), draw.random(3)))

    def ops(self) -> list[Op]:
        mw = mechanisms.MultWeights(eta=self.MW_ETA)
        gamma = 4.0 * self.MW_ETA
        ops = []
        for k, (opponents, beliefs, r_hat) in enumerate(self.sweep):
            ctx = agents.StrategicContext(opponents, beliefs, mw)
            utility = functools.partial(checks.mw_utility, opponents=opponents, beliefs=beliefs, eta=self.MW_ETA)

            def run(ctx=ctx, r_hat=r_hat, k=k):
                result = agents.best_response_full(ctx, starts=self.SWEEP_STARTS, seed=k)
                return result, agents.dominance_clamp_check(ctx, r_hat, gamma)

            def check(out, opponents=opponents, beliefs=beliefs, r_hat=r_hat, utility=utility):
                result, clamp = out
                return (checks.check_best_response(result, opponents, beliefs, utility, gamma, 1e-12)
                        + checks.check_clamp(clamp, r_hat, utility, 1e-12))

            ops.append(Op("a", f"mw_{k}", run, lambda out: 1, check,
                          lambda out: digest(out[0].report, np.float64(out[0].expected_utility),
                                             np.float64(out[1].utility_clamped))))
        for k, (name, mech, opponents, beliefs) in enumerate(self.full):
            ctx = agents.StrategicContext(opponents, beliefs, mech)
            if isinstance(mech, mechanisms.ReportNoisyMax):
                utility = functools.partial(checks.noisy_max_utility, opponents=opponents, beliefs=beliefs,
                                            b=mech.b)
                band, tol = 4.0 / mech.b, 1e-6
            else:
                utility = functools.partial(checks.elf_utility, opponents=opponents, beliefs=beliefs)
                band, tol = None, 1e-12
            run = functools.partial(agents.best_response_full, ctx, starts=self.FULL_STARTS, seed=100 + k)
            check = functools.partial(checks.check_best_response, opponents=opponents, beliefs=beliefs,
                                      utility=utility, band=band, tol=tol)
            ops.append(Op("b", name, run, lambda res: 1, check,
                          lambda res: digest(res.report, np.float64(res.expected_utility))))
        return ops


WORKLOADS = {w.name: w for w in (Complexity, CliRun, Online, BestResponseWork)}
