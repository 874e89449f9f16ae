"""CLI: config validation, dispatch, output files, and determinism."""

import hashlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from forecastcomp import cli
from forecastcomp.cli import ConfigError, dispatch, main, parse_config, serialize_config


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


MINIMAL_RUN = {
    "command": "run",
    "mechanism": {"type": "mw", "eta": 0.05},
    "setting": {"generator": "random", "n": 3, "m": 4},
    "params": {"epsilon": 0.5},
    "seed": 7,
    "trials": 20,
}
BOUNDS = {"command": "bounds-table", "params": {"ns": [10], "epsilons": [0.1], "delta": 0.1}}


def with_params(data, **params):
    return dict(data, params=dict(data["params"], **params))


class TestParseConfig:
    def test_minimal_run_with_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL_RUN))
        assert cfg.command == "run"
        assert cfg.threads == 1
        assert cfg.out is None

    def test_zero_eta_rejected(self):
        bad = dict(MINIMAL_RUN, mechanism={"type": "mw", "eta": 0})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("eta must be > 0" in v for v in exc.value.violations)

    def test_small_b_rejected(self):
        bad = dict(MINIMAL_RUN, mechanism={"type": "noisy_max", "b": 2})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("b >= 4" in v or ">= 4" in v for v in exc.value.violations)

    def test_unknown_keys_are_errors(self):
        bad = dict(MINIMAL_RUN, extra=1)
        bad["mechanism"] = {"type": "mw", "eta": 0.05, "bogus": 2}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        text = " ".join(exc.value.violations)
        assert "extra" in text and "bogus" in text

    def test_all_violations_reported(self):
        bad = {
            "command": "run",
            "mechanism": {"type": "mw", "eta": -1},
            "setting": {"generator": "random", "n": 1, "m": 4},
            "params": {"epsilon": 2.0},
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert len(exc.value.violations) >= 3

    def test_command_mismatch(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(json.dumps(MINIMAL_RUN), command="bounds-table")

    def test_not_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("not json at all")

    def test_round_trip(self):
        for data in (
            MINIMAL_RUN,
            {
                "command": "bounds-table",
                "params": {"ns": [10, 100], "epsilons": [0.1, 0.2], "delta": 0.1},
                "seed": 1,
            },
            {
                "command": "condition-check",
                "params": {"regularizer": "negative_entropy", "samples": 50, "radius": 0.5},
                "threads": 4,
                "out": "somewhere",
            },
        ):
            cfg = parse_config(json.dumps(data))
            again = parse_config(json.dumps(serialize_config(cfg)))
            assert cfg == again


class TestDispatch:
    def run_main(self, tmp_path, data, name, extra=()):
        cfg_path = write_config(tmp_path, data, f"{name}.json")
        out = tmp_path / name
        code = main([data["command"], "--config", str(cfg_path), "--out", str(out), *extra])
        assert code == 0
        return out

    def test_run_outputs(self, tmp_path):
        out = self.run_main(tmp_path, MINIMAL_RUN, "run")
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0] == "trial,winner,winner_accuracy,winner_eps_optimal"
        assert len(rows) == 21
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["success_rate"] <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert set(manifest["outputs"]) == {"results.csv", "summary.json"}

    def test_manifest_checksums_match(self, tmp_path):
        import hashlib

        out = self.run_main(tmp_path, MINIMAL_RUN, "checks")
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_bounds_table_four_rows(self, tmp_path):
        data = {
            "command": "bounds-table",
            "params": {"ns": [10, 100], "epsilons": [0.1, 0.2], "delta": 0.1},
            "seed": 3,
        }
        out = self.run_main(tmp_path, data, "bounds")
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0].startswith("n,epsilon,delta,simple_max,elf,elf_proof,mw,noisy_max")
        assert len(rows) == 5

    def test_lower_bound_demo_orders_mechanisms(self, tmp_path):
        data = {"command": "lower-bound-demo", "params": {"n": 50}, "seed": 5, "trials": 300}
        out = self.run_main(tmp_path, data, "lbd")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["elf_below_simple_max"]
        assert summary["simple_max_success"] == 1.0

    def test_condition_check_command(self, tmp_path):
        data = {
            "command": "condition-check",
            "params": {"regularizer": "l2", "samples": 500, "radius": 5.0, "dim": 3},
            "seed": 6,
        }
        out = self.run_main(tmp_path, data, "cond")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["convexity_witness"] is not None

    def test_condition_check_without_a_finite_ratio_writes_strict_json(self, tmp_path):
        # at this radius every sampled softmax is a point mass, so no point has a finite alpha ratio
        data = {
            "command": "condition-check",
            "params": {"regularizer": "negative_entropy", "samples": 50, "radius": 8.9e307, "dim": 3},
            "seed": 1,
        }
        out = self.run_main(tmp_path, data, "cond-inf")

        def refuse(name):
            raise ValueError(f"summary.json holds {name}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["empirical_alpha"] is None and summary["alpha_witness"] == []
        header, row = (out / "results.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["empirical_alpha"] == ""

    def test_truthfulness_sweep_command(self, tmp_path):
        data = {
            "command": "truthfulness-sweep",
            "mechanism": {"type": "mw", "eta": 0.05},
            "params": {"n": 3, "m": 2, "contexts": 5},
            "seed": 8,
        }
        out = self.run_main(tmp_path, data, "sweep")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gamma_empirical"] <= summary["gamma_theoretical"]
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 6

    def test_online_regret_command(self, tmp_path):
        data = {
            "command": "online-regret",
            "params": {"T": 200, "n": 4},
            "seed": 9,
            "trials": 3,
        }
        out = self.run_main(tmp_path, data, "online")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_within_bound"]

    def test_estimate_complexity_command(self, tmp_path):
        data = {
            "command": "estimate-complexity",
            "mechanism": {"type": "simple_max"},
            "setting": {"generator": "gap", "n": 5, "gap": 0.32, "setting_seed": 11},
            "params": {"epsilon": 0.3, "delta": 0.2},
            "seed": 10,
            "trials": 80,
        }
        out = self.run_main(tmp_path, data, "complexity")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["m_estimate"] >= 1
        assert summary["m_estimate"] <= summary["theoretical_bound"]

    def test_online_myopic_preset_keeps_its_bytes(self, tmp_path):
        # online-regret always played MyopicBestResponse for its third preset;
        # these digests are those of the outputs written for this config with
        # "strategies": "round_local_best_response" before the preset had its
        # own name (numpy 2.4, x86-64)
        data = {"command": "online-regret", "params": {"T": 12, "n": 3, "strategies": "myopic_best_response"},
                "seed": 21, "trials": 2}
        out = self.run_main(tmp_path, data, "myopic")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("results.csv", "summary.json")}
        assert digests == {
            "results.csv": "0a4e837c91756d846b66e6dbabfda9e2afaefb522ce50644aa435fd5fe5373ba",
            "summary.json": "462ab09f4786975b9f651564ede0f1b1794912897aa1177a6225970488047f8d",
        }

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1), "--seed", "123"]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out2), "--seed", "123"]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["master_seed"] == 123


class TestExitCodes:
    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = dict(MINIMAL_RUN, mechanism={"type": "mw", "eta": 0})
        cfg_path = write_config(tmp_path, bad)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert record["violations"]

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "io"

    @pytest.mark.parametrize(
        "flag, value, violation",
        [("--trials", "0", "trials must be >= 1"), ("--threads", "-3", "threads must be >= 1"),
         ("--seed", "-1", "seed must be >= 0")],
    )
    def test_invalid_flag_exit_two(self, tmp_path, capsys, flag, value, violation):
        # flags are merged into the config before it is validated
        cfg_path = write_config(tmp_path, MINIMAL_RUN)
        out = tmp_path / "x"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), flag, value])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert any(violation in v for v in record["violations"])
        assert not out.exists()

    def test_variants_must_be_a_list_of_strings(self, tmp_path, capsys):
        data = {"command": "bounds-table", "params": {"ns": [10], "epsilons": [0.1], "delta": 0.1, "variants": "mw"}}
        code = main(["bounds-table", "--config", str(write_config(tmp_path, data)), "--out", str(tmp_path / "x")])
        assert code == 2
        violations = json.loads(capsys.readouterr().err)["violations"]
        assert violations == ["params.variants must be a list of strings, got 'mw'"]


    @pytest.mark.parametrize(
        "data, violation",
        [
            ({"command": "bounds-table", "params": {"ns": [1], "epsilons": [0.1], "delta": 0.1}},
             "params.ns[0] must be >= 2"),
            (dict(MINIMAL_RUN, setting={"generator": "gap", "n": 3, "m": 4, "gap": 0.9}), "gap must lie in (0, 0.36]"),
            (dict(MINIMAL_RUN, setting={"beliefs": [[0.1, 2.0], [0.3, 0.4]], "theta": [0.5, 0.5]}), "beliefs entries"),
            (with_params(BOUNDS, delta=1.0), "epsilon and delta must lie in (0, 1), got 0.1, 1.0"),
            (with_params(BOUNDS, epsilons=[1.0]), "epsilon and delta must lie in (0, 1), got 1.0, 0.1"),
            (with_params(BOUNDS, gamma=0.5), "gamma must lie in (0, epsilon/14], got 0.5"),
            (with_params(BOUNDS, epsilons=["a"]), "params.epsilons[0] must be a number, got 'a'"),
            (with_params(BOUNDS, gamma="x"), "params.gamma must be a number, got 'x'"),
            # a bound that is not finite used to end in ZeroDivisionError or OverflowError, exit 1
            (with_params(BOUNDS, epsilons=[1e-300]), "the simple_max bound is not finite at n=10, epsilon=1e-300, delta=0.1"),
            (with_params(BOUNDS, epsilons=[1e-160]), "the simple_max bound is not finite at n=10, epsilon=1e-160, delta=0.1"),
            (with_params(BOUNDS, delta=1e-320), "the simple_max bound is not finite at n=10, epsilon=0.1, delta=1e-320"),
            # an n no float holds used to end in OverflowError at n / delta, exit 1
            (with_params(BOUNDS, ns=[10**400]),
             f"n must lie in [2, {sys.float_info.max}] for a float to hold it, got 1000"),
            ({"command": "estimate-complexity", "mechanism": {"type": "simple_max"},
              "setting": {"generator": "gap", "n": 4, "gap": 0.32}, "params": {"epsilon": 0.3, "delta": 1.0}},
             "delta must lie in (0, 1), got 1.0"),
            ({"command": "estimate-complexity", "mechanism": {"type": "mw", "eta": 0.05},
              "setting": {"generator": "gap", "n": 4, "gap": 0.32}, "params": {"epsilon": 0.3, "delta": 1e-320}},
             "the mw bound is not finite at n=4, epsilon=0.3, delta=1e-320"),
            ({"command": "lower-bound-demo", "params": {"n": 2}}, "the scenario needs n >= 3, got 2"),
            ({"command": "online-regret", "params": {"T": 20, "n": 1}}, "the tuned learning rate needs n >= 2"),
            ({"command": "online-regret", "params": {"T": 20, "n": 3, "strategies": "round_local_best_response"}},
             "params.strategies must be one of ['truthful', 'extremizer', 'myopic_best_response']"),
            ({"command": "truthfulness-sweep", "mechanism": {"type": "mw", "eta": 0.05},
              "params": {"n": 1, "m": 2, "contexts": 1}}, "need n >= 2"),
            ({"command": "truthfulness-sweep", "mechanism": {"type": "mw", "eta": 0.05},
              "params": {"n": 3, "m": 30, "contexts": 1}}, "m=30 exceeds the exact enumeration budget 20"),
            ({"command": "condition-check", "params": {"regularizer": "l2", "samples": 5, "radius": 1.0, "dim": 1}},
             "dim must be >= 2, got 1"),
            ({"command": "condition-check", "params": {"regularizer": "l2", "samples": 5, "radius": 1e308}},
             "domain_radius 1e+308 is too large: the sampling box width 2r overflows"),
            (with_params(dict(MINIMAL_RUN, mechanism={"type": "elf"}), strategies="round_local_best_response"),
             "round_local best response needs a regularized-leader mechanism"),
            (with_params(dict(MINIMAL_RUN, mechanism={"type": "ftrl", "eta": 0.05, "regularizer": "l2"}),
                         strategies="round_local_best_response"), "regularizer l2 declares no curvature constants"),
            (with_params(dict(MINIMAL_RUN, mechanism={"type": "mw", "eta": 0.5}), strategies="round_local_best_response"),
             "eta=0.5 violates the per-round optimum precondition"),
            (with_params(MINIMAL_RUN, strategies="truthful", pull=5),
             "pull is read only by the extremizer preset, got strategies 'truthful'"),
            ({"command": "online-regret", "params": {"T": 20, "n": 3, "strategies": "truthful", "pull": -2}},
             "pull is read only by the extremizer preset, got strategies 'truthful'"),
        ],
        ids=["ns-below-two", "gap-beyond-spread", "inline-belief-above-one", "bounds-delta-one", "bounds-epsilon-one",
             "bounds-gamma-too-large", "bounds-epsilon-string", "bounds-gamma-string", "bounds-epsilon-squared-underflows",
             "bounds-bound-overflows", "bounds-n-over-delta-overflows", "bounds-n-beyond-floats", "complexity-delta-one",
             "complexity-bound-overflows", "lower-bound-n-two", "online-n-one", "online-round-local-preset", "sweep-n-one",
             "sweep-m-over-budget", "condition-dim-one", "condition-radius-overflow", "round-local-on-elf", "round-local-on-l2",
             "round-local-eta-too-large", "run-pull-without-extremizer", "online-pull-without-extremizer"],
    )
    def test_library_preconditions_are_config_errors(self, tmp_path, capsys, data, violation):
        out = tmp_path / "x"
        code = main([data["command"], "--config", str(write_config(tmp_path, data)), "--out", str(out)])
        assert code == 2
        violations = json.loads(capsys.readouterr().err)["violations"]
        assert len(violations) == 1 and violation in violations[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, violation",
        [
            (dict(MINIMAL_RUN, mechanism={"type": "noisy_max", "b": math.inf}), "mechanism.b must be finite, got inf"),
            (dict(MINIMAL_RUN, mechanism={"type": "mw", "eta": math.inf}), "mechanism.eta must be finite, got inf"),
            ({"command": "condition-check", "params": {"regularizer": "l2", "samples": 5, "radius": math.inf}},
             "params.radius must be finite, got inf"),
            ({"command": "truthfulness-sweep", "mechanism": {"type": "mw", "eta": math.inf},
              "params": {"n": 3, "m": 2, "contexts": 1}}, "mechanism.eta must be finite, got inf"),
            ({"command": "condition-check", "params": {"regularizer": "l2", "samples": 5, "radius": math.nan}},
             "params.radius must be finite, got nan"),
            (with_params(BOUNDS, epsilons=[-math.inf]), "params.epsilons[0] must be finite, got -inf"),
        ],
        ids=["run-noisy-max-b", "run-mw-eta", "condition-radius", "sweep-mw-eta", "condition-radius-nan",
             "bounds-epsilon-minus-inf"],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, data, violation):
        # json reads Infinity, -Infinity and NaN as floats
        path = write_config(tmp_path, data)
        assert "Infinity" in path.read_text() or "NaN" in path.read_text()
        out = tmp_path / "x"
        assert main([data["command"], "--config", str(path), "--out", str(out)]) == 2
        violations = json.loads(capsys.readouterr().err)["violations"]
        assert violations == [violation]
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, violations",
        [
            (with_params(dict(MINIMAL_RUN, mechanism={"type": "mw", "eta": 1e308}), epsilon=2.0),
             ["mechanism.eta = 1e+308 is too large for m = 4: eta * m overflows",
              "params.epsilon must be <= 1.0, got 2.0"]),
            ({"command": "truthfulness-sweep", "mechanism": {"type": "ftrl", "eta": 1e308},
              "params": {"n": 3, "m": 2, "contexts": 2}},
             ["mechanism.eta = 1e+308 is too large for m = 2: eta * m overflows"]),
            ({"command": "estimate-complexity", "mechanism": {"type": "mw", "eta": 1e303},
              "setting": {"generator": "perfect_vs_terrible", "n": 3}, "params": {"epsilon": 0.3, "delta": 0.1}},
             ["mechanism.eta = 1e+303 is too large for m = 1048576: eta * m overflows"]),
            ({"command": "online-regret", "params": {"T": 10, "n": 3, "eta": 1e308}},
             ["params.eta = 1e+308 is too large for T = 10: eta * T overflows"]),
        ],
        ids=["run", "sweep", "complexity-m-cap", "online"],
    )
    def test_learning_rates_whose_scaled_totals_overflow_are_config_errors(self, tmp_path, capsys, data, violations):
        # a finite eta whose eta * m overflows made run exit 1 and the sweep fail an assert
        out = tmp_path / "x"
        assert main([data["command"], "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 2
        assert sorted(json.loads(capsys.readouterr().err)["violations"]) == sorted(violations)
        assert not out.exists()


class TestRunTrials:
    @pytest.mark.parametrize(
        "mechanism, strategies",
        [({"type": "mw", "eta": 0.05}, "round_local_best_response"), ({"type": "elf"}, "extremizer"),
         ({"type": "noisy_max", "b": 4.0}, "truthful")],
        ids=["mw-round-local", "elf-extremizer", "noisy-max"],
    )
    def test_rows_equal_per_trial_competition_winners(self, tmp_path, mechanism, strategies):
        # run builds the reports once; trial k must still pick the winner of
        # run_competition_trial at seed derive_seed(master, 5, k)
        from forecastcomp.cli import _build_mechanism, _build_setting, _build_strategies
        from forecastcomp.experiments import derive_seed, run_competition_trial

        data = dict(MINIMAL_RUN, mechanism=mechanism, params={"epsilon": 0.5, "strategies": strategies})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out), "--threads", "2"]) == 0
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
        setting = _build_setting(data["setting"], 7)
        mech = _build_mechanism(mechanism, setting.n)
        strats = _build_strategies(data["params"], setting.n)
        expected = [run_competition_trial(setting, strats, mech, derive_seed(7, 5, k)).winner for k in range(20)]
        assert [int(r[1]) for r in rows] == expected


class TestDeterminismAcrossThreads:
    @pytest.mark.parametrize(
        "data",
        [
            MINIMAL_RUN,
            {
                "command": "lower-bound-demo",
                "params": {"n": 20},
                "seed": 13,
                "trials": 100,
            },
            {
                "command": "estimate-complexity",
                "mechanism": {"type": "simple_max"},
                "setting": {"generator": "gap", "n": 4, "gap": 0.32, "setting_seed": 3},
                "params": {"epsilon": 0.3, "delta": 0.2},
                "seed": 14,
                "trials": 60,
            },
        ],
        ids=["run", "lower-bound-demo", "estimate-complexity"],
    )
    def test_threads_do_not_change_outputs(self, tmp_path, data):
        cfg_path = write_config(tmp_path, data)
        outputs = {}
        for threads in (1, 8):
            out = tmp_path / f"t{threads}"
            code = main(
                [data["command"], "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]
            )
            assert code == 0
            outputs[threads] = (
                (out / "results.csv").read_bytes(),
                (out / "summary.json").read_bytes(),
            )
        assert outputs[1] == outputs[8]


# The config boundary: each drawn config is a valid-looking one with up to
# two keys replaced by an edge value (or removed).  The edge values are tried
# for every key, beside the numbers just outside the library's bounds on it.
EDGES = [0, 1, 1.0, -1, "x", True, []]
# key -> (valid values, values just outside a library bound)
VALUES = {
    "seed": ([0, 3], []),
    "trials": ([1, 3], []),
    "mechanism.eta": ([0.05, 0.2, 5.0], [0.0, -0.01, 1 / 3]),
    "mechanism.b": ([4.0, 40.0], [3.999]),
    "mechanism.regularizer": (["negative_entropy", "l2"], []),
    "mechanism.g": (["scaled_quadratic"], []),
    "setting.n": ([2, 3, 4], [1]),
    "setting.m": ([1, 4], [0]),
    "setting.setting_seed": ([0, 5], []),
    "setting.gap": ([0.1, 0.36], [0.0, 0.3601]),
    "setting.epsilon": ([0.05, 0.18], [0.0, 0.1801]),
    "setting.theta_low": ([0.1, 0.2], [0.5]),
    "params.epsilon": ([0.1, 0.5, 1.0], [0.0, 1.0000001]),
    "params.delta": ([0.1, 0.5], [0.0, 1.0]),
    "params.strategies": (["truthful", "extremizer", "round_local_best_response", "myopic_best_response"], []),
    "params.pull": ([0.0, 0.3], [-0.01, 1.01]),
    "params.m_cap": ([1, 2, 4], []),
    "params.n": ([2, 3, 4], [1]),
    "params.m": ([1, 2], [21]),
    "params.contexts": ([1], []),
    "params.T": ([1, 8, 10], []),
    "params.eta": (["auto", 0.05], [0.0, -0.01]),
    "params.regularizer": (["negative_entropy", "l2"], []),
    "params.samples": ([1, 5], []),
    "params.radius": ([0.5, 2.0], [0.0]),
    "params.dim": ([2, 3], [1]),
    "params.ns": ([[2, 10], [3]], [[1], [2.5]]),
    "params.epsilons": ([[0.1], [0.2, 0.5]], [[1.0], ["a"]]),
    "params.variants": ([["mw", "noisy_max"], ["elf", "elf_proof"], ["simple_max"]], [["bogus"], "mw"]),
    "params.gamma": ([0.001], [0.1 / 14 + 1e-9, 0.0]),
}
MECHANISM_KEYS = {"simple_max": (), "elf": (), "mw": ("eta",), "ftrl": ("eta", "regularizer"), "noisy_max": ("b",),
                  "point_per_round": ("g",)}
GENERATOR_KEYS = {"random": (), "perfect_vs_terrible": (), "gap": ("gap", "theta_low"),
                  "near_tie": ("epsilon", "theta_low"), "identical": ()}
INLINE = {"beliefs": [[0.2, 0.9], [0.6, 0.1], [0.5, 0.5]], "theta": [0.3, 0.8]}
# command -> (its sections, required params, optional params); m_cap is
# always given, so that each search stays tiny
COMMANDS = {
    "run": (("mechanism", "setting"), ("epsilon",), ("strategies", "pull")),
    "estimate-complexity": (("mechanism", "setting"), ("epsilon", "delta", "m_cap"), ("strategies", "pull")),
    "truthfulness-sweep": (("mechanism",), ("n", "m", "contexts"), ()),
    "online-regret": ((), ("T", "n"), ("eta", "strategies", "pull")),
    "lower-bound-demo": ((), ("n",), ()),
    "condition-check": ((), ("regularizer", "samples", "radius"), ("dim",)),
    "bounds-table": ((), ("ns", "epsilons", "delta"), ("variants", "gamma")),
}


@st.composite
def configs(draw):
    def valid(path):
        return draw(st.sampled_from(VALUES[path][0]))

    command = draw(st.sampled_from(sorted(COMMANDS)))
    sections, required, optional = COMMANDS[command]
    params = {k: valid(f"params.{k}") for k in (*required, *optional) if k in required or draw(st.booleans())}
    data = {"command": command, "seed": valid("seed"), "trials": valid("trials"), "params": params}
    if "mechanism" in sections:
        mtype = draw(st.sampled_from(sorted(MECHANISM_KEYS)))
        data["mechanism"] = {"type": mtype, **{k: valid(f"mechanism.{k}") for k in MECHANISM_KEYS[mtype]}}
    if "setting" in sections:
        if draw(st.integers(0, 5)) == 0:
            data["setting"] = dict(INLINE)
        else:
            generator = draw(st.sampled_from(sorted(GENERATOR_KEYS)))
            keys = ("n", "m", "setting_seed", *GENERATOR_KEYS[generator])
            data["setting"] = {"generator": generator, **{k: valid(f"setting.{k}") for k in keys}}
    given = sorted(f"{section}.{k}" for section in ("mechanism", "setting", "params") for k in data.get(section, ()))
    for _ in range(draw(st.integers(0, 2))):
        # mostly a key the config has; else any key, which may be unknown here
        keys = [*given, "seed", "trials"] if draw(st.integers(0, 4)) else sorted(VALUES)
        path = draw(st.sampled_from([k for k in keys if k in VALUES]))
        section, _, name = path.rpartition(".")
        target = data.get(section, {}) if section else data
        if draw(st.integers(0, 4)):
            target[name] = draw(st.sampled_from([*VALUES[path][1], *EDGES]))
        else:
            target.pop(name, None)
        if section:
            data[section] = target
    # a removed trials or m_cap would mean the default, a large run
    data.setdefault("trials", 1)
    if command == "estimate-complexity":
        data["params"].setdefault("m_cap", 1)
    return data


class TestConfigBoundary:
    # drawn learning rates outside the truthfulness band warn, as they should
    @pytest.mark.filterwarnings("ignore:eta=.* is outside the approximate-truthfulness range")
    @settings(max_examples=1000, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(configs())
    def test_every_config_is_rejected_or_runs(self, data):
        # a config the parser accepts must not meet a ValueError or TypeError
        # of the library in its run; a RuntimeError is a run outcome
        try:
            cfg = parse_config(json.dumps(data))
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as out:
            try:
                dispatch(cli.ExperimentConfig(**{**vars(cfg), "out": out}))
            except RuntimeError:
                pass


def test_readme_grammar_matches_the_cli_tables():
    # README's config grammar is the CLI's tables, written out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    grammar = readme[readme.index("### Config grammar") : readme.index("### `results.csv` schemas")]

    def choices(key):
        line = next(line for line in grammar.splitlines() if f'"{key}": "' in line)
        return re.findall(r'"(\w+)"', line.split(f'"{key}":')[1])

    assert choices("type") == list(cli._MECHANISMS)
    assert choices("generator") == list(cli._GENERATORS)
    rows = [line.split("|")[1:-1] for line in grammar.splitlines() if line.startswith("| ")][1:]
    table = {
        cells[0].strip(): (
            tuple(s.strip() for s in cells[1].split(",") if s.strip()),
            *(tuple(re.findall(r"`(\w+)`", cell)) for cell in cells[2:]),
        )
        for cells in rows
    }
    assert table == {
        name: (c.sections, c.required, c.optional, c.presets) for name, c in cli._COMMANDS.items()
    }
    assert {p for c in cli._COMMANDS.values() for p in c.presets} == set(cli._PRESETS)
