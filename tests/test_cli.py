"""CLI: config validation, dispatch, output files, and determinism."""

import json

import pytest

from forecastcomp.cli import ConfigError, main, parse_config, serialize_config


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
        ],
        ids=["ns-below-two", "gap-beyond-spread", "inline-belief-above-one"],
    )
    def test_library_preconditions_are_config_errors(self, tmp_path, capsys, data, violation):
        out = tmp_path / "x"
        code = main([data["command"], "--config", str(write_config(tmp_path, data)), "--out", str(out)])
        assert code == 2
        violations = json.loads(capsys.readouterr().err)["violations"]
        assert len(violations) == 1 and violation in violations[0]
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
