import json

import pytest

from rabsde.cli import main
from rabsde.config import config_hash, resolve_config


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SOLVE_CONFIG = {
    "mode": "solve",
    "grid": {"T": 0.5, "delta": 0.25, "N": 20, "M": 10},
    "delays": {
        "mu": {"form": "constant", "value": 0.25},
        "nu": {"form": "constant", "value": 0.25},
        "eps": {"form": "constant", "value": 0.1},
    },
    "generator": {"name": "resistance_linear", "params": {"c": 0.3, "c1": 0.0015}},
    "resistance": {"kind": "lagged_value", "eps": 0.1},
    "obstacle": {"form": "affine", "params": {"a": 1.4, "b": -0.8}},
    "terminal": {"form": "constant", "params": {"value": 1.0}},
    "backend": {"kind": "tree"},
    "picard": {"tol": 1e-22, "max_iter": 15},
}


class TestConstantsMode:
    def test_prints_formulas(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "mode": "constants",
            "mode_params": {"C": 1.0, "C1": 0.0, "L": 1.0, "T": 1.0, "delta": 0.0},
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "lambda=48.0" in captured
        assert "beta=50.0" in captured
        payload = json.loads((out / "constants.json").read_text())
        assert payload["lambda"] == 48.0
        assert payload["beta"] == 50.0


class TestValidateGMode:
    def test_builtin_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "mode": "validate-G",
            "grid": {"T": 1.0, "delta": 0.5, "N": 16, "M": 8},
            "resistance": {"kind": "running_sup_window"},
            "mode_params": {"trials": 200, "seed": 1},
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        payload = json.loads((out / "g_checks.json").read_text())
        assert payload["nonanticipation"]["passed"]
        assert payload["sup_lipschitz"]["passed"]
        assert "all_passed=True" in capsys.readouterr().out


class TestSolveMode:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "converged=True" in captured
        assert "guarantee=ok" in captured
        assert (out / "solution.csv").exists()
        assert (out / "picard_trace.csv").exists()
        header = (out / "solution.csv").read_text().splitlines()
        assert header[0] == "# rabsde-solution v1"
        assert header[2].startswith("path,time_index,Y,Z_1,K")

    def test_guarantee_void_still_runs(self, tmp_path, capsys):
        cfg_payload = json.loads(json.dumps(SOLVE_CONFIG))
        cfg_payload["generator"]["params"]["c1"] = 0.05
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        assert "guarantee=void" in capsys.readouterr().out

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg_payload = json.loads(json.dumps(SOLVE_CONFIG))
        cfg_payload["picard"] = {"tol": 1e-300, "max_iter": 3}
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 4
        assert (out / "picard_trace.csv").exists()

    def test_regression_backend(self, tmp_path, capsys):
        cfg_payload = json.loads(json.dumps(SOLVE_CONFIG))
        cfg_payload["backend"] = {"kind": "regression", "basis": {"degree": 2}}
        cfg_payload["ensemble"] = {"paths": 2000, "d": 1, "seed": 7}
        cfg_payload["picard"] = {"tol": 1e-18, "max_iter": 12}
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        assert "converged=True" in capsys.readouterr().out


class TestCompareMode:
    def test_all_fixtures(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "compare", "mode_params": {"fixture": "all"}})
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        payload = json.loads((out / "comparison_report.json").read_text())
        assert len(payload) >= 5
        assert all(rep["passed"] for rep in payload.values())

    def test_unknown_fixture(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "compare", "mode_params": {"fixture": "nope"}})
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["surprise"] = 1
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["grid"]["extra"] = 2
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2

    def test_bad_grid_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["grid"] = {"T": 1.0, "delta": 0.3, "N": 10, "M": 5}
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2

    def test_validation_failure_exit_three(self, tmp_path):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["obstacle"] = {"form": "constant", "params": {"level": 5.0}}  # above xi at T
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 3

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json"), "-o", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("section", ["generator", "obstacle"])
    def test_unknown_param_is_config_error(self, tmp_path, section):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload[section]["params"]["bogus"] = 1.0
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_is_config_error(self, tmp_path, value):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["grid"]["T"] = value  # json.dumps writes NaN / Infinity
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2

    def test_fractional_integer_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["grid"]["N"] = 20.7
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2

    def test_unknown_warm_start_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["picard"]["warm_start"] = "bogus"
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2


class TestConfigRoundTrip:
    def test_echo_reparses_identically(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        echo = json.loads((out / "resolved_config.json").read_text())
        resolved_again = resolve_config(echo)
        stripped = {k: v for k, v in echo.items() if k != "config_hash"}
        assert resolved_again == stripped
        assert config_hash(resolved_again) == echo["config_hash"]


class TestReplay:
    def test_replay_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLVE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        assert main(["replay", str(out)]) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_replay_detects_seed_edit(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["backend"] = {"kind": "regression", "basis": {"degree": 2}}
        payload["ensemble"] = {"paths": 1500, "d": 1, "seed": 7}
        payload["picard"] = {"tol": 1e-18, "max_iter": 12}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        echo_path = out / "resolved_config.json"
        echo = json.loads(echo_path.read_text())
        echo["ensemble"]["seed"] = 8
        echo_path.write_text(json.dumps(echo, sort_keys=True, separators=(",", ":")) + "\n")
        assert main(["replay", str(out)]) == 5
        assert "mismatch" in capsys.readouterr().out


class TestSandwichMinimalModes:
    def test_sandwich_mode(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["mode"] = "sandwich"
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        rep = json.loads((out / "sandwich_report.json").read_text())
        assert rep["passed"]

    def test_minimal_mode(self, tmp_path, capsys):
        payload = {
            "mode": "minimal",
            "grid": {"T": 0.8, "delta": 0.4, "N": 20, "M": 10},
            "delays": {
                "mu": {"form": "constant", "value": 0.4},
                "nu": {"form": "constant", "value": 0.4},
                "eps": {"form": "constant", "value": 0.1},
            },
            "generator": {"name": "truncated_quadratic", "params": {"cap": 30.0, "c1": 0.0}},
            "resistance": {"kind": "lagged_value", "eps": 0.1},
            "obstacle": {"form": "affine", "params": {"a": 3.5, "b": -3.2}},
            "terminal": {"form": "constant", "params": {"value": 1.0}},
            "backend": {"kind": "tree"},
            "picard": {"tol": 1e-22, "max_iter": 15},
            "mode_params": {
                "n_list": [2.0, 4.0, 8.0, 16.0],
                "box": {"y": [-150.0, 150.0]},
                "step": 0.02,
            },
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "-o", str(out)]) == 0
        rep = json.loads((out / "minimal_report.json").read_text())
        assert rep["passed"]
        assert rep["successive_gaps"][0] > rep["successive_gaps"][1] > rep["successive_gaps"][2]
        assert (out / "solution.csv").exists()
