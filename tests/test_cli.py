import copy
import json
import os
import pathlib
import subprocess
import sys

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

    def test_integer_past_digit_limit_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SOLVE_CONFIG).replace('"N": 20', '"N": ' + "9" * 5000))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2

    def test_unknown_warm_start_is_config_error(self, tmp_path):
        payload = json.loads(json.dumps(SOLVE_CONFIG))
        payload["picard"]["warm_start"] = "bogus"
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2


MINIMAL_CONFIG = json.loads((pathlib.Path(__file__).parents[1] / "configs" / "minimal_tree.json").read_text())
CONSTANTS_CONFIG = {"mode": "constants", "mode_params": {"C": 1.0, "C1": 0.0, "L": 1.0, "T": 0.5, "delta": 0.25}}
VALIDATE_G_CONFIG = {"mode": "validate-G", "grid": {"T": 1.0, "delta": 0.5, "N": 20, "M": 10}}
REGRESSION_CONFIG = dict(
    SOLVE_CONFIG,
    backend={"kind": "regression", "basis": {"kind": "state", "degree": 2, "ridge": 0.0}},
    ensemble={"paths": 500, "d": 1, "seed": 7},
)


def _edit(base, path, value):
    """base with the value at path (a tuple of keys) replaced; missing sections are created."""
    payload = copy.deepcopy(base)
    node = payload
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return payload


# Inputs that a looser resolver crashes on (exit 1 from a TypeError, ValueError or
# AttributeError), coerces or drops (exit 0), or rejects late (exit 3); each must exit 2.
MALFORMED = [
    # numbers given as strings, bools or null
    ("grid.T=str-nan", SOLVE_CONFIG, ("grid", "T"), "nan"),
    ("grid.T=str", SOLVE_CONFIG, ("grid", "T"), "0.5"),
    ("grid.delta=str", SOLVE_CONFIG, ("grid", "delta"), "0.25"),
    ("state.sigma=str", SOLVE_CONFIG, ("state", "sigma"), "1"),
    ("state.x0=null", SOLVE_CONFIG, ("state", "x0"), None),
    ("delays.mu.value=str", SOLVE_CONFIG, ("delays", "mu", "value"), "0.25"),
    ("generator.params.c=str", SOLVE_CONFIG, ("generator", "params", "c"), "0.3"),
    ("generator.params.c=true", SOLVE_CONFIG, ("generator", "params", "c"), True),
    ("generator.params.c=null", SOLVE_CONFIG, ("generator", "params", "c"), None),
    ("obstacle.params.a=str", SOLVE_CONFIG, ("obstacle", "params", "a"), "x"),
    ("obstacle.params.a=str-num", SOLVE_CONFIG, ("obstacle", "params", "a"), "1.4"),
    ("obstacle.params.a=true", SOLVE_CONFIG, ("obstacle", "params", "a"), True),
    ("terminal.params.value=str", SOLVE_CONFIG, ("terminal", "params", "value"), "1.0"),
    ("resistance.eps=str", SOLVE_CONFIG, ("resistance", "eps"), "0.1"),
    ("resistance.declared_L2_lipschitz_C1=str", VALIDATE_G_CONFIG, ("resistance", "declared_L2_lipschitz_C1"), "abc"),
    ("picard.tol=str", SOLVE_CONFIG, ("picard", "tol"), "1e-12"),
    ("basis.ridge=str", REGRESSION_CONFIG, ("backend", "basis", "ridge"), "0.0"),
    ("mode_params.step=str", MINIMAL_CONFIG, ("mode_params", "step"), "0.02"),
    ("constants.C=str", CONSTANTS_CONFIG, ("mode_params", "C"), "1"),
    ("constants.C=true", CONSTANTS_CONFIG, ("mode_params", "C"), True),
    ("constants.C=null", CONSTANTS_CONFIG, ("mode_params", "C"), None),
    # booleans given as strings or numbers (bool() made "no" and "false" true)
    ("declared_monotone=no", SOLVE_CONFIG, ("resistance", "declared_monotone"), "no"),
    ("declared_monotone=false-str", VALIDATE_G_CONFIG, ("resistance", "declared_monotone"), "false"),
    ("declared_monotone=0", SOLVE_CONFIG, ("resistance", "declared_monotone"), 0),
    # sections and lists of the wrong JSON type
    ("grid=int", SOLVE_CONFIG, ("grid",), 3),
    ("state=list", SOLVE_CONFIG, ("state",), []),
    ("backend=str", SOLVE_CONFIG, ("backend",), "tree"),
    ("resistance=list", SOLVE_CONFIG, ("resistance",), []),
    ("picard=list", SOLVE_CONFIG, ("picard",), []),
    ("generator=null", SOLVE_CONFIG, ("generator",), None),
    ("delays.mu=str", SOLVE_CONFIG, ("delays", "mu"), "x"),
    ("basis=list", REGRESSION_CONFIG, ("backend", "basis"), []),
    ("constants.grid=int", CONSTANTS_CONFIG, ("grid",), 3),
    ("generator.params=list", SOLVE_CONFIG, ("generator", "params"), [1]),
    ("terminal.params=list", SOLVE_CONFIG, ("terminal", "params"), [1]),
    ("generator.name=list", SOLVE_CONFIG, ("generator", "name"), ["zero"]),
    ("obstacle.form=list", SOLVE_CONFIG, ("obstacle", "form"), ["affine"]),
    ("terminal.coeffs=int", SOLVE_CONFIG, ("terminal",), {"form": "state-poly", "params": {"coeffs": 3}}),
    ("terminal.coeffs=str", SOLVE_CONFIG, ("terminal",), {"form": "state-poly", "params": {"coeffs": ["a"]}}),
    ("mode_params.n_list=int", MINIMAL_CONFIG, ("mode_params", "n_list"), 3),
    ("mode_params.n_list=str", MINIMAL_CONFIG, ("mode_params", "n_list"), ["2"]),
    ("mode_params.box=list", MINIMAL_CONFIG, ("mode_params", "box"), [1]),
    ("mode_params.box.y=int", MINIMAL_CONFIG, ("mode_params", "box", "y"), 3),
    ("mode_params.box.y=short", MINIMAL_CONFIG, ("mode_params", "box", "y"), [1.0]),
    ("mode_params.box.y=long", MINIMAL_CONFIG, ("mode_params", "box", "y"), [-150.0, 150.0, 3.0]),
    ("config_hash=int", SOLVE_CONFIG, ("config_hash",), 3),
    # keys that do not exist, or belong to the other form
    ("terminal.params.valu", SOLVE_CONFIG, ("terminal", "params"), {"valu": 1.0}),
    ("delays.mu=affine+value", SOLVE_CONFIG, ("delays", "mu"), {"form": "affine", "a": 0.25, "b": 0.0, "value": 0.25}),
    ("delays.mu=constant+a", SOLVE_CONFIG, ("delays", "mu"), {"form": "constant", "value": 0.25, "a": 1.0}),
    ("delays.mu=constant+b", SOLVE_CONFIG, ("delays", "mu"), {"form": "constant", "value": 0.25, "b": 0.0}),
    # out-of-range values that raised inside numpy or math, or passed vacuously
    ("ensemble.seed=-1", REGRESSION_CONFIG, ("ensemble", "seed"), -1),
    ("validate-G.seed=-1", VALIDATE_G_CONFIG, ("mode_params", "seed"), -1),
    ("validate-G.trials=0", VALIDATE_G_CONFIG, ("mode_params", "trials"), 0),
    ("generator.params.cap=-1", MINIMAL_CONFIG, ("generator", "params", "cap"), -1.0),
    # Picard bounds
    ("picard.tol=0", SOLVE_CONFIG, ("picard", "tol"), 0.0),
    ("picard.tol=negative", SOLVE_CONFIG, ("picard", "tol"), -1e-12),
    ("picard.max_iter=0", SOLVE_CONFIG, ("picard", "max_iter"), 0),
    # ranges the library also checks, which exited 3 when only it did
    ("constants.C=-1", CONSTANTS_CONFIG, ("mode_params", "C"), -1.0),
    ("mode_params.n_list=one-level", MINIMAL_CONFIG, ("mode_params", "n_list"), [2.0]),
    ("mode_params.n_list=decreasing", MINIMAL_CONFIG, ("mode_params", "n_list"), [4.0, 2.0]),
    # search-box entries the driver does not read, which were dropped silently (exit 0)
    ("mode_params.box.foo", MINIMAL_CONFIG, ("mode_params", "box", "foo"), [-1.0, 1.0]),
    ("mode_params.box.theta=inverted", MINIMAL_CONFIG, ("mode_params", "box", "theta"), [5.0, 1.0]),
]


@pytest.mark.parametrize(
    "base, path, value", [pytest.param(*case[1:], id=case[0]) for case in MALFORMED]
)
def test_malformed_input_exits_two(tmp_path, capsys, base, path, value):
    cfg = write_config(tmp_path, _edit(base, path, value))
    assert main(["run", cfg, "-o", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


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

    def test_tree_replay_does_not_depend_on_blas_threads(self, tmp_path):
        # every lattice E_i is a BLAS dot product; fresh processes pin the thread count
        def rabsde(threads, *args):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
            return subprocess.run([sys.executable, "-m", "rabsde.cli", *args], capture_output=True, text=True, env=env)

        out = tmp_path / "out"
        run = rabsde(1, "run", str(pathlib.Path(__file__).parents[1] / "configs" / "solve_tree.json"), "-o", str(out))
        assert run.returncode == 0, run.stderr
        replay = rabsde(2, "replay", str(out))
        assert replay.returncode == 0, replay.stdout + replay.stderr
        assert "replay ok" in replay.stdout

    @pytest.fixture
    def nonconverged_run(self, tmp_path):
        payload = json.loads((pathlib.Path(__file__).parents[1] / "configs" / "solve_tree.json").read_text())
        payload["generator"]["params"]["c1"] = 0.5
        payload["picard"]["max_iter"] = 2
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, payload), "-o", str(out)]) == 4
        return out

    def test_replay_of_nonconverged_run_compares_artifacts(self, nonconverged_run, capsys):
        assert main(["replay", str(nonconverged_run)]) == 0
        assert "replay ok: 3 artifacts identical" in capsys.readouterr().out

    def test_replay_of_nonconverged_run_detects_trace_edit(self, nonconverged_run, capsys):
        trace = nonconverged_run / "picard_trace.csv"
        trace.write_text(trace.read_text().replace(",", ";", 1))
        assert main(["replay", str(nonconverged_run)]) == 5
        assert "mismatch in picard_trace.csv" in capsys.readouterr().out


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
