"""Experiment runner tests: exit-code contract, validation, reproducibility.

Slow experiments run here with shortened overrides; the full-default runs
live in the acceptance suite.
"""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from jsonschema import Draft202012Validator

import hamlab
from hamlab import kdv, line
from hamlab.cli import EXPERIMENTS, _config_schema, list_experiments_text, load_config, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hamlab.__file__)))

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, *extra):
    cfg = write_config(tmp_path, payload)
    return main(["run", cfg, "--output-dir", str(tmp_path / "out"), *extra])


def load_report(tmp_path, experiment):
    with open(tmp_path / "out" / experiment / "report.json") as fh:
        return json.load(fh)


class TestListExperiments:
    def test_eight_rows_sorted(self, capsys):
        assert main(["list-experiments"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [ln.split()[0] for ln in lines[1:]]
        assert len(names) == 8
        assert names == sorted(names)

    def test_topic_tags_present(self):
        text = list_experiments_text()
        for tag in ("finite-string", "infinite-string", "kdv"):
            assert tag in text

    def test_registry_matches_closed_set(self):
        assert set(EXPERIMENTS) == {
            "string-modes",
            "string-hj",
            "string-completeness",
            "line-gseries",
            "line-velocity-moments",
            "kdv-conservation",
            "kdv-scattering",
            "kdv-action-hamiltonian",
        }


class TestConfigValidation:
    def test_negative_dt_exits_2(self, tmp_path):
        code = run_cli(tmp_path, {"experiment": "kdv-conservation", "parameters": {"dt": -1e-4}})
        assert code == 2

    def test_zero_tolerance_exits_2(self, tmp_path):
        code = run_cli(
            tmp_path, {"experiment": "kdv-conservation", "parameters": {"drift_tol": 0.0}}
        )
        assert code == 2

    def test_unknown_parameter_exits_2(self, tmp_path):
        code = run_cli(tmp_path, {"experiment": "string-hj", "parameters": {"bogus": 1}})
        assert code == 2

    def test_unknown_top_level_key_exits_2(self, tmp_path):
        code = run_cli(tmp_path, {"experiment": "string-hj", "extra": True})
        assert code == 2

    def test_unknown_experiment_exits_2(self, tmp_path):
        assert run_cli(tmp_path, {"experiment": "string-everything"}) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": ')
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_out_of_range_remove_exits_2(self, tmp_path):
        code = run_cli(
            tmp_path,
            {"experiment": "string-completeness", "parameters": {"remove": [9]}},
        )
        assert code == 2

    def test_float_integer_exits_2(self, tmp_path, capsys):
        # JSON Schema counts 8.0 as an integer; the runners need an int
        code = run_cli(tmp_path, {"experiment": "string-modes", "parameters": {"n_modes": 8.0}})
        assert code == 2
        assert "n_modes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "token,experiment,name",
        [
            ("NaN", "string-modes", "drift_tol"),
            ("Infinity", "line-velocity-moments", "energy_tol"),
            ("-Infinity", "kdv-conservation", "t_final"),
            ("NaN", "string-completeness", "fd_step"),
        ],
    )
    def test_non_json_constant_exits_2(self, tmp_path, capsys, token, experiment, name):
        # Python's json module would read these; they are not JSON
        path = tmp_path / "config.json"
        path.write_text(f'{{"experiment": "{experiment}", "parameters": {{"{name}": {token}}}}}')
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        assert token in capsys.readouterr().err
        assert not (out / experiment / "report.json").exists()

    @pytest.mark.parametrize(
        "experiment", ["kdv-conservation", "kdv-scattering", "kdv-action-hamiltonian"]
    )
    def test_grid_size_not_power_of_two_exits_2(self, tmp_path, capsys, experiment):
        assert run_cli(tmp_path, {"experiment": experiment, "parameters": {"M": 500}}) == 2
        assert "power of two" in capsys.readouterr().err
        assert not (tmp_path / "out" / experiment / "report.json").exists()

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        cfg = write_config(tmp_path, {"experiment": "string-hj"})
        assert main(["run", cfg, "--output-dir", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert str(blocker / "string-hj") in err
        assert "Traceback" not in err

    def test_unwritable_artifact_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "out" / "string-hj" / "hj_error.csv"
        blocker.mkdir(parents=True)
        assert run_cli(tmp_path, {"experiment": "string-hj", "parameters": {"samples": 3}}) == 2
        err = capsys.readouterr().err
        assert f"cannot write artifact {blocker}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("experiment", ["string-hj", "kdv-conservation"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, experiment):
        # --seed follows the config seed's rule, for experiments without a seed too
        with pytest.raises(SystemExit) as exit_info:
            run_cli(tmp_path, {"experiment": experiment}, "--seed", "-5")
        assert exit_info.value.code == 2
        assert "argument --seed: must be >= 0, got -5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removing_every_mode_exits_2(self, tmp_path, capsys):
        code = run_cli(
            tmp_path,
            {"experiment": "string-completeness", "parameters": {"n_modes": 3, "remove": [1, 2, 3]}},
        )
        assert code == 2
        assert "remove" in capsys.readouterr().err

    def test_reversed_k_range_exits_2(self, tmp_path, capsys):
        code = run_cli(
            tmp_path,
            {
                "experiment": "kdv-scattering",
                "parameters": {"k_min": 3.0, "k_max": 0.5, "t_final": 1e-3, "dt": 5e-4},
            },
        )
        assert code == 2
        assert "k_grid" in capsys.readouterr().err

    def test_schemas_are_valid_against_the_metaschema(self):
        for name in EXPERIMENTS:
            Draft202012Validator.check_schema(_config_schema(name))

    def test_load_config_round_trip(self, tmp_path):
        cfg_path = write_config(
            tmp_path, {"experiment": "string-hj", "parameters": {"samples": 5}}
        )
        cfg = load_config(cfg_path)
        assert cfg["parameters"]["samples"] == 5


class TestRunPaths:
    def test_string_completeness_default_passes(self, tmp_path):
        assert run_cli(tmp_path, {"experiment": "string-completeness"}) == 0
        report = load_report(tmp_path, "string-completeness")
        names = [c["name"] for c in report["checks"]]
        assert names == ["involution-max", "expects-complete"]
        assert report["overall_pass"] is True

    def test_removed_energy_marks_incomplete(self, tmp_path):
        code = run_cli(
            tmp_path, {"experiment": "string-completeness", "parameters": {"remove": [1]}}
        )
        assert code == 0
        report = load_report(tmp_path, "string-completeness")
        check = {c["name"]: c for c in report["checks"]}["expects-incomplete"]
        assert check["pass"] is True
        assert check["value"] == 7.0

    def test_kdv_conservation_short_run_passes(self, tmp_path):
        code = run_cli(
            tmp_path,
            {"experiment": "kdv-conservation", "parameters": {"t_final": 0.05, "n_samples": 3}},
        )
        assert code == 0
        report = load_report(tmp_path, "kdv-conservation")
        assert len(report["checks"]) == 5
        assert (tmp_path / "out" / "kdv-conservation" / "conserved.csv").exists()
        assert (tmp_path / "out" / "kdv-conservation" / "field.csv").exists()

    def test_failed_check_exits_1(self, tmp_path):
        code = run_cli(
            tmp_path,
            {
                "experiment": "kdv-conservation",
                "parameters": {"t_final": 0.02, "n_samples": 2, "drift_tol": 1e-16},
            },
        )
        assert code == 1
        assert load_report(tmp_path, "kdv-conservation")["overall_pass"] is False

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        code = run_cli(
            tmp_path,
            {
                "experiment": "kdv-conservation",
                "parameters": {"dt": 0.05, "t_final": 5.0, "n_samples": 2},
            },
        )
        assert code == 3
        assert "BlowUpError" in capsys.readouterr().err
        report = load_report(tmp_path, "kdv-conservation")
        assert report["overall_pass"] is False
        assert report["checks"] == []
        error = report["error"]
        assert error["type"] == "BlowUpError"
        assert error["start_time"] == 0.0
        assert error["step"] >= 1
        assert error["last_time"] == pytest.approx(0.05 * (error["step"] - 1))
        assert "kdv_evolve call that began at t=0" in error["message"]
        assert any("stability guard" in w for w in report["warnings"])

    def test_verlet_blow_up_exits_3(self, tmp_path, capsys):
        # dt * n > 2 for the upper modes: the Verlet step is unstable there
        dt = 0.5
        code = run_cli(
            tmp_path, {"experiment": "string-modes", "parameters": {"dt": dt, "steps": 20000}}
        )
        assert code == 3
        assert "BlowUpError" in capsys.readouterr().err
        report = load_report(tmp_path, "string-modes")
        assert report["overall_pass"] is False
        error = report["error"]
        assert error["type"] == "BlowUpError"
        assert error["stepper"] == "evolve"
        assert error["start_time"] == 0.0
        assert 1 < error["step"] < 20000
        assert error["last_time"] == dt * (error["step"] - 1)

    def test_strict_turns_warning_into_failure(self, tmp_path):
        payload = {
            "experiment": "kdv-conservation",
            "parameters": {
                "dt": 6e-3,
                "t_final": 0.06,
                "n_samples": 2,
                "drift_tol": 1.0,
                "even_tol": 1.0,
                "mass_tol": 1.0,
            },
        }
        assert run_cli(tmp_path, payload) == 0
        assert run_cli(tmp_path, payload, "--strict") == 1
        report = load_report(tmp_path, "kdv-conservation")
        names = [c["name"] for c in report["checks"]]
        assert "no-warnings" in names
        assert len(report["warnings"]) == 1

    def test_line_gseries_both_signs(self, tmp_path):
        # the generated field must give p_0 the configured sign for every seed
        failed = [
            (seed, sign)
            for seed in range(20)
            for sign in (1, -1)
            if run_cli(
                tmp_path, {"experiment": "line-gseries", "parameters": {"seed": seed, "sign": sign}}
            )
            != 0
        ]
        assert failed == []

    def test_line_gseries_takes_moments_once(self, tmp_path, monkeypatch):
        # the closed forms, the oracle and the recovery share one quadrature
        calls = []
        real = line.moments

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(line, "moments", counting)
        assert run_cli(tmp_path, {"experiment": "line-gseries"}) == 0
        assert len(calls) == 1

    def test_seed_override_changes_artifacts(self, tmp_path):
        payload = {"experiment": "string-hj", "parameters": {"samples": 3}}
        assert run_cli(tmp_path, payload) == 0
        first = (tmp_path / "out" / "string-hj" / "modes.csv").read_bytes()
        assert run_cli(tmp_path, payload, "--seed", "99") == 0
        second = (tmp_path / "out" / "string-hj" / "modes.csv").read_bytes()
        assert first != second

    def test_seed_override_warns_when_unsupported(self, tmp_path):
        payload = {"experiment": "kdv-conservation", "parameters": {"t_final": 0.01, "n_samples": 2}}
        assert run_cli(tmp_path, payload, "--seed", "4") == 0
        report = load_report(tmp_path, "kdv-conservation")
        assert any("--seed ignored" in w for w in report["warnings"])


# Run configs through main() in a fresh interpreter; print the scipy
# submodules loaded by then.
_SCIPY_AFTER_RUNS = """
import json, sys
import hamlab, hamlab.cli
for cfg in sys.argv[2:]:
    code = hamlab.cli.main(["run", cfg, "--output-dir", sys.argv[1]])
    if code != 0:
        sys.exit(f"{cfg} exited {code}")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy."))))
"""
DEFERRED = {"scipy.integrate", "scipy.optimize", "scipy.interpolate", "scipy.special"}


def scipy_loaded_after(tmp_path, payloads):
    cfgs = [write_config(tmp_path, p, f"{p['experiment']}.json") for p in payloads]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_AFTER_RUNS, str(tmp_path / "out"), *cfgs],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestColdStart:
    """SciPy submodules load when first called, never on ``import hamlab``:
    reach them as ``scipy.<sub>.<name>`` at call time."""

    def test_string_and_gseries_runs_load_no_scipy_submodule(self, tmp_path):
        loaded = scipy_loaded_after(
            tmp_path,
            [
                {"experiment": "string-hj", "parameters": {"samples": 5}},
                {"experiment": "string-completeness"},
                {"experiment": "line-gseries"},
            ],
        )
        assert not loaded & DEFERRED

    def test_kdv_scattering_run_loads_no_scipy_integrate(self, tmp_path):
        payload = {
            "experiment": "kdv-scattering",
            "parameters": {"t_final": 1e-3, "dt": 5e-4, "n_k": 3},
        }
        loaded = scipy_loaded_after(tmp_path, [payload])
        # the spline and Brent's method load on use; the DOP853 oracle is not used
        assert {"scipy.interpolate", "scipy.optimize"} <= loaded
        assert "scipy.integrate" not in loaded

    def test_oracle_calls_the_module_level_solve_ivp(self, monkeypatch):
        # perfbench/tracer.py substitutes kdv.solve_ivp to count Jost RHS calls
        assert inspect.isfunction(kdv.__dict__["solve_ivp"])
        calls = []
        real = kdv.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kdv, "solve_ivp", counting)
        pot = kdv.sample_potential(lambda x: -2.0 / np.cosh(x) ** 2, half_width=15.0, n_points=512)
        kdv.schrodinger_a(pot, 1.0)
        assert len(calls) == 1


class TestReproducibility:
    def test_rerun_byte_reproduces_csv(self, tmp_path):
        payload = {
            "experiment": "kdv-conservation",
            "parameters": {"t_final": 0.02, "n_samples": 2},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "--output-dir", str(tmp_path / "b")]) == 0
        for fname in ("conserved.csv", "field.csv"):
            a = (tmp_path / "a" / "kdv-conservation" / fname).read_bytes()
            b = (tmp_path / "b" / "kdv-conservation" / fname).read_bytes()
            assert a == b

    def test_report_echoes_defaults_and_config(self, tmp_path):
        payload = {
            "experiment": "kdv-conservation",
            "parameters": {"t_final": 0.02, "n_samples": 2},
        }
        assert run_cli(tmp_path, payload) == 0
        report = load_report(tmp_path, "kdv-conservation")
        assert list(report.keys()) == [
            "experiment",
            "revision",
            "defaults_version",
            "defaults",
            "config",
            "checks",
            "warnings",
            "wall_time_s",
            "overall_pass",
        ]
        assert report["defaults"]["t_final"] == 1.0  # defaults table, not the override
        assert report["config"]["parameters"]["t_final"] == 0.02
        assert report["defaults_version"] == 1
