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

import hamlab
from hamlab import Observable, ObservableSet, canonical, cli, kdv, line, string
from hamlab.cli import EXPERIMENTS, list_experiments_text, load_config, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hamlab.__file__)))

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

# a valid JSON integer that overflows a double
BIG_INT = "1" + "0" * 400


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, *extra):
    cfg = write_config(tmp_path, payload)
    return main(["run", cfg, "--output-dir", str(tmp_path / "out"), *extra])


def count_mode_energy_calls(monkeypatch):
    """Make string_observable_set count every mode-energy evaluation; returns
    the list the observables' names are appended to."""
    calls = []
    real = string.string_observable_set

    def counting(n):
        def wrap(o):
            def fn(q, p):
                calls.append(o.name)
                return o.fn(q, p)

            return Observable(o.name, fn)

        return ObservableSet([wrap(o) for o in real(n)])

    monkeypatch.setattr(string, "string_observable_set", counting)
    return calls


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

    def test_unknown_parameter_exits_2(self, tmp_path, capsys):
        # spline_order, a removed parameter, is rejected like any unknown name
        for experiment, name in [("string-hj", "bogus"), ("line-velocity-moments", "spline_order")]:
            code = run_cli(tmp_path, {"experiment": experiment, "parameters": {name: 3}})
            assert code == 2
            assert f"field parameters/{name}: unknown; " in capsys.readouterr().err

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
            # valid JSON, but the literal overflows a double to inf
            ("1e400", "string-hj", "match_tol"),
            ("1e400", "kdv-conservation", "t_final"),
            # an integer literal too large for a double
            pytest.param(
                BIG_INT, "kdv-conservation", "t_final", id="int400-kdv-conservation-t_final"
            ),
            pytest.param(BIG_INT, "string-hj", "match_tol", id="int400-string-hj-match_tol"),
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

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # int() refuses more than 4300 digits from inside json.loads
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "string-hj", "parameters": {"n_modes": 1%s}}' % ("0" * 5000))
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        assert "does not fit a double" in capsys.readouterr().err
        assert not (out / "string-hj" / "report.json").exists()

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

    @pytest.mark.parametrize(
        "experiment, count, t_final",
        [("kdv-conservation", "n_samples", 0.0005), ("kdv-scattering", "n_times", 5e-5)],
    )
    def test_t_final_below_one_step_per_segment_exits_2(
        self, tmp_path, capsys, experiment, count, t_final
    ):
        # at dt 1e-4 each segment rounds to 0 steps; taking one step per
        # segment instead would evolve past t_final
        code = run_cli(tmp_path, {"experiment": experiment, "parameters": {"t_final": t_final}})
        assert code == 2
        err = capsys.readouterr().err
        assert f"t_final={t_final:g}" in err and count in err and "dt=0.0001" in err
        assert not (tmp_path / "out" / experiment / "report.json").exists()

    @pytest.mark.parametrize(
        "experiment, count, steps",
        [("kdv-conservation", "n_samples", "1.5"), ("kdv-scattering", "n_times", "7.5")],
    )
    def test_fractional_steps_per_segment_exits_2(self, tmp_path, capsys, experiment, count, steps):
        # rounding the count would end the run at another time than t_final
        code = run_cli(tmp_path, {"experiment": experiment, "parameters": {"t_final": 0.0015}})
        assert code == 2
        err = capsys.readouterr().err
        assert "t_final=0.0015" in err and count in err and "dt=0.0001" in err
        assert f"give {steps} steps per segment" in err
        assert not (tmp_path / "out" / experiment / "report.json").exists()

    def test_repeated_y_value_exits_2(self, tmp_path, capsys):
        code = run_cli(
            tmp_path,
            {"experiment": "line-velocity-moments", "parameters": {"y_values": [1.0, 1.0]}},
        )
        assert code == 2
        assert "y_values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, name, value",
        [
            ("line-gseries", "sign", 1.0),
            ("line-gseries", "sign", True),
            ("string-completeness", "remove", [1, 1.0]),
        ],
    )
    def test_value_of_another_json_type_exits_2(self, tmp_path, capsys, experiment, name, value):
        # the enum parameters take JSON integers only, like every integer parameter
        code = run_cli(tmp_path, {"experiment": experiment, "parameters": {name: value}})
        assert code == 2
        assert f"field parameters/{name}: expected " in capsys.readouterr().err
        assert not (tmp_path / "out" / experiment / "report.json").exists()

    @pytest.mark.parametrize(
        "experiment, name", [("string-hj", "samples"), ("string-modes", "exact_samples")]
    )
    def test_single_sample_exits_2(self, tmp_path, capsys, experiment, name):
        # one sample would judge t = 0 only, where every check holds trivially
        code = run_cli(tmp_path, {"experiment": experiment, "parameters": {name: 1}})
        assert code == 2
        err = capsys.readouterr().err
        assert f"field parameters/{name}: expected an integer >= 2, got 1" in err
        assert not (tmp_path / "out" / experiment / "report.json").exists()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"experiment": ["string-hj"]}, "experiment"),
            ({"parameters": {}}, "experiment"),
            ({"experiment": "string-hj", "parameters": [1]}, "parameters"),
            ({"experiment": "string-hj", "output_dir": 3}, "output_dir"),
            ({"experiment": "string-hj", "extra": True}, "extra"),
        ],
    )
    def test_top_level_field_named(self, tmp_path, capsys, payload, field):
        assert run_cli(tmp_path, payload) == 2
        err = capsys.readouterr().err
        assert f"config error: field {field}: " in err
        assert "Traceback" not in err

    def test_defaults_pass_their_own_rules(self):
        for experiment, entry in EXPERIMENTS.items():
            for name, (default, rule) in entry["parameters"].items():
                assert rule.accepts(default), (experiment, name, default)

    # per rule: a value of the wrong JSON type and one just out of range
    REJECTED = {
        "a number > 0": ("1.0", 0),
        "an integer >= 1": (1.0, 0),
        "an integer >= 0": (0.0, -1),
        "an integer >= 2": (2.0, 1),
        "one of the integers 1, -1": (1.0, 0),
        "a list of 0 or more distinct entries, each an integer >= 1": ({"1": 1}, [1, 0]),
        "a list of 1 or more distinct entries, each a number > 0": (0.5, []),
    }

    def test_each_rule_rejects_bool_wrong_type_and_out_of_range(self):
        rules = {spec[1] for entry in EXPERIMENTS.values() for spec in entry["parameters"].values()}
        assert {rule.words for rule in rules} == set(self.REJECTED)
        for rule in rules:
            wrong_type, out_of_range = self.REJECTED[rule.words]
            for value in (True, False, wrong_type, out_of_range):
                assert not rule.accepts(value), (rule.words, value)

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

    def test_completeness_error_records_rank_and_dim(self, tmp_path, monkeypatch, capsys):
        # recovery with mode 2's energy removed: 2 integrals for 3 momenta
        def runner(p):
            obs = string.string_observable_set(3).without("mode_energy_2")
            canonical.recover_momenta(obs, [0.5, 0.5], [0.1, 0.2, 0.3], [1.0, 1.0, 1.0])

        monkeypatch.setitem(EXPERIMENTS["string-completeness"], "runner", runner)
        assert run_cli(tmp_path, {"experiment": "string-completeness"}) == 3
        assert "CompletenessError" in capsys.readouterr().err
        error = load_report(tmp_path, "string-completeness")["error"]
        assert error["type"] == "CompletenessError"
        assert (error["rank"], error["dim"]) == (2, 3)
        assert "2 observables cannot determine 3 momenta" in error["message"]

    @pytest.mark.parametrize(
        "experiment, extra",
        [
            ("kdv-scattering", {"t_final": 0.01, "dt": 0.001}),
            ("kdv-action-hamiltonian", {"k_max_bound": 1.0}),
        ],
    )
    def test_scattering_window_follows_L_domain(self, tmp_path, experiment, extra):
        # kappa 0.5 decays to 4e-9 at x = 20: only the window of L_domain 80 holds it
        params = {"kappa": 0.5, "L_domain": 80, **extra}
        assert run_cli(tmp_path, {"experiment": experiment, "parameters": params}) == 0
        report = load_report(tmp_path, experiment)
        assert report["overall_pass"] is True
        assert "error" not in report

    def test_bound_state_at_k_max_bound(self, tmp_path):
        # the default soliton's kappa 1 is the last scan sample
        payload = {"experiment": "kdv-action-hamiltonian", "parameters": {"k_max_bound": 1.0}}
        assert run_cli(tmp_path, payload) == 0
        bound = tmp_path / "out" / "kdv-action-hamiltonian" / "bound.csv"
        assert bound.read_text() == "l,k_l,N_l\n1,1,1\n"

    def test_scan_to_35_4_stays_in_range_on_the_field_window(self, tmp_path):
        # the default field's window ends at 19.92, one grid step short of 20,
        # so the sweep at 35.35j does not overflow
        payload = {"experiment": "kdv-action-hamiltonian", "parameters": {"k_max_bound": 35.4}}
        assert run_cli(tmp_path, payload) == 0
        bound = tmp_path / "out" / "kdv-action-hamiltonian" / "bound.csv"
        assert bound.read_text() == "l,k_l,N_l\n1,1,1\n"

    def test_scattering_tables_read_the_evolved_field(self, tmp_path):
        # kappa 1.02 lies between scan samples, so its bound state is refined
        params = {"kappa": 1.02, "t_final": 0.02, "dt": 1e-3, "n_times": 2}
        assert run_cli(tmp_path, {"experiment": "kdv-scattering", "parameters": params}) == 0
        # the replayed flow: one segment of 20 steps
        pot = kdv.line_window(kdv.kdv_evolve(kdv.soliton_field(1.02), 1e-3, 20))
        k = np.linspace(0.2, 3.0, 15)
        out = tmp_path / "out" / "kdv-scattering"
        table = np.loadtxt(out / "scattering.csv", delimiter=",", skiprows=1)
        bound = np.loadtxt(out / "bound.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(table[:, 0], k)
        assert np.array_equal(table[:, 1] + 1j * table[:, 2], kdv.scattering_a(pot, k))
        assert np.array_equal(bound[:, 1], kdv.bound_states(pot, 1.02 + 0.5))

    def test_actions_window_too_narrow_for_the_soliton_exits_3(self, tmp_path):
        # kappa 1 reaches 3e-10 at x = 12; kdv-scattering's probe windows
        # reject this L_domain too
        payload = {"experiment": "kdv-action-hamiltonian", "parameters": {"L_domain": 24}}
        assert run_cli(tmp_path, payload) == 3
        error = load_report(tmp_path, "kdv-action-hamiltonian")["error"]
        assert error["type"] == "DecayError"
        assert "enlarge the window" in error["message"]

    def test_sweep_overflow_names_both_remedies(self, tmp_path, capsys):
        # the window of the 2048-point field ends at 19.98; the launch value
        # at 35.4j is a double, but the sweep overflows at 35.35j
        payload = {"experiment": "kdv-action-hamiltonian", "parameters": {"k_max_bound": 35.4, "M": 2048}}
        assert run_cli(tmp_path, payload) == 3
        assert "ConvergenceError" in capsys.readouterr().err
        message = load_report(tmp_path, "kdv-action-hamiltonian")["error"]["message"]
        assert "left the floating-point range" in message
        assert "smaller |k| (k_max_bound) or a narrower window" in message

    @pytest.mark.parametrize(("order", "source"), [(86, "171!"), (200, "moment of order")])
    def test_gseries_order_past_double_range_exits_3(self, tmp_path, capsys, order, source):
        # order 86 needs 171!; at order 200 the moment scale L**n overflows first
        code = run_cli(tmp_path, {"experiment": "line-gseries", "parameters": {"order": order}})
        assert code == 3
        assert "ScalingError" in capsys.readouterr().err
        report = load_report(tmp_path, "line-gseries")
        assert report["overall_pass"] is False
        assert report["error"]["type"] == "ScalingError"
        assert source in report["error"]["message"]

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

    @pytest.mark.parametrize("seed, sign", [(0, 1), (3, -1), (19, 1)])
    def test_gseries_field_equals_the_bump_expression(self, seed, sign):
        # the in-place bump sums against the expression they unroll
        rng = np.random.default_rng(seed)
        x = line.line_grid(line.DEFAULT_HALF_WIDTH, line.DEFAULT_STEP)

        def bumps(lo, hi, scale):
            amps = scale * rng.uniform(lo, hi, 3)
            centers, widths = rng.uniform(-3.0, 3.0, 3), rng.uniform(1.0, 2.0, 3)
            out = np.zeros_like(x)
            for A, c, w in zip(amps, centers, widths):
                out = out + A * np.exp(-((x - c) ** 2) / w)
            return out

        u = bumps(-0.8, 0.8, 1.0)
        v = x * bumps(0.2, 0.9, sign)
        f = cli._make_gseries_field(seed, sign)
        assert np.array_equal(f.u, u) and np.array_equal(f.v, v)

    def test_integer_y_values_write_a_float_column(self, tmp_path):
        # JSON integers, one of them beyond int64, are y values like any other
        payload = {"experiment": "line-velocity-moments", "parameters": {"y_values": [10**20, 2]}}
        run_cli(tmp_path, payload)
        rows = (tmp_path / "out" / payload["experiment"] / "energy_drift.csv").read_text().splitlines()
        assert rows[1].startswith("1e+20,")
        assert rows[2].startswith("2,")

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

    def test_line_gseries_computes_g_once(self, tmp_path, monkeypatch):
        # the recovery takes the g values of the oracle comparison
        calls = []
        real = line.g_from_moments

        def counting(mc):
            calls.append(mc)
            return real(mc)

        monkeypatch.setattr(line, "g_from_moments", counting)
        assert run_cli(tmp_path, {"experiment": "line-gseries"}) == 0
        assert len(calls) == 1

    def test_string_hj_evaluates_each_mode_energy_once(self, tmp_path, monkeypatch):
        # the HJ constants are the mode-energy observables' own values
        calls = count_mode_energy_calls(monkeypatch)
        payload = {"experiment": "string-hj", "parameters": {"n_modes": 5}}
        assert run_cli(tmp_path, payload) == 0
        assert sorted(calls) == [f"mode_energy_{n}" for n in range(1, 6)]

    @pytest.mark.parametrize(
        "params", [{}, {"seed": 99, "n_modes": 16}, {"n_modes": 1, "samples": 1000, "t_final": 50.0}]
    )
    def test_string_hj_errors_equal_a_per_time_loop(self, tmp_path, params):
        # the error of each sample time, written out from the two flows'
        # formulas one time at a time
        assert run_cli(tmp_path, {"experiment": "string-hj", "parameters": params}) in (0, 1)
        out = tmp_path / "out" / "string-hj"
        _, a, adot = np.loadtxt(out / "modes.csv", delimiter=",", skiprows=1, ndmin=2).T
        times, errors = np.loadtxt(out / "hj_error.csv", delimiter=",", skiprows=1).T
        E, beta = string.hj_constants(hamlab.CanonicalState(a, adot))
        n = np.arange(1, a.size + 1, dtype=float)
        want = []
        for t in times:
            c, s = np.cos(n * (t - 0.0)), np.sin(n * (t - 0.0))
            phi = n * t + 2.0 * n * beta
            hj_a, hj_adot = np.sqrt(E) / n * np.sin(phi), np.sqrt(E) * np.cos(phi)
            exact_a, exact_adot = a * c + (adot / n) * s, -n * a * s + adot * c
            want.append(max(np.max(np.abs(hj_a - exact_a)), np.max(np.abs(hj_adot - exact_adot))))
        assert np.array_equal(errors, want)
        report = load_report(tmp_path, "string-hj")
        assert report["checks"][0]["value"] == max(want)

    def test_string_completeness_differences_each_side_once(self, tmp_path, monkeypatch):
        # 24 observables x 24 entries x (+h, -h) x (q side, p side)
        calls = count_mode_energy_calls(monkeypatch)
        payload = {"experiment": "string-completeness", "parameters": {"n_modes": 24}}
        assert run_cli(tmp_path, payload) == 0
        assert len(calls) == 2304

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


class TestParserReuse:
    """main() builds its parser once per process; a call after others must
    give what the same call gives alone, on a freshly built parser."""

    HJ = {"experiment": "string-hj", "parameters": {"samples": 5}}
    CALLS = [
        (HJ, ("--strict",)),
        (HJ, ()),
        (HJ, ("--seed", "5")),
        (HJ, ()),
        ({"experiment": "string-hj", "parameters": {"samples": 1}}, ()),
        (HJ, ("--seed", "-1")),
        (HJ, ()),
    ]

    @staticmethod
    def outcome(work, payload, flags):
        """Exit code, report checks and CSV bytes of one main() call."""
        work.mkdir()
        cfg = write_config(work, payload)
        try:
            code = main(["run", cfg, "--output-dir", str(work / "out"), *flags])
        except SystemExit as exc:
            code = exc.code
        exp_dir = work / "out" / payload["experiment"]
        report = exp_dir / "report.json"
        checks = json.loads(report.read_text())["checks"] if report.exists() else None
        csvs = {p.name: p.read_bytes() for p in sorted(exp_dir.glob("*.csv"))}
        return code, checks, csvs

    def test_consecutive_calls_equal_calls_alone(self, tmp_path):
        alone = []
        for i, (payload, flags) in enumerate(self.CALLS):
            cli._parser.cache_clear()
            alone.append(self.outcome(tmp_path / f"alone{i}", payload, flags))
        cli._parser.cache_clear()
        after_others = [
            self.outcome(tmp_path / f"seq{i}", payload, flags)
            for i, (payload, flags) in enumerate(self.CALLS)
        ]
        assert cli._parser.cache_info().misses == 1
        assert [o[0] for o in alone] == [0, 0, 0, 0, 2, 2, 0]
        for i, (want, got) in enumerate(zip(alone, after_others)):
            assert got == want, self.CALLS[i]
        # the flags were seen: --strict adds a check, --seed changes the state
        assert len(alone[0][1]) == len(alone[1][1]) + 1
        assert alone[2][2]["modes.csv"] != alone[3][2]["modes.csv"]

    def test_list_experiments_after_a_run(self, tmp_path, capsys):
        assert run_cli(tmp_path, self.HJ) == 0
        capsys.readouterr()
        assert main(["list-experiments"]) == 0
        assert capsys.readouterr().out == list_experiments_text() + "\n"


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
    """SciPy loads when first called, never on ``import hamlab``: import
    ``scipy.<sub>`` inside the function that calls it."""

    def test_cli_import_loads_neither_scipy_nor_subprocess(self):
        # the DOP853 oracle imports scipy.integrate, and the git revision
        # lookup subprocess, at their first call
        code = "import json, sys, hamlab.cli\nprint(json.dumps(sorted(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "hamlab.cli" in loaded
        assert not loaded & {"scipy", "subprocess"}

    def test_cli_import_adds_no_third_party_package(self):
        # configs are checked against the experiment table by hamlab itself;
        # whatever NumPy, SciPy and the site setup load is not counted
        code = (
            "import json, sys, numpy, scipy\n"
            "before = set(sys.modules)\n"
            "import hamlab.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["hamlab"]

    def test_string_and_line_runs_load_no_scipy_submodule(self, tmp_path):
        loaded = scipy_loaded_after(
            tmp_path,
            [
                {"experiment": "string-hj", "parameters": {"samples": 5}},
                {"experiment": "string-completeness"},
                {"experiment": "line-gseries"},
                {"experiment": "line-velocity-moments", "parameters": {"steps": 1}},
            ],
        )
        assert not loaded & DEFERRED

    def test_kdv_scattering_runs_load_no_scipy_submodule(self, tmp_path):
        # the line window, the sweeps and the root refinement are NumPy;
        # only the DOP853 oracle, which no run calls, needs scipy.integrate
        loaded = scipy_loaded_after(
            tmp_path,
            [
                {
                    "experiment": "kdv-scattering",
                    "parameters": {"t_final": 1e-3, "dt": 5e-4, "n_k": 3},
                },
                {"experiment": "kdv-action-hamiltonian"},
            ],
        )
        assert not loaded & DEFERRED

    def test_oracle_calls_the_module_level_solve_ivp(self, monkeypatch):
        # perfbench/tracer.py substitutes kdv.solve_ivp to count Jost RHS calls
        assert inspect.isfunction(kdv.__dict__["solve_ivp"])
        calls = []
        real = kdv.solve_ivp

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kdv, "solve_ivp", counting)
        pot = kdv.LinePotential(lambda x: -2.0 / np.cosh(x) ** 2, -15.0, 15.0)
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
