"""Batch experiment runner.

Each experiment re-runs one of the library's headline checks from a JSON
config, writes CSV artifacts plus a JSON report, and exits 0 only when
every check passes.  Exit codes: 0 all checks pass, 1 a check failed,
2 configuration error, 3 numerical failure inside a module.

Config format::

    {"experiment": "kdv-conservation",
     "parameters": {"t_final": 0.5},
     "output_dir": "out"}

``load_config`` checks a config against the versioned table below, which
holds every parameter's default and rule and is echoed into every report
so the thresholds a run was judged against are auditable.
Runs are deterministic: a fixed seed is part of the defaults, so
re-running a config byte-reproduces every CSV artifact.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import warnings
from collections import namedtuple

import numpy as np

from . import canonical, kdv, line, string
from .csvio import write_csv, write_json
from .errors import HamlabError

DEFAULTS_VERSION = 1


# a config value's rule: a predicate on the parsed JSON value, and its
# words; type(), not isinstance(), since JSON true and false are not numbers
_Rule = namedtuple("_Rule", "accepts words")
_POS_NUMBER = _Rule(lambda x: type(x) in (int, float) and x > 0, "a number > 0")
_POS_INT = _Rule(lambda x: type(x) is int and x >= 1, "an integer >= 1")
_SEED_MIN = 0
_SEED = _Rule(lambda x: type(x) is int and x >= _SEED_MIN, f"an integer >= {_SEED_MIN}")
_AT_LEAST_2 = _Rule(lambda x: type(x) is int and x >= 2, "an integer >= 2")
_SIGN = _Rule(lambda x: type(x) is int and x in (1, -1), "one of the integers 1, -1")


def _distinct_list(item, min_len=0):
    # entries compare as numbers, so 1 and 1.0 are a repeat
    return _Rule(
        lambda x: type(x) is list and all(map(item.accepts, x)) and min_len <= len(set(x)) == len(x),
        f"a list of {min_len} or more distinct entries, each {item.words}",
    )


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


def _check(name, value, threshold, passed):
    return {
        "name": name,
        "value": float(value),
        "threshold": None if threshold is None else float(threshold),
        "pass": bool(passed),
    }


def _bounded(name, value, threshold):
    return _check(name, value, threshold, value < threshold)


# ---------------------------------------------------------------------------
# experiment runners: params dict in, (checks, artifacts) out; artifacts map
# filename -> (header, columns), one 1-d integer or float column per header name


def _run_string_modes(p):
    n = p["n_modes"]
    idx = np.arange(1, n + 1)
    rng = np.random.default_rng(p["seed"])
    # spectrum decaying like 4^(1-n): high modes stay below the drift floor
    amp = 4.0 ** (1.0 - idx)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    m0 = canonical.CanonicalState(amp * np.cos(phase), -idx * amp * np.sin(phase))
    obs = string.string_observable_set(n)
    e0 = obs.evaluate(m0)

    times = np.linspace(0.0, p["t_exact"], p["exact_samples"])
    exact_drift = canonical.conservation_drift(obs, *string.exact_mode_evolution(m0, times))

    H = string.string_hamiltonian(n)
    t, q, adot = canonical.evolve(H, m0, p["dt"], p["steps"], record_stride=p["stride"])
    drift = canonical.conservation_drift(obs, q, adot)

    checks = [
        _bounded("exact-energy-drift", float(np.max(exact_drift)), p["exact_tol"]),
        _bounded("verlet-energy-drift", float(np.max(drift)), p["drift_tol"]),
    ]
    artifacts = {
        "modes.csv": (("n", "a_n", "adot_n"), (idx, m0.q, m0.p)),
        "energy_drift.csv": (("n", "E_n", "verlet_drift"), (idx, e0, drift)),
        "hamiltonian.csv": (("t", "H"), (t, [H.fn(*row) for row in zip(q, adot)])),
    }
    return checks, artifacts


def _run_string_hj(p):
    n = p["n_modes"]
    rng = np.random.default_rng(p["seed"])
    # keep both components away from zero so every mode carries energy
    a = rng.uniform(0.4, 1.2, n) * rng.choice([-1.0, 1.0], n)
    adot = rng.uniform(0.4, 1.2, n) * rng.choice([-1.0, 1.0], n)
    m0 = canonical.CanonicalState(a, adot)
    at = string.hj_trajectory(*string.hj_constants(m0))

    times = np.linspace(0.0, p["t_final"], p["samples"])
    exact_a, exact_adot = string.exact_mode_evolution(m0, times)
    hj_a, hj_adot = at(times)
    # one row per sample time: the worse of the two largest mode errors
    errors = np.maximum(
        np.max(np.abs(hj_a - exact_a), axis=1), np.max(np.abs(hj_adot - exact_adot), axis=1)
    )

    checks = [_bounded("hj-vs-exact", float(np.max(errors)), p["match_tol"])]
    artifacts = {
        "hj_error.csv": (("t", "error"), (times, errors)),
        "modes.csv": (("n", "a_n", "adot_n"), (np.arange(1, n + 1), a, adot)),
    }
    return checks, artifacts


def _run_string_completeness(p):
    n = p["n_modes"]
    bad = [i for i in p["remove"] if i > n]
    if bad:
        raise ConfigError(f"remove indices {bad} exceed n_modes={n}")
    if len(p["remove"]) == n:
        raise ConfigError(f"remove names all {n} modes; at least one must stay")
    rng = np.random.default_rng(p["seed"])
    q = rng.normal(0.0, 1.0, n)
    momenta = rng.uniform(0.4, 1.5, n) * rng.choice([-1.0, 1.0], n)  # all p_n != 0
    state = canonical.CanonicalState(q, momenta, 0.0)

    obs = string.string_observable_set(n)
    kept = obs.without(*(f"mode_energy_{i}" for i in p["remove"]))
    B, J = canonical.involution_and_jacobian(kept, state, h=p["fd_step"])
    sv, rank = canonical.numerical_rank(J, p["rank_tol"])

    checks = [_bounded("involution-max", float(np.max(np.abs(B))), p["involution_tol"])]
    if p["remove"]:
        expected = n - len(p["remove"])
        checks.append(_check("expects-incomplete", rank, expected, rank == expected))
    else:
        checks.append(_check("expects-complete", rank, n, rank == n))

    kept_idx = np.array([i for i in range(1, n + 1) if i not in p["remove"]])
    i, j = np.meshgrid(kept_idx, kept_idx, indexing="ij")
    artifacts = {
        "involution.csv": (("i", "j", "bracket"), (i.ravel(), j.ravel(), B.ravel())),
        "singular_values.csv": (("index", "sigma"), (np.arange(1, sv.size + 1), sv)),
    }
    return checks, artifacts


def _make_gseries_field(seed, sign):
    rng = np.random.default_rng(seed)

    def bumps(n_bumps, lo, hi, scale):
        amps = scale * rng.uniform(lo, hi, n_bumps)
        centers = rng.uniform(-3.0, 3.0, n_bumps)
        widths = rng.uniform(1.0, 2.0, n_bumps)

        def fn(x):
            # out += A exp(-(x - c)**2 / w) per bump, in place through one
            # work array, in the order of that expression
            out = np.zeros_like(x)
            term = np.empty_like(x)
            for A, c, w in zip(amps, centers, widths):
                np.subtract(x, c, out=term)
                np.square(term, out=term)
                np.negative(term, out=term)
                np.divide(term, w, out=term)
                np.exp(term, out=term)
                np.multiply(A, term, out=term)
                np.add(out, term, out=out)
            return out

        return fn

    u_fn = bumps(3, -0.8, 0.8, 1.0)
    # v = x * (bumps of one sign) makes x v single-signed, which pins the
    # sign of p_0 = int x v dx for any seed
    v_bumps = bumps(3, 0.2, 0.9, sign)

    def v_fn(x):
        v = v_bumps(x)
        return np.multiply(x, v, out=v)

    return line.sample_line_field(u_fn, v_fn)


def _run_line_gseries(p):
    f = _make_gseries_field(p["seed"], p["sign"])
    mc = line.moments(f, p["order"])
    comparison = line.gseries_comparison(mc)
    # recover from the very g values the oracle judged
    p_rec = line.recover_momenta_triangular(comparison["g_formula"], mc.q, p["sign"])

    rel_err = float(np.max(np.abs(p_rec - mc.p)) / np.max(np.abs(mc.p)))
    n_rows = comparison["k"].size
    checks = [
        _bounded("roundtrip-relative-error", rel_err, p["roundtrip_tol"]),
        _check("comparison-rows", n_rows, p["order"], n_rows == p["order"]),
        _bounded("formula-vs-oracle-max-diff", max(comparison["abs_diff"]), p["oracle_tol"]),
    ]
    artifacts = {
        "gseries.csv": (tuple(comparison), tuple(comparison.values())),
        "recovery.csv": (
            ("n", "p_true", "p_recovered", "abs_error"),
            (np.arange(mc.dim), mc.p, p_rec, np.abs(p_rec - mc.p)),
        ),
    }
    return checks, artifacts


def _run_line_velocity_moments(p):
    f0 = line.sample_line_field(
        lambda x: np.exp(-((x - 1.0) ** 2) / 2.0) + 0.3 * np.exp(-((x + 2.0) ** 2) / 3.0),
        lambda x: 0.4 * x * np.exp(-(x**2) / 2.0),
    )
    # float even for JSON integers, which would make an int CSV column
    ys = np.asarray(p["y_values"], dtype=float)
    orders = np.arange(3)
    e0 = line.continuous_mode_energy(f0, ys)
    m0 = line.velocity_moment(f0, orders)
    drifts = np.zeros(ys.size)
    m_drift = np.zeros(orders.size)
    cur = f0
    dt = p["t_final"] / p["steps"]
    for _ in range(p["steps"]):
        cur = line.dalembert_evolve(cur, dt)
        drifts = np.maximum(drifts, np.abs(line.continuous_mode_energy(cur, ys) - e0))
        m_drift = np.maximum(m_drift, np.abs(line.velocity_moment(cur, orders) - m0))

    x = f0.grid
    checks = [_bounded(f"energy-drift-y{y:g}", d, p["energy_tol"]) for y, d in zip(ys, drifts)]
    checks += [
        _bounded("moment-drift-n0", m_drift[0], p["moment_tol"]),
        _bounded("moment-drift-n1", m_drift[1], p["moment_tol"]),
        # n = 2 genuinely drifts; the measured value is recorded, not judged
        _check("moment-drift-n2", m_drift[2], None, True),
    ]
    artifacts = {
        "energy_drift.csv": (("y", "drift"), (ys, drifts)),
        "moment_drift.csv": (("n", "drift"), (orders, m_drift)),
        "field_u.csv": (("x", "value"), (x, f0.u)),
        "field_v.csv": (("x", "value"), (x, f0.v)),
    }
    return checks, artifacts


def _segment_steps(p, count):
    """dt steps in each of the p[count] - 1 segments of t_final.  A count
    that is not a positive whole number (to a relative 1e-9) is a
    ConfigError: rounding it would end the run away from t_final."""
    exact = p["t_final"] / ((p[count] - 1) * p["dt"])
    steps = round(exact)
    if abs(exact - steps) > 1e-9 * exact:
        got = f"t_final={p['t_final']:g}, {count}={p[count]} and dt={p['dt']:g}"
        raise ConfigError(f"{got} give {exact:.6g} steps per segment, not a positive whole number")
    return steps


def _kdv_flow(p, count):
    """The soliton field of p at t = 0 and after each of the p[count] - 1
    segments of t_final.  Yielded one at a time, so the caller judges each
    field before the next segment runs: a failure at t = 0 comes first."""
    f = kdv.soliton_field(p["kappa"], L_domain=p["L_domain"], M=p["M"])
    seg_steps = _segment_steps(p, count)
    yield f
    for _ in range(p[count] - 1):
        f = kdv.kdv_evolve(f, p["dt"], seg_steps)
        yield f


def _run_kdv_conservation(p):
    rows = [(f, *kdv.kdv_invariants(f), kdv.direct_hamiltonian(f)) for f in _kdv_flow(p, "n_samples")]
    fields, I, even, H = zip(*rows)
    I = np.array(I)
    drift = np.abs(I[1:] - I[0])
    worst_I = np.max(drift / np.abs(I[0]), axis=0)

    checks = [
        _bounded("I1-relative-drift", worst_I[0], p["drift_tol"]),
        _bounded("I2-relative-drift", worst_I[1], p["drift_tol"]),
        _bounded("I3-relative-drift", worst_I[2], p["drift_tol"]),
        _bounded("even-integral-max", np.max(np.abs(even)), p["even_tol"]),
        # the mass int u dx is -I_1
        _bounded("mass-drift", np.max(drift[:, 0]), p["mass_tol"]),
    ]
    artifacts = {
        "conserved.csv": (("t", "I_1", "I_2", "I_3", "H_direct"), ([f.t for f in fields], *I.T, H)),
        "field.csv": (("x", "value"), (fields[-1].x, fields[-1].u)),
    }
    return checks, artifacts


def _scattering(p, pot, k_max_bound):
    """a(k) of the line window pot on p's k grid, the continuum actions
    n(k) and the bound states below k_max_bound, as (k, n, kappas,
    artifacts): scattering.csv (a(k) and n(k)) and bound.csv (kappa_l and
    N_l = kappa_l^2).  The k grid is checked before the bound-state search."""
    k = np.linspace(p["k_min"], p["k_max"], p["n_k"])
    a = kdv.scattering_a(pot, k)
    n = kdv.continuum_actions(k, a)
    kappas = kdv.bound_states(pot, k_max_bound)
    artifacts = {
        "scattering.csv": (("k", "re_a", "im_a", "n_k"), (k, a.real, a.imag, n)),
        "bound.csv": (("l", "k_l", "N_l"), (np.arange(1, kappas.size + 1), kappas, kappas**2)),
    }
    return k, n, kappas, artifacts


def _run_kdv_scattering(p):
    # pot ends as the last window, the evolved field's, which the table and bound states read
    a = [kdv.scattering_a(pot := kdv.line_window(f), [p["k_probe"]])[0] for f in _kdv_flow(p, "n_times")]
    drift = max(abs(v - a[0]) for v in a[1:])
    _, _, kappas, artifacts = _scattering(p, pot, p["kappa"] + 0.5)

    checks = [
        _bounded("a-probe-drift", drift, p["drift_tol"]),
        _check("bound-state-count", kappas.size, 1, kappas.size == 1),
    ]
    if kappas.size == 1:
        checks.append(_bounded("bound-state-error", abs(kappas[0] - p["kappa"]), p["bound_tol"]))
    return checks, artifacts


def _run_kdv_action_hamiltonian(p):
    kappa = p["kappa"]
    # the field goes first: a bad M fails before any sweep work
    f = kdv.soliton_field(kappa, L_domain=p["L_domain"], M=p["M"])
    H_dir = kdv.direct_hamiltonian(f)
    k, n, kappas, artifacts = _scattering(p, kdv.line_window(f), p["k_max_bound"])
    H_act = kdv.hamiltonian_from_actions(k, n, kappas)
    H_closed = -32.0 / 5.0 * kappa**5

    def rel(a, b):
        return abs(a - b) / abs(b)

    checks = [
        _bounded("actions-vs-closed-form", rel(H_act, H_closed), p["rel_tol"]),
        _bounded("direct-vs-closed-form", rel(H_dir, H_closed), p["rel_tol"]),
        _bounded("actions-vs-direct", rel(H_act, H_dir), p["rel_tol"]),
    ]
    return checks, artifacts


# ---------------------------------------------------------------------------
# experiment registry: topic tags, parameter defaults and rules, runners

EXPERIMENTS = {
    "string-modes": {
        "topic": "finite-string",
        "runner": _run_string_modes,
        "parameters": {
            "n_modes": (8, _POS_INT),
            "dt": (1e-3, _POS_NUMBER),
            "steps": (100000, _POS_INT),
            "stride": (1000, _POS_INT),
            "seed": (2024, _SEED),
            "t_exact": (10.0, _POS_NUMBER),
            "exact_samples": (11, _AT_LEAST_2),
            "exact_tol": (1e-12, _POS_NUMBER),
            "drift_tol": (1e-6, _POS_NUMBER),
        },
    },
    "string-hj": {
        "topic": "finite-string",
        "runner": _run_string_hj,
        "parameters": {
            "n_modes": (8, _POS_INT),
            "seed": (7, _SEED),
            "t_final": (3.0, _POS_NUMBER),
            "samples": (121, _AT_LEAST_2),
            "match_tol": (1e-10, _POS_NUMBER),
        },
    },
    "string-completeness": {
        "topic": "finite-string",
        "runner": _run_string_completeness,
        "parameters": {
            "n_modes": (8, _POS_INT),
            "seed": (11, _SEED),
            "fd_step": (1e-5, _POS_NUMBER),
            "rank_tol": (1e-8, _POS_NUMBER),
            "involution_tol": (1e-6, _POS_NUMBER),
            "remove": ([], _distinct_list(_POS_INT)),
        },
    },
    "line-gseries": {
        "topic": "infinite-string",
        "runner": _run_line_gseries,
        "parameters": {
            "order": (5, _POS_INT),
            "seed": (5, _SEED),
            "sign": (1, _SIGN),
            "roundtrip_tol": (1e-8, _POS_NUMBER),
            "oracle_tol": (1e-10, _POS_NUMBER),
        },
    },
    "line-velocity-moments": {
        "topic": "infinite-string",
        "runner": _run_line_velocity_moments,
        "parameters": {
            "y_values": ([0.5, 1.0, 2.0], _distinct_list(_POS_NUMBER, min_len=1)),
            "t_final": (1.0, _POS_NUMBER),
            "steps": (4, _POS_INT),
            "energy_tol": (1e-8, _POS_NUMBER),
            "moment_tol": (1e-10, _POS_NUMBER),
        },
    },
    "kdv-conservation": {
        "topic": "kdv",
        "runner": _run_kdv_conservation,
        "parameters": {
            "kappa": (1.0, _POS_NUMBER),
            "L_domain": (40.0, _POS_NUMBER),
            "M": (512, _POS_INT),
            "dt": (1e-4, _POS_NUMBER),
            "t_final": (1.0, _POS_NUMBER),
            "n_samples": (11, _AT_LEAST_2),
            "drift_tol": (1e-6, _POS_NUMBER),
            "even_tol": (1e-10, _POS_NUMBER),
            "mass_tol": (1e-13, _POS_NUMBER),
        },
    },
    "kdv-scattering": {
        "topic": "kdv",
        "runner": _run_kdv_scattering,
        "parameters": {
            "kappa": (1.0, _POS_NUMBER),
            "k_probe": (1.3, _POS_NUMBER),
            "t_final": (1.0, _POS_NUMBER),
            "n_times": (3, _AT_LEAST_2),
            "dt": (1e-4, _POS_NUMBER),
            "L_domain": (40.0, _POS_NUMBER),
            "M": (512, _POS_INT),
            "k_min": (0.2, _POS_NUMBER),
            "k_max": (3.0, _POS_NUMBER),
            "n_k": (15, _POS_INT),
            "drift_tol": (1e-4, _POS_NUMBER),
            "bound_tol": (1e-8, _POS_NUMBER),
        },
    },
    "kdv-action-hamiltonian": {
        "topic": "kdv",
        "runner": _run_kdv_action_hamiltonian,
        "parameters": {
            "kappa": (1.0, _POS_NUMBER),
            "k_min": (0.05, _POS_NUMBER),
            "k_max": (4.0, _POS_NUMBER),
            "n_k": (60, _POS_INT),
            "k_max_bound": (1.5, _POS_NUMBER),
            "L_domain": (40.0, _POS_NUMBER),
            "M": (512, _POS_INT),
            "rel_tol": (1e-4, _POS_NUMBER),
        },
    },
}


def _defaults(experiment):
    return {name: spec[0] for name, spec in EXPERIMENTS[experiment]["parameters"].items()}


_TOP_LEVEL = {
    "experiment": _Rule(lambda x: type(x) is str and x in EXPERIMENTS, f"one of {sorted(EXPERIMENTS)}"),
    "parameters": _Rule(lambda x: type(x) is dict, "an object"),
    "output_dir": _Rule(lambda x: type(x) is str, "a string"),
}


def _check_fields(values, rules, prefix=""):
    # a ConfigError for the first key without a rule or with a value it rejects
    for key, value in values.items():
        if key not in rules:
            raise ConfigError(f"field {prefix}{key}: unknown; expected one of {', '.join(rules)}")
        if not rules[key].accepts(value):
            raise ConfigError(f"field {prefix}{key}: expected {rules[key].words}, got {json.dumps(value)}")


def _reject_constant(token):
    # Python's json accepts NaN, Infinity and -Infinity; JSON does not
    raise ConfigError(f"{token} is not a JSON number")


def _finite_float(literal):
    # a literal such as 1e400 is valid JSON but reads as inf
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"{literal} overflows a double to {value}")
    return value


def _double_int(literal):
    # the runners mix integers with doubles, so each must fit one; int()
    # also refuses a literal past Python's digit limit
    try:
        value = int(literal)
        float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"integer {literal} does not fit a double") from None
    return value


def load_config(path):
    """The config at ``path``, checked against the experiment table, or a
    :class:`ConfigError` whose message starts ``field <key>:`` or ``field
    parameters/<name>:`` and names what was expected and what was given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(
            text, parse_float=_finite_float, parse_int=_double_int, parse_constant=_reject_constant
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    # the experiment goes first, as null when it is missing
    _check_fields({"experiment": None, **cfg}, _TOP_LEVEL)
    rules = {key: spec[1] for key, spec in EXPERIMENTS[cfg["experiment"]]["parameters"].items()}
    _check_fields(cfg.get("parameters", {}), rules, "parameters/")
    return cfg


_revision = None


def _source_revision():
    """Short git revision of the loaded source, looked up once per process:
    the code a process runs cannot change under it."""
    global _revision
    if _revision is None:
        import subprocess

        _revision = "unknown"
        here = os.path.dirname(os.path.abspath(__file__))
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=here,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if out.returncode == 0:
                _revision = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return _revision


def _write_artifact(write, path, *content):
    # like the output directory, an unwritable artifact path is the
    # configuration's fault, not a failed check
    try:
        write(path, *content)
    except OSError as exc:
        raise ConfigError(f"cannot write artifact {path}: {exc}") from exc


def run_experiment(cfg, output_dir=None, seed_override=None, strict=False):
    """Execute one validated config; returns (report dict, exit code).

    A numerical failure (``HamlabError``) still writes report.json, with
    ``overall_pass`` false and the error's type, message and fields under
    ``error``, and is then re-raised.
    """
    name = cfg["experiment"]
    entry = EXPERIMENTS[name]
    params = _defaults(name)
    params.update(cfg.get("parameters", {}))
    notes = []
    if seed_override is not None:
        if "seed" in entry["parameters"]:
            params["seed"] = seed_override
        else:
            notes.append(f"--seed ignored: {name} takes no seed parameter")

    out_root = output_dir or cfg.get("output_dir") or "hamlab-out"
    exp_dir = os.path.join(out_root, name)
    try:
        os.makedirs(exp_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {exp_dir}: {exc}") from exc

    start = time.perf_counter()
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            checks, artifacts = entry["runner"](params)
        except HamlabError as exc:
            error, checks, artifacts = exc, [], {}
        except ValueError as exc:
            # the package's usage-error type: the parameters are at fault
            raise ConfigError(str(exc)) from exc
    wall = time.perf_counter() - start
    warn_msgs = notes + [str(w.message) for w in caught]
    if strict:
        checks.append(_check("no-warnings", len(warn_msgs), 0, not warn_msgs))
    overall = error is None and all(c["pass"] for c in checks)

    for fname, (header, columns) in artifacts.items():
        _write_artifact(write_csv, os.path.join(exp_dir, fname), header, columns)

    report = {
        "experiment": name,
        "revision": _source_revision(),
        "defaults_version": DEFAULTS_VERSION,
        "defaults": _defaults(name),
        "config": {"experiment": name, "parameters": params, "output_dir": out_root},
        "checks": checks,
        "warnings": warn_msgs,
        "wall_time_s": wall,
        "overall_pass": overall,
    }
    if error is not None:
        # the numbers an error carries (last stable time, step, residual)
        fields = {
            k: v for k, v in vars(error).items() if isinstance(v, (bool, int, float, str))
        }
        report["error"] = {"type": type(error).__name__, "message": str(error), **fields}
    _write_artifact(write_json, os.path.join(exp_dir, "report.json"), report)
    if error is not None:
        raise error
    return report, (0 if overall else 1)


def _print_report(report, exp_dir):
    for c in report["checks"]:
        tag = "PASS" if c["pass"] else "FAIL"
        thr = "recorded" if c["threshold"] is None else f"threshold={c['threshold']:g}"
        print(f"[{tag}] {c['name']}: value={c['value']:.6g} ({thr})")
    for msg in report["warnings"]:
        print(f"[warn] {msg}")
    verdict = "PASS" if report["overall_pass"] else "FAIL"
    print(f"{report['experiment']}: {verdict} ({report['wall_time_s']:.2f} s); artifacts in {exp_dir}")


def list_experiments_text():
    lines = ["experiment              topic            parameters (all optional; defaults shown)"]
    for name in sorted(EXPERIMENTS):
        entry = EXPERIMENTS[name]
        defaults = ", ".join(f"{k}={v}" for k, v in _defaults(name).items())
        lines.append(f"{name:<23} {entry['topic']:<16} {defaults}")
    return "\n".join(lines)


def _seed_arg(text):
    """``--seed`` value, held to the rule of a config ``seed``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not _SEED.accepts(value):
        raise argparse.ArgumentTypeError(f"must be >= {_SEED_MIN}, got {value}")
    return value


@functools.cache
def _parser():
    """The command-line parser, built on first use and then reused: parsing
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="hamlab",
        description="run conserved-quantity experiments and emit CSV/JSON reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment from a JSON config")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument("--output-dir", default=None, help="override the config output_dir")
    run_p.add_argument("--seed", type=_seed_arg, default=None, help="override the seed parameter")
    run_p.add_argument("--strict", action="store_true", help="treat warnings as failures")
    sub.add_parser("list-experiments", help="print the experiment table")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    if args.command == "list-experiments":
        print(list_experiments_text())
        return 0

    try:
        cfg = load_config(args.config)
        report, code = run_experiment(cfg, args.output_dir, args.seed, args.strict)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HamlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _print_report(report, os.path.join(report["config"]["output_dir"], report["experiment"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
