"""Batch experiment runner.

Each experiment re-runs one of the library's headline checks from a JSON
config, writes CSV artifacts plus a JSON report, and exits 0 only when
every check passes.  Exit codes: 0 all checks pass, 1 a check failed,
2 configuration error, 3 numerical failure inside a module.

Config format::

    {"experiment": "kdv-conservation",
     "parameters": {"t_final": 0.5},
     "output_dir": "out"}

Unknown parameter keys are rejected, every tolerance must be positive,
and all defaults live in the versioned table below, which is echoed into
every report so the thresholds a run was judged against are auditable.
Runs are deterministic: a fixed seed is part of the defaults, so
re-running a config byte-reproduces every CSV artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match
from jsonschema.validators import extend

from . import canonical, kdv, line, string
from .csvio import write_csv, write_json
from .errors import HamlabError

DEFAULTS_VERSION = 1

_POS_NUMBER = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_SEED = {"type": "integer", "minimum": 0}


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
# filename -> (header, rows)


def _run_string_modes(p):
    n = p["n_modes"]
    idx = np.arange(1, n + 1)
    rng = np.random.default_rng(p["seed"])
    # spectrum decaying like 4^(1-n): high modes stay below the drift floor
    amp = 4.0 ** (1.0 - idx)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    m0 = canonical.CanonicalState(amp * np.cos(phase), -idx * amp * np.sin(phase))
    e0 = np.array([string.mode_energy(k, m0.q[k - 1], m0.p[k - 1]) for k in idx])

    worst_exact = 0.0
    for t in np.linspace(0.0, p["t_exact"], p["exact_samples"]):
        mt = string.exact_mode_evolution(m0, t)
        et = np.array([string.mode_energy(k, mt.q[k - 1], mt.p[k - 1]) for k in idx])
        worst_exact = max(worst_exact, float(np.max(np.abs(et - e0) / np.maximum(np.abs(e0), 1.0))))

    sys_ = string.string_system(n)
    obs = string.string_observable_set(n)
    traj = canonical.evolve(sys_, m0, p["dt"], p["steps"], record_stride=p["stride"])
    drift = canonical.conservation_drift(obs, traj)

    checks = [
        _bounded("exact-energy-drift", worst_exact, p["exact_tol"]),
        _bounded("verlet-energy-drift", float(np.max(drift)), p["drift_tol"]),
    ]
    artifacts = {
        "modes.csv": (
            ("n", "a_n", "adot_n"),
            [(int(k), float(m0.q[k - 1]), float(m0.p[k - 1])) for k in idx],
        ),
        "energy_drift.csv": (
            ("n", "E_n", "verlet_drift"),
            [(int(k), float(e0[k - 1]), float(drift[k - 1])) for k in idx],
        ),
        "hamiltonian.csv": (
            ("t", "H"),
            [(float(t), sys_.energy(s)) for t, s in zip(traj.times, traj.states)],
        ),
    }
    return checks, artifacts


def _run_string_hj(p):
    n = p["n_modes"]
    rng = np.random.default_rng(p["seed"])
    # keep both components away from zero so every mode carries energy
    a = rng.uniform(0.4, 1.2, n) * rng.choice([-1.0, 1.0], n)
    adot = rng.uniform(0.4, 1.2, n) * rng.choice([-1.0, 1.0], n)
    m0 = canonical.CanonicalState(a, adot)
    sep = string.separation_constants(m0)
    beta = string.beta_for_state(m0)
    at = string.hj_trajectory(sep, beta)

    rows = []
    worst = 0.0
    for t in np.linspace(0.0, p["t_final"], p["samples"]):
        exact = string.exact_mode_evolution(m0, t)
        hj = at(t)
        err = float(max(np.max(np.abs(hj.q - exact.q)), np.max(np.abs(hj.p - exact.p))))
        worst = max(worst, err)
        rows.append((float(t), err))

    checks = [_bounded("hj-vs-exact", worst, p["match_tol"])]
    artifacts = {
        "hj_error.csv": (("t", "error"), rows),
        "modes.csv": (
            ("n", "a_n", "adot_n"),
            [(k + 1, float(a[k]), float(adot[k])) for k in range(n)],
        ),
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
    B = canonical.involution_matrix(kept, state, h=p["fd_step"])
    J = canonical.completeness_jacobian(kept, state, h=p["fd_step"])
    rep = canonical.CompletenessReport(J, rank_tol=p["rank_tol"])

    checks = [_bounded("involution-max", float(np.max(np.abs(B))), p["involution_tol"])]
    if p["remove"]:
        expected = n - len(p["remove"])
        checks.append(
            _check(
                "expects-incomplete",
                rep.numerical_rank,
                expected,
                (not rep.complete) and rep.numerical_rank == expected,
            )
        )
    else:
        checks.append(_check("expects-complete", rep.numerical_rank, n, rep.complete))

    kept_idx = [int(name.rsplit("_", 1)[1]) for name in kept.names]
    inv_rows = [
        (kept_idx[i], kept_idx[j], float(B[i, j]))
        for i in range(len(kept_idx))
        for j in range(len(kept_idx))
    ]
    sv_rows = [(i + 1, float(s)) for i, s in enumerate(rep.singular_values)]
    artifacts = {
        "involution.csv": (("i", "j", "bracket"), inv_rows),
        "singular_values.csv": (("index", "sigma"), sv_rows),
    }
    return checks, artifacts


def _make_gseries_field(seed, sign):
    rng = np.random.default_rng(seed)

    def bumps(n_bumps, lo, hi, scale):
        amps = scale * rng.uniform(lo, hi, n_bumps)
        centers = rng.uniform(-3.0, 3.0, n_bumps)
        widths = rng.uniform(1.0, 2.0, n_bumps)

        def fn(x):
            out = np.zeros_like(x)
            for A, c, w in zip(amps, centers, widths):
                out = out + A * np.exp(-((x - c) ** 2) / w)
            return out

        return fn

    u_fn = bumps(3, -0.8, 0.8, 1.0)
    # v = x * (bumps of one sign) makes x v single-signed, which pins the
    # sign of p_0 = int x v dx for any seed
    v_bumps = bumps(3, 0.2, 0.9, sign)
    return line.sample_line_field(u_fn, lambda x: x * v_bumps(x))


def _run_line_gseries(p):
    f = _make_gseries_field(p["seed"], p["sign"])
    mc = line.moments(f, p["order"])
    g = line.g_from_moments(mc)
    rows = line.gseries_comparison(mc)
    p_rec = line.recover_momenta_triangular(g, mc.q, p["sign"])

    rel_err = float(np.max(np.abs(p_rec - mc.p)) / np.max(np.abs(mc.p)))
    max_diff = max(abs(r["abs_diff"]) for r in rows)
    checks = [
        _bounded("roundtrip-relative-error", rel_err, p["roundtrip_tol"]),
        _check("comparison-rows", len(rows), p["order"], len(rows) == p["order"]),
        _bounded("formula-vs-oracle-max-diff", max_diff, p["oracle_tol"]),
    ]
    artifacts = {
        "gseries.csv": (
            ("k", "g_formula", "g_oracle", "ratio", "abs_diff"),
            [
                (r["k"], float(r["g_formula"]), float(r["g_oracle"]), float(r["ratio"]), float(r["abs_diff"]))
                for r in rows
            ],
        ),
        "recovery.csv": (
            ("n", "p_true", "p_recovered", "abs_error"),
            [
                (k, float(mc.p[k]), float(p_rec[k]), float(abs(p_rec[k] - mc.p[k])))
                for k in range(p["order"])
            ],
        ),
    }
    return checks, artifacts


def _run_line_velocity_moments(p):
    f0 = line.sample_line_field(
        lambda x: np.exp(-((x - 1.0) ** 2) / 2.0) + 0.3 * np.exp(-((x + 2.0) ** 2) / 3.0),
        lambda x: 0.4 * x * np.exp(-(x**2) / 2.0),
    )
    y_values = p["y_values"]
    orders = (0, 1, 2)
    e0 = {y: line.continuous_mode_energy(f0, y) for y in y_values}
    m0 = {n: line.velocity_moment(f0, n) for n in orders}
    drifts = {y: 0.0 for y in y_values}
    m_drift = {n: 0.0 for n in orders}
    cur = f0
    dt = p["t_final"] / p["steps"]
    for _ in range(p["steps"]):
        cur = line.dalembert_evolve(cur, dt, p["spline_order"])
        for y in y_values:
            drifts[y] = max(drifts[y], abs(line.continuous_mode_energy(cur, y) - e0[y]))
        for n in orders:
            m_drift[n] = max(m_drift[n], abs(line.velocity_moment(cur, n) - m0[n]))

    checks = [_bounded(f"energy-drift-y{y:g}", drifts[y], p["energy_tol"]) for y in y_values]
    checks += [
        _bounded("moment-drift-n0", m_drift[0], p["moment_tol"]),
        _bounded("moment-drift-n1", m_drift[1], p["moment_tol"]),
        # n = 2 genuinely drifts; the measured value is recorded, not judged
        _check("moment-drift-n2", m_drift[2], None, True),
    ]
    artifacts = {
        "energy_drift.csv": (("y", "drift"), [(float(y), float(drifts[y])) for y in y_values]),
        "moment_drift.csv": (("n", "drift"), [(n, float(m_drift[n])) for n in orders]),
        "field_u.csv": (("x", "value"), list(zip(map(float, f0.grid), map(float, f0.u)))),
        "field_v.csv": (("x", "value"), list(zip(map(float, f0.grid), map(float, f0.v)))),
    }
    return checks, artifacts


def _run_kdv_conservation(p):
    f = kdv.soliton_field(p["kappa"], L_domain=p["L_domain"], M=p["M"])
    seg_steps = max(1, round(p["t_final"] / ((p["n_samples"] - 1) * p["dt"])))

    def sample(field):
        c = kdv.kdv_invariants(field)
        return c.I, c.even, kdv.direct_hamiltonian(field)

    I0, even0, H0 = sample(f)
    rows = [(0.0, float(I0[0]), float(I0[1]), float(I0[2]), float(H0))]
    worst_I = np.zeros(3)
    worst_even = float(np.max(np.abs(even0)))
    worst_mass = 0.0
    for _ in range(p["n_samples"] - 1):
        f = kdv.kdv_evolve(f, p["dt"], seg_steps)
        I, even, H = sample(f)
        rows.append((float(f.t), float(I[0]), float(I[1]), float(I[2]), float(H)))
        worst_I = np.maximum(worst_I, np.abs(I - I0) / np.abs(I0))
        worst_even = max(worst_even, float(np.max(np.abs(even))))
        # the mass int u dx is -I_1
        worst_mass = max(worst_mass, abs(I[0] - I0[0]))

    checks = [
        _bounded("I1-relative-drift", worst_I[0], p["drift_tol"]),
        _bounded("I2-relative-drift", worst_I[1], p["drift_tol"]),
        _bounded("I3-relative-drift", worst_I[2], p["drift_tol"]),
        _bounded("even-integral-max", worst_even, p["even_tol"]),
        _bounded("mass-drift", worst_mass, p["mass_tol"]),
    ]
    artifacts = {
        "conserved.csv": (("t", "I_1", "I_2", "I_3", "H_direct"), rows),
        "field.csv": (("x", "value"), list(zip(map(float, f.x), map(float, f.u)))),
    }
    return checks, artifacts


def _sech2_callable(kappa):
    return lambda x: -2.0 * kappa**2 / np.cosh(kappa * np.asarray(x)) ** 2


def _scattering_artifacts(sd):
    """scattering.csv (a(k) and n(k)) and bound.csv (k_l and N_l = k_l^2)."""
    return {
        "scattering.csv": (
            ("k", "re_a", "im_a", "n_k"),
            [
                (float(k), float(a.real), float(a.imag), float(nk))
                for k, a, nk in zip(sd.k_grid, sd.a, sd.n_of_k)
            ],
        ),
        "bound.csv": (
            ("l", "k_l", "N_l"),
            [(i + 1, float(kl), float(Nl)) for i, (kl, Nl) in enumerate(zip(sd.bound_k, sd.N_l))],
        ),
    }


def _run_kdv_scattering(p):
    f = kdv.soliton_field(p["kappa"], L_domain=p["L_domain"], M=p["M"])
    seg_steps = max(1, round(p["t_final"] / ((p["n_times"] - 1) * p["dt"])))

    def probe(field):
        return kdv.scattering_a(kdv.line_window(field), [p["k_probe"]])[0]

    a0 = probe(f)
    drift = 0.0
    for _ in range(p["n_times"] - 1):
        f = kdv.kdv_evolve(f, p["dt"], seg_steps)
        drift = max(drift, abs(probe(f) - a0))

    pot = kdv.sample_potential(_sech2_callable(p["kappa"]))
    k_grid = np.linspace(p["k_min"], p["k_max"], p["n_k"])
    sd = kdv.scattering_data(pot, k_grid, k_max_bound=p["kappa"] + 0.5)

    checks = [
        _bounded("a-probe-drift", drift, p["drift_tol"]),
        _check("bound-state-count", sd.bound_k.size, 1, sd.bound_k.size == 1),
    ]
    if sd.bound_k.size == 1:
        checks.append(_bounded("bound-state-error", abs(sd.bound_k[0] - p["kappa"]), p["bound_tol"]))
    return checks, _scattering_artifacts(sd)


def _run_kdv_action_hamiltonian(p):
    kappa = p["kappa"]
    # the field goes first: a bad M fails before any sweep work
    H_dir = kdv.direct_hamiltonian(kdv.soliton_field(kappa, L_domain=p["L_domain"], M=p["M"]))
    pot = kdv.sample_potential(_sech2_callable(kappa))
    k_grid = np.linspace(p["k_min"], p["k_max"], p["n_k"])
    sd = kdv.scattering_data(pot, k_grid, k_max_bound=p["k_max_bound"])
    H_act = kdv.hamiltonian_from_actions(sd)
    H_closed = -32.0 / 5.0 * kappa**5

    def rel(a, b):
        return abs(a - b) / abs(b)

    checks = [
        _bounded("actions-vs-closed-form", rel(H_act, H_closed), p["rel_tol"]),
        _bounded("direct-vs-closed-form", rel(H_dir, H_closed), p["rel_tol"]),
        _bounded("actions-vs-direct", rel(H_act, H_dir), p["rel_tol"]),
    ]
    return checks, _scattering_artifacts(sd)


# ---------------------------------------------------------------------------
# experiment registry: topic tags, parameter schemas with defaults, runners

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
            "exact_samples": (11, _POS_INT),
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
            "samples": (121, _POS_INT),
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
            "remove": ([], {"type": "array", "items": _POS_INT, "uniqueItems": True}),
        },
    },
    "line-gseries": {
        "topic": "infinite-string",
        "runner": _run_line_gseries,
        "parameters": {
            "order": (5, _POS_INT),
            "seed": (5, _SEED),
            "sign": (1, {"enum": [1, -1]}),
            "roundtrip_tol": (1e-8, _POS_NUMBER),
            "oracle_tol": (1e-10, _POS_NUMBER),
        },
    },
    "line-velocity-moments": {
        "topic": "infinite-string",
        "runner": _run_line_velocity_moments,
        "parameters": {
            "y_values": ([0.5, 1.0, 2.0], {"type": "array", "items": _POS_NUMBER, "minItems": 1}),
            "t_final": (1.0, _POS_NUMBER),
            "steps": (4, _POS_INT),
            "spline_order": (2, {"enum": [2, 3]}),
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
            "n_samples": (11, {"type": "integer", "minimum": 2}),
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
            "n_times": (3, {"type": "integer", "minimum": 2}),
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


def _config_schema(experiment):
    props = {name: spec[1] for name, spec in EXPERIMENTS[experiment]["parameters"].items()}
    return {
        "type": "object",
        "required": ["experiment"],
        "additionalProperties": False,
        "properties": {
            "experiment": {"const": experiment},
            "output_dir": {"type": "string"},
            "parameters": {
                "type": "object",
                "additionalProperties": False,
                "properties": props,
            },
        },
    }


# JSON Schema counts 8.0 as an integer; the runners need a Python int
_Validator = extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)


def _reject_constant(token):
    # Python's json accepts NaN, Infinity and -Infinity; JSON does not
    raise ConfigError(f"{token} is not a JSON number")


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {sorted(EXPERIMENTS)}; got {name!r}")
    # the schemas are ours and fixed, so they are not re-checked per run
    # (tests check them against the metaschema once)
    exc = best_match(_Validator(_config_schema(name)).iter_errors(cfg))
    if exc is not None:
        field = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"field {field}: {exc.message}")
    return cfg


_revision = None


def _source_revision():
    """Short git revision of the loaded source, looked up once per process:
    the code a process runs cannot change under it."""
    global _revision
    if _revision is None:
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

    for fname, (header, rows) in artifacts.items():
        _write_artifact(write_csv, os.path.join(exp_dir, fname), header, rows)

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
    if value < _SEED["minimum"]:
        raise argparse.ArgumentTypeError(f"must be >= {_SEED['minimum']}, got {value}")
    return value


def main(argv=None):
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
    args = parser.parse_args(argv)

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
