"""Check that two hamlab source trees produce the same outputs.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``hamlab`` package, such as the
``src/`` of a checkout.  Every config of a fixed set runs once per tree
through ``python -m hamlab.cli run``, each in a fresh interpreter with one
BLAS thread.  A config matches when the two runs have the same exit code,
the same sha256 for every CSV artifact, the same report.json checks
(name, value, threshold, pass) and the same report.json error record
(type, message and the error's fields, such as a blow-up's stepper, step
and last time).  A config of the rejected set matches only
when both runs also exit 2 (a configuration error) and write no report.
One line per config goes to stdout.  The exit code is 0 when every config
matches and 1 otherwise, after listing the configs that differ; 2 for bad
arguments.

The config set is the eight experiments at their defaults, string-modes
with 2500 steps at stride 1000, with 3000 steps at stride 1 and with 7
steps at stride 1000 (two recorded rows, from one block shorter than the
stride), string-hj
at seed 1, at seed 99 with 16 modes and with one mode, string-hj with 1000
sample times to t_final 50 and string-modes with 101 exact samples (the
flows on an array of times past the default sizes), line-gseries at
seeds 0-3 at defaults and with order 8 and sign -1, line-gseries at order
1 (a one-entry g) and at order 85 (the highest order whose factorials fit
a double), line-velocity-moments over 8 steps at y 0.25 and 3, with the
JSON integers 1 and 2 as y_values (integers in a float column), with
five y values over 6 steps, and at its defaults over 256 steps (a step of
4 grid spacings, which turns the modes at a quarter of the grid's Nyquist
wavenumber and at that wavenumber by whole periods), kdv-scattering and
kdv-action-hamiltonian at kappa 0.95 and 1.05, kdv-scattering with 5
sample times (more line windows), kdv-action-hamiltonian with k_max_bound
0.04 (no bound state: a header-only bound.csv and exit 1), with
k_max_bound 1 (the soliton's kappa 1 is the last scan sample) and with
300 k (one chunk per block of the Magnus sweep), a shortened
kdv-conservation at kappa 0.8, and kdv-conservation over one segment of
203 steps (a kdv_evolve call that ends in a partial block of its
finiteness check), and kdv-conservation to t_final 0.05 at 2 samples on 256 modes and on
1024 modes over L_domain 60 (transform sizes other than 512).
Two configs must blow up (exit 3, no checks, so their error records are
what is compared): string-modes with dt 0.5 over 20000 steps (a Verlet
step unstable for the upper modes) and kdv-conservation with dt 0.05 to
t_final 5 at 2 samples (past the KdV stability guard).  Three configs
probe the scattering window: kdv-action-hamiltonian at kappa 0.5 with
L_domain 80 and k_max_bound 1, and kdv-scattering at kappa 0.5 with
L_domain 80, t_final 0.01 and dt 0.001 (a soliton too wide for the
default 40-wide window), and kdv-action-hamiltonian with k_max_bound
35.4 (a passing scan to 35.4: the field's window ends at 19.92, where
the sweep stays in range).  Two more end at exit 3, so their error
records are what is compared: kdv-action-hamiltonian with k_max_bound
35.4 on M 2048 (its window ends at 19.98, and the Jost sweep overflows
after a launch that does not underflow) and with k_max_bound 35.45 (a
launch value that underflows).  Two run the Jost sweep on cells
narrowed by the phase limit |k| h <= 0.2: kdv-action-hamiltonian with
k_max_bound 25 (a scan of 500 kappa) and with k_max 30 (a real-k table).

The rejected set holds one config per kind of parameter rule:
string-modes with n_modes 8.0 (a float for an integer), string-hj with an
unknown parameter, kdv-conservation with dt 0, string-hj with seed -1,
string-completeness with remove [1, 1] (a repeat), line-velocity-moments
with no y_values, line-gseries with sign 2, kdv-conservation with
n_samples 1, and kdv-scattering with t_final true (a bool for a number).
Two more hold a reversed k range (k_min 3, k_max 0.5), which the check
on the k grid of ``kdv.continuum_actions`` rejects: kdv-scattering
shortened to two steps of 5e-4, and kdv-action-hamiltonian.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

EXPERIMENTS = (
    "string-modes",
    "string-hj",
    "string-completeness",
    "line-gseries",
    "line-velocity-moments",
    "kdv-conservation",
    "kdv-scattering",
    "kdv-action-hamiltonian",
)
KAPPAS = (0.95, 1.05)
CONFIGS = (
    [(name, {}) for name in EXPERIMENTS]
    + [("string-modes", {"steps": 2500, "stride": 1000}), ("string-modes", {"steps": 3000, "stride": 1})]
    + [("string-modes", {"steps": 7, "stride": 1000})]
    + [("string-hj", {"seed": 1}), ("string-hj", {"seed": 99, "n_modes": 16}), ("string-hj", {"n_modes": 1})]
    + [("string-hj", {"samples": 1000, "t_final": 50}), ("string-modes", {"exact_samples": 101})]
    + [
        ("line-gseries", {"seed": seed, **extra})
        for seed in range(4)
        for extra in ({}, {"order": 8, "sign": -1})
    ]
    + [("line-gseries", {"order": 1}), ("line-gseries", {"order": 85})]
    + [("line-velocity-moments", {"steps": 8, "y_values": [0.25, 3.0]}), ("line-velocity-moments", {"y_values": [1, 2]})]
    + [("line-velocity-moments", {"y_values": [0.05, 0.5, 3.0, 7.5, 12.0], "steps": 6})]
    + [("line-velocity-moments", {"steps": 256})]
    + [("kdv-scattering", {"kappa": kappa}) for kappa in KAPPAS]
    + [("kdv-scattering", {"n_times": 5})]
    + [("kdv-action-hamiltonian", {"kappa": kappa, "k_max_bound": kappa + 0.5}) for kappa in KAPPAS]
    + [("kdv-action-hamiltonian", {"k_max_bound": 0.04}), ("kdv-action-hamiltonian", {"k_max_bound": 1.0})]
    + [("kdv-action-hamiltonian", {"n_k": 300})]
    + [("kdv-conservation", {"kappa": 0.8, "t_final": 0.5})]
    + [("kdv-conservation", {"t_final": 0.0203, "n_samples": 2})]
    + [("kdv-conservation", {"M": 256, "t_final": 0.05, "n_samples": 2})]
    + [("kdv-conservation", {"M": 1024, "L_domain": 60.0, "t_final": 0.05, "n_samples": 2})]
    + [("string-modes", {"dt": 0.5, "steps": 20000})]
    + [("kdv-conservation", {"dt": 0.05, "t_final": 5.0, "n_samples": 2})]
    + [("kdv-action-hamiltonian", {"kappa": 0.5, "L_domain": 80, "k_max_bound": 1.0})]
    + [("kdv-scattering", {"kappa": 0.5, "L_domain": 80, "t_final": 0.01, "dt": 0.001})]
    + [("kdv-action-hamiltonian", {"k_max_bound": 35.4})]
    + [("kdv-action-hamiltonian", {"k_max_bound": 35.4, "M": 2048}), ("kdv-action-hamiltonian", {"k_max_bound": 35.45})]
    + [("kdv-action-hamiltonian", {"k_max_bound": 25.0}), ("kdv-action-hamiltonian", {"k_max": 30.0})]
)
REJECTED = (
    ("string-modes", {"n_modes": 8.0}),
    ("string-hj", {"bogus": 1}),
    ("kdv-conservation", {"dt": 0}),
    ("string-hj", {"seed": -1}),
    ("string-completeness", {"remove": [1, 1]}),
    ("line-velocity-moments", {"y_values": []}),
    ("line-gseries", {"sign": 2}),
    ("kdv-conservation", {"n_samples": 1}),
    ("kdv-scattering", {"t_final": True}),
    ("kdv-scattering", {"k_min": 3.0, "k_max": 0.5, "t_final": 1e-3, "dt": 5e-4}),
    ("kdv-action-hamiltonian", {"k_min": 3.0, "k_max": 0.5}),
)
# what a rejected config gives: exit 2, no CSV and no report
REJECTION = {"exit code": 2, "CSV sha256": {}, "report checks": "null", "report error": "null"}
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def fresh_interpreter(src, args, cwd):
    """Run ``python ARGS`` in ``cwd`` against ``src``, in a fresh interpreter
    with one BLAS thread; returns (completed process, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **ONE_THREAD)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True)
    return proc, time.perf_counter() - start


def run_config(src, experiment, parameters, work, flags=()):
    """Run one config through ``python FLAGS -m hamlab.cli run`` against
    ``src``, its files under ``work``; returns (completed process, wall
    seconds, experiment directory)."""
    cfg = os.path.join(work, "config.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"experiment": experiment, "parameters": parameters}, fh)
    out = os.path.join(work, "out")
    proc, seconds = fresh_interpreter(
        src, [*flags, "-m", "hamlab.cli", "run", cfg, "--output-dir", out], work
    )
    return proc, seconds, os.path.join(out, experiment)


def read_report(exp_dir):
    """report.json as a dict, or None when the run wrote no report."""
    path = os.path.join(exp_dir, "report.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report_checks(exp_dir):
    """[name, value, threshold, pass] of each check in report.json, or None
    when the run wrote no report."""
    report = read_report(exp_dir)
    if report is None:
        return None
    return [[c["name"], c["value"], c["threshold"], c["pass"]] for c in report["checks"]]


def outputs(src, experiment, parameters):
    """Exit code, CSV digests, report checks and report error record of one
    run against ``src``."""
    with tempfile.TemporaryDirectory() as work:
        proc, _, exp_dir = run_config(src, experiment, parameters, work)
        digests = {}
        if os.path.isdir(exp_dir):
            for name in sorted(os.listdir(exp_dir)):
                if name.endswith(".csv"):
                    with open(os.path.join(exp_dir, name), "rb") as fh:
                        digests[name] = hashlib.sha256(fh.read()).hexdigest()
        # compared as JSON text, so a NaN value equals itself
        checks = json.dumps(report_checks(exp_dir))
        error = json.dumps((read_report(exp_dir) or {}).get("error"))
    return {
        "exit code": proc.returncode,
        "CSV sha256": digests,
        "report checks": checks,
        "report error": error,
    }


def main(argv):
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(d, "hamlab", "cli.py")) for d in argv):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: same_outputs.py PARENT_SRC CHANGE_SRC (each holding hamlab/)", file=sys.stderr)
        return 2
    parent_src, change_src = argv
    differ = []
    configs = [(*c, False) for c in CONFIGS] + [(*c, True) for c in REJECTED]
    for experiment, parameters, rejected in configs:
        label = f"{experiment} {json.dumps(parameters)}"
        before = outputs(parent_src, experiment, parameters)
        after = outputs(change_src, experiment, parameters)
        diffs = [key for key in before if before[key] != after[key]]
        if rejected and not diffs and before != REJECTION:
            diffs = ["not rejected"]
        line = f"{label} (exit {before['exit code']}, {len(before['CSV sha256'])} CSVs)"
        print(f"differ {line}: {', '.join(diffs)}" if diffs else f"same   {line}", flush=True)
        if diffs:
            differ.append((label, diffs))
    if differ:
        print(f"{len(differ)} of {len(configs)} configs differ:")
        for label, diffs in differ:
            print(f"  {label}: {', '.join(diffs)}")
        return 1
    print(f"all {len(configs)} configs match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
