"""Check that two hamlab source trees produce the same outputs.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``hamlab`` package, such as the
``src/`` of a checkout.  Every config of a fixed set runs once per tree
through ``python -m hamlab.cli run``, each in a fresh interpreter with one
BLAS thread.  A config matches when the two runs have the same exit code,
the same sha256 for every CSV artifact, and the same report.json checks
(name, value, threshold, pass).  One line per config goes to stdout.  The
exit code is 0 when every config matches and 1 otherwise, after listing
the configs that differ; 2 for bad arguments.

The config set is the eight experiments at their defaults, line-gseries
at seeds 0-3 at defaults and with order 8 and sign -1, kdv-scattering and
kdv-action-hamiltonian at kappa 0.95 and 1.05, and a shortened
kdv-conservation at kappa 0.8.
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
    + [
        ("line-gseries", {"seed": seed, **extra})
        for seed in range(4)
        for extra in ({}, {"order": 8, "sign": -1})
    ]
    + [("kdv-scattering", {"kappa": kappa}) for kappa in KAPPAS]
    + [("kdv-action-hamiltonian", {"kappa": kappa, "k_max_bound": kappa + 0.5}) for kappa in KAPPAS]
    + [("kdv-conservation", {"kappa": 0.8, "t_final": 0.5})]
)
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


def report_checks(exp_dir):
    """[name, value, threshold, pass] of each check in report.json, or None
    when the run wrote no report."""
    path = os.path.join(exp_dir, "report.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return [[c["name"], c["value"], c["threshold"], c["pass"]] for c in report["checks"]]


def outputs(src, experiment, parameters):
    """Exit code, CSV digests and report checks of one run against ``src``."""
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
    return {"exit code": proc.returncode, "CSV sha256": digests, "report checks": checks}


def main(argv):
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(d, "hamlab", "cli.py")) for d in argv):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: same_outputs.py PARENT_SRC CHANGE_SRC (each holding hamlab/)", file=sys.stderr)
        return 2
    parent_src, change_src = argv
    differ = []
    for experiment, parameters in CONFIGS:
        label = f"{experiment} {json.dumps(parameters)}"
        before = outputs(parent_src, experiment, parameters)
        after = outputs(change_src, experiment, parameters)
        diffs = [key for key in before if before[key] != after[key]]
        line = f"{label} (exit {before['exit code']}, {len(before['CSV sha256'])} CSVs)"
        print(f"differ {line}: {', '.join(diffs)}" if diffs else f"same   {line}", flush=True)
        if diffs:
            differ.append((label, diffs))
    if differ:
        print(f"{len(differ)} of {len(CONFIGS)} configs differ:")
        for label, diffs in differ:
            print(f"  {label}: {', '.join(diffs)}")
        return 1
    print(f"all {len(CONFIGS)} configs match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
