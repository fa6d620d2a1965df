"""Cold-start wall times of two hamlab source trees, as a before/after pair.

    python tools/cold_start.py PARENT_SRC CHANGE_SRC OUT_JSON

Each source argument is a directory holding the ``hamlab`` package, such as
the ``src/`` of a checkout.  Nine commands are timed in fresh interpreters
with one BLAS thread: ``import hamlab.cli``, and ``hamlab run`` of each of
the eight experiments at its defaults through the runner of
``same_outputs.py``.  Each of the 10 pairs runs every command once per tree;
the tree that goes first alternates from pair to pair, so each leads half
of them.  Every run's wall seconds are stored next to its exit code and its
report checks (name, value, threshold, pass), so a faster run with another
result shows.  One more untimed run per experiment and tree, under ``-v``,
records which SciPy subpackages the run loaded.

OUT_JSON gets, per command and tree, the median and quartiles and every
run, plus the number of pairs the change was faster.  A summary goes to
stdout.  The exit code is 0 when every run of a command, on both trees,
has the same exit code and checks; 1 otherwise, naming the commands that
differ; 2 for bad arguments.
"""

import hashlib
import json
import os
import platform
import re
import statistics
import sys
import tempfile

import numpy
import scipy

from same_outputs import EXPERIMENTS, fresh_interpreter, report_checks, run_config

PAIRS = 10
IMPORT = "import hamlab.cli"
COMMANDS = (IMPORT, *EXPERIMENTS)
TREES = ("parent", "change")


def measure(src, command):
    """One timed run of ``command``, ``IMPORT`` or an experiment name."""
    with tempfile.TemporaryDirectory() as work:
        if command == IMPORT:
            proc, seconds = fresh_interpreter(src, ["-c", IMPORT], work)
            return {"s": seconds, "exit code": proc.returncode}
        proc, seconds, exp_dir = run_config(src, command, {}, work)
        return {"s": seconds, "exit code": proc.returncode, "checks": report_checks(exp_dir)}


def scipy_loaded(src, experiment):
    """Public SciPy subpackages one run of ``experiment`` loads.  ``-v``
    logs every module load, including SciPy's own lazy ``import_module``
    ones, which ``-X importtime`` misses."""
    with tempfile.TemporaryDirectory() as work:
        proc, _, _ = run_config(src, experiment, {}, work, flags=("-v",))
    lines = proc.stderr.decode().splitlines()
    loads = (re.match(r"import '(scipy\.[a-z]\w*)'", ln) for ln in lines)
    return sorted({m.group(1) for m in loads if m})


def source_digest(src):
    """sha256 over the package's .py files, naming the tree without a path."""
    pkg = os.path.join(src, "hamlab")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def host():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
    }


def summary(runs):
    times = [r["s"] for r in runs]
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median_s": statistics.median(times), "q1_s": q1, "q3_s": q3, "runs": runs}


def main(argv):
    if len(argv) != 3 or not all(
        os.path.isfile(os.path.join(d, "hamlab", "cli.py")) for d in argv[:2]
    ):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: cold_start.py PARENT_SRC CHANGE_SRC OUT_JSON", file=sys.stderr)
        return 2
    srcs = dict(zip(TREES, argv[:2]))
    runs = {cmd: {tree: [] for tree in TREES} for cmd in COMMANDS}
    for pair in range(PAIRS):
        order = TREES if pair % 2 == 0 else TREES[::-1]
        for cmd in COMMANDS:
            for tree in order:
                runs[cmd][tree].append(measure(srcs[tree], cmd))
        print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr, flush=True)

    measurements = {}
    differ = []
    for cmd, by_tree in runs.items():
        entry = {tree: summary(by_tree[tree]) for tree in TREES}
        entry["change_faster_pairs"] = sum(
            c["s"] < p["s"] for p, c in zip(by_tree["parent"], by_tree["change"])
        )
        results = {
            json.dumps([r["exit code"], r.get("checks")]) for tree in TREES for r in by_tree[tree]
        }
        entry["same_results"] = len(results) == 1
        if not entry["same_results"]:
            differ.append(cmd)
        if cmd != IMPORT:
            for tree in TREES:
                entry[tree]["scipy_loaded"] = scipy_loaded(srcs[tree], cmd)
        measurements[cmd] = entry

    bench = {
        "what": "fresh-interpreter wall seconds of `import hamlab.cli` and of "
        "`hamlab run` at defaults; each run next to its exit code and report checks",
        "tool": "tools/cold_start.py",
        "pairs": PAIRS,
        "host": host(),
        "source_sha256": {tree: source_digest(srcs[tree]) for tree in TREES},
        "measurements": measurements,
    }
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")

    print(f"{'command':<24} {'parent s (q1-q3)':>22} {'change s (q1-q3)':>22}  faster  same")
    for cmd, entry in measurements.items():
        cols = [
            f"{entry[t]['median_s']:.3f} ({entry[t]['q1_s']:.3f}-{entry[t]['q3_s']:.3f})"
            for t in TREES
        ]
        print(
            f"{cmd:<24} {cols[0]:>22} {cols[1]:>22}  {entry['change_faster_pairs']:>2}/{PAIRS}"
            f"   {'yes' if entry['same_results'] else 'NO'}"
        )
    if differ:
        print(f"results differ: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
