"""Verdict-latency benchmark for hamlab.

Drives whole verdicts through ``hamlab.cli.main(["run", <config>,
"--output-dir", ..., "--seed", ...])`` from one process, one verdict at a
time (a closed loop with one client), with BLAS/OpenMP pools capped at one
thread.  A pass runs every verdict of the workload once.  One untimed
warm-up pass (first calls pay for lazy imports and cold caches) is followed
by timed passes with the same inputs until ``--seconds``, counted from the
start of the warm-up, have elapsed (at least two timed passes).  Every pass
is checked, and its CSV bytes are compared with the warm-up's.

    python3 perfbench/run.py --workload kdv-scattering --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` alternates untraced and traced passes and reports the per-layer
metrics, taken from spans recorded around hamlab's public functions (see
``tracer.py``).  The last line of stdout is one JSON object; its
``attempted`` is the number of distinct verdicts of the workload and
``failed`` the number of those that failed on any pass, so both depend on
the seed alone and not on how many passes fit in ``--seconds``.  A
readable summary, with the names of failing checks, goes to stderr.  Run
metadata, per-experiment timings and sha256 digests of every CSV artifact
are written to ``.perfbench_out/<workload>/result.json``.  Run from the
repository root, which must hold ``src/hamlab``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
THREAD_CAP = "1"
# set before numpy is imported anywhere in this process or its children
for _var in THREAD_VARS:
    os.environ[_var] = THREAD_CAP

import argparse
import importlib.metadata
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import verify  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 2

# spans whose self time is a per-layer metric
SELF_TIMES = (
    "canonical.evolve",
    "canonical.poisson_bracket",
    "canonical.involution_matrix",
    "canonical.completeness_jacobian",
    "canonical.conservation_drift",
    "line.moments",
    "line.gseries_comparison",
    "kdv.kdv_evolve",
    "kdv.schrodinger_a",
    "kdv.bound_states",
    "kdv.scattering_data",
    "cli.load_config",
    "csvio.write_csv",
    "csvio.write_json",
)
CALL_COUNTS = (
    "canonical.symplectic_step",
    "canonical.poisson_bracket",
    "kdv.schrodinger_a",
)
# per-layer accuracy metrics: (experiment, check-name prefix) in report.json
ACCURACY_CHECKS = {
    "canonical.evolve.energy_drift": ("string-modes", "verlet-energy-drift"),
    "canonical.involution_matrix.max_abs": ("string-completeness", "involution-max"),
    "string.hj_vs_exact": ("string-hj", "hj-vs-exact"),
    "line.gseries.oracle_diff": ("line-gseries", "formula-vs-oracle-max-diff"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {path}: {exc}")


def write_configs(verdicts, config_dir):
    os.makedirs(config_dir, exist_ok=True)
    paths = []
    for v in verdicts:
        path = os.path.join(config_dir, f"{v.id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(v.config(), fh)
        paths.append(path)
    return paths


def setup(workload, seed, work_dir):
    """Import hamlab in a fresh interpreter and generate the configs, several
    times; returns (median seconds, verdicts, config paths)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import hamlab.cli"],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        verdicts = workloads.make(workload, seed)
        paths = write_configs(verdicts, os.path.join(work_dir, "configs"))
        times.append(perf_counter() - t0)
    return statistics.median(times), verdicts, paths


def run_pass(cli, argvs, request_ids, tracer=None):
    """One closed-loop pass; returns (pass seconds, per-verdict seconds, outcomes)."""
    times, outcomes = [], []
    start = perf_counter()
    for argv, request_id in zip(argvs, request_ids):
        if tracer is not None:
            tracer.verdict = request_id
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:  # a raising verdict is a failed verdict, not a crash
            code = None
            sink.write(traceback.format_exc())
        times.append(perf_counter() - t0)
        outcomes.append((code, sink.getvalue()))
    return perf_counter() - start, times, outcomes


class Checker:
    """Judges every verdict of every pass; remembers first-pass digests and
    the source revision the CLI wrote into its reports."""

    def __init__(self, verdicts, work_dir, analytic_a):
        self.verdicts = verdicts
        self.work_dir = work_dir
        self.analytic_a = analytic_a
        self.digests = {}
        self.failures = []
        self.margins = []
        self.accuracy = {}
        self.runs = 0
        self.revision = None

    def exp_dir(self, v):
        return os.path.join(self.work_dir, "runs", v.id, v.experiment)

    def check_pass(self, pass_index, outcomes):
        for v, (code, output) in zip(self.verdicts, outcomes):
            self.runs += 1
            exp_dir = self.exp_dir(v)
            report = verify.read_report(exp_dir)
            reasons = []
            if code is None:
                reasons.append("exception: " + output.strip().splitlines()[-1])
            elif report is None:
                reasons.append(f"exit {code} without report.json: {output.strip()[-200:]}")
            else:
                self.revision = self.revision or report["revision"]
                if code != 0:
                    reasons += [c["name"] for c in report["checks"] if not c["pass"]]
                    reasons = reasons or [f"exit {code}: {output.strip()[-200:]}"]
                self._record_accuracy(v.experiment, report)
                reasons += verify.oracle_failures(
                    v.experiment, v.parameters, exp_dir, self.analytic_a, self.accuracy
                )
                digests = verify.csv_digests(exp_dir)
                first = self.digests.setdefault(v.id, digests)
                reasons += [
                    f"csv-bytes:{name}"
                    for name in sorted(set(first) | set(digests))
                    if first.get(name) != digests.get(name)
                ]
            if not reasons:
                self.margins.append(verify.check_margin(report))
                continue
            known = (
                verify.known_defect(v.experiment, reasons, exp_dir, report)
                if code == 1
                else None
            )
            failure = {"pass": pass_index, "verdict": v.id, "experiment": v.experiment}
            if known is None:
                failure.update(reasons=reasons, known=False)
            else:
                failure.update(reasons=[known[0]], known=True, error_after_sign_fix=known[1])
            self.failures.append(failure)

    def failed_ids(self):
        """Verdicts that failed on any pass.  A verdict is counted once however
        many passes ran it, so a seed gives the same count on every run."""
        return {f["verdict"] for f in self.failures}

    def _record_accuracy(self, experiment, report):
        for metric, (exp, prefix) in ACCURACY_CHECKS.items():
            if exp != experiment:
                continue
            for c in report["checks"]:
                if c["name"].startswith(prefix):
                    self.accuracy[metric] = max(self.accuracy.get(metric, 0.0), c["value"])


def tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(times)[n - 11], "samples": n}


def end_to_end_metrics(setup_s, passes, verdicts, peak_rss_mb):
    by_exp = {}
    for p in passes:
        if not p["traced"]:
            for v, t in zip(verdicts, p["verdict_s"]):
                by_exp.setdefault(v.experiment, []).append(t)
    medians = {exp: statistics.median(ts) for exp, ts in by_exp.items()}
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p["pass_s"] for p in passes if not p["traced"]),
        "verdict_s.slowest_exp": max(medians.values()),
        "verdict_s.fastest_exp": min(medians.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    pooled = [t for ts in by_exp.values() for t in ts]
    return metrics, {"verdict_s": medians, "verdict_s_tail": tail(pooled)}


def per_layer_metrics(tracer, passes, checker):
    """Per-layer metrics per traced pass (0 where a workload skips a layer)."""
    traced = [p["pass_s"] for p in passes if p["traced"]]
    untraced = [p["pass_s"] for p in passes if not p["traced"]]
    n = len(traced)
    pass_time = sum(traced) / n
    spans = tracer.summary()
    counters = {name: count / n for name, count in tracer.counters.items()}

    def get(name, key):
        return spans.get(name, {}).get(key, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, scale):
        return scale * ratio(get(name, "total_s"), get(name, "calls"))

    def layer_sum(layer, key):
        return sum(a[key] for name, a in spans.items() if name.startswith(layer + ".")) / n

    m = {f"{name}.self_s": get(name, "self_s") for name in SELF_TIMES}
    m.update({f"{name}.calls": get(name, "calls") for name in CALL_COUNTS})
    for name in ("canonical.state_builds", "kdv.kdv_evolve.steps", "kdv.jost.rhs_evals",
                 "csvio.bytes_written"):
        m[name] = counters.get(name, 0.0)
    m["canonical.symplectic_step.us_per_call"] = per_call("canonical.symplectic_step", 1e6)
    m["kdv.schrodinger_a.ms_per_call"] = per_call("kdv.schrodinger_a", 1e3)
    m["kdv.kdv_evolve.us_per_step"] = 1e6 * ratio(
        get("kdv.kdv_evolve", "total_s"), m["kdv.kdv_evolve.steps"]
    )
    m["kdv.bound_states.a_evals_per_root"] = ratio(
        tracer.child_calls("kdv.schrodinger_a", "kdv.bound_states") / n,
        counters.get("kdv.bound_states.roots", 0.0),
    )
    m["string.self_s"] = layer_sum("string", "self_s")
    m["string.calls"] = layer_sum("string", "calls")
    m["cli.self_s"] = get("cli.main", "self_s") + get("cli.run_experiment", "self_s")
    m["cli.source_revision.wait_s"] = get("cli.source_revision", "total_s")
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_sum(layer, "self_s") / pass_time
    m["kdv.schrodinger_a.share"] = get("kdv.schrodinger_a", "total_s") / pass_time
    m["verdict.check_margin"] = max(checker.margins, default=0.0)
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    for name in [*ACCURACY_CHECKS, *verify.ORACLE_ERRORS]:
        m[name] = checker.accuracy.get(name, 0.0)
    return m


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(workload, seed, seconds, trace):
    spec = load_spec()
    if not os.path.isfile(os.path.join(SRC, "hamlab", "cli.py")):
        fail(f"no hamlab sources under {SRC}; run from the repository root")
    work_dir = os.path.join(OUT, workload)
    shutil.rmtree(work_dir, ignore_errors=True)

    setup_s, verdicts, config_paths = setup(workload, seed, work_dir)

    sys.path.insert(0, SRC)
    import hamlab
    import hamlab.cli as cli
    from hamlab.kdv import analytic_soliton_a

    if not os.path.abspath(hamlab.__file__).startswith(SRC + os.sep):
        fail(f"imported hamlab from {hamlab.__file__}, not from {SRC}")

    argvs = [
        v.argv(path, os.path.join(work_dir, "runs", v.id))
        for v, path in zip(verdicts, config_paths)
    ]
    checker = Checker(verdicts, work_dir, analytic_soliton_a)
    tracer = Tracer(hamlab) if trace else None
    deadline = perf_counter() + seconds
    _, _, outcomes = run_pass(cli, argvs, [f"warmup/{v.id}" for v in verdicts])
    checker.check_pass("warmup", outcomes)
    passes = []
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        traced = bool(trace) and len(passes) % 2 == 1
        request_ids = [f"{len(passes)}/{v.id}" for v in verdicts]
        if traced:
            tracer.install()
        try:
            pass_s, verdict_s, outcomes = run_pass(
                cli, argvs, request_ids, tracer if traced else None
            )
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "pass_s": pass_s, "verdict_s": verdict_s})
        checker.check_pass(len(passes) - 1, outcomes)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, timings = end_to_end_metrics(setup_s, passes, verdicts, peak_rss_mb)
    values = per_layer_metrics(tracer, passes, checker) if trace else e2e
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    unexpected = [f for f in checker.failures if not f["known"]]
    failed = len(checker.failed_ids())
    result = {
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_info(),
        "git_revision": checker.revision,
        "verdicts": [
            {"id": v.id, "experiment": v.experiment, "parameters": v.parameters, "seed": v.seed}
            for v in verdicts
        ],
        "passes": passes,
        "verdict_runs": checker.runs,
        "failed_frac": failed / len(verdicts),
        "failures": checker.failures,
        "artifact_sha256": checker.digests,
        **timings,
        "result": result,
    }
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if trace:
        with open(os.path.join(work_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "verdict", "start", "end", "parent"], "spans": tracer.spans}, fh)
    print_summary(details, sys.stderr)
    return result


def print_summary(details, out):
    result = details["result"]
    print(f"== {details['workload']} (seed {details['seed']}, trace {details['trace']})", file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}", file=out)
    for exp, t in sorted(details["verdict_s"].items()):
        print(f"  verdict_s.{exp:<34} {t:.6g} s", file=out)
    tl = details["verdict_s_tail"]
    if tl:
        print(
            f"  verdict_s_tail (p{tl['percentile']:.2f}, {tl['samples']} verdicts)"
            f"{'':<6} {tl['value_s']:.6g} s",
            file=out,
        )
    print(
        f"  failed_frac {details['failed_frac']:.4g} ({result['failed']} of "
        f"{result['attempted']} verdicts; {details['verdict_runs']} runs over "
        f"{len(details['passes'])} passes)",
        file=out,
    )
    reasons = {}
    for f in details["failures"]:
        for r in f["reasons"]:
            key = f"{f['experiment']}: {r}"
            reasons[key] = reasons.get(key, 0) + 1
    for key, count in sorted(reasons.items()):
        print(f"    {count} x {key}", file=out)
    errors = [f["error_after_sign_fix"] for f in details["failures"] if f["known"]]
    if errors:
        print(f"    known defects: max round-trip error with p0's sign corrected {max(errors):.3g}",
              file=out)


def run_all(seed, seconds, trace):
    """Run every workload in its own process, one after another; each prints
    its summary to stderr."""
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.DEVNULL,
        )
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
