"""CSV artifacts do not depend on the BLAS/OpenMP thread count.

Each experiment runs in two fresh interpreters, one with one thread and
one with two, and every CSV must come out byte-identical.
"""

import json
import os
import subprocess
import sys

import pytest

import hamlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hamlab.__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def run_with_threads(tmp_path, payload, threads):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / f"threads{threads}"
    env = dict(os.environ, PYTHONPATH=SRC, **{v: str(threads) for v in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-m", "hamlab.cli", "run", str(cfg), "--output-dir", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    exp_dir = out / payload["experiment"]
    return {p.name: p.read_bytes() for p in sorted(exp_dir.glob("*.csv"))}


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "string-completeness", "parameters": {"n_modes": 24}},
        {"experiment": "kdv-scattering"},
    ],
    ids=["string-completeness-N24", "kdv-scattering"],
)
def test_csv_bytes_independent_of_thread_count(tmp_path, payload):
    one = run_with_threads(tmp_path, payload, 1)
    two = run_with_threads(tmp_path, payload, 2)
    assert one and one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
