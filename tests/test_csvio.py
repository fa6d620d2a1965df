"""Artifact writer tests: atomic replacement under concurrent writers."""

import os
import stat
import sys
import threading

from hamlab.csvio import write_csv


def test_concurrent_writers_of_one_path(tmp_path):
    path = str(tmp_path / "table.csv")
    n_writers, n_writes, width = 4, 200, 50
    texts = {}
    errors = []

    def writer(w):
        rows = [[w] * width for _ in range(20)]
        lines = [",".join(["c"] * width)] + [",".join([str(w)] * width)] * len(rows)
        texts[w] = "\n".join(lines) + "\n"
        try:
            for _ in range(n_writes):
                write_csv(path, ["c"] * width, rows)
        except Exception as exc:  # recorded and asserted on below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(w,)) for w in range(n_writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    with open(path, encoding="utf-8") as fh:
        assert fh.read() in texts.values()
    assert os.listdir(tmp_path) == ["table.csv"]


def test_artifact_keeps_umask_mode(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a"], [[1]])
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
