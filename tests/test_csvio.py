"""Artifact writer tests: the column format and atomic replacement under
concurrent writers."""

import os
import stat
import sys
import threading

import numpy as np
import pytest

from hamlab.csvio import write_csv


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def test_integer_columns_write_as_d(tmp_path):
    path = tmp_path / "t.csv"
    columns = ([1, 2, 3], np.array([-7, 0, 2**62]), np.arange(3, dtype=np.uint64))
    write_csv(str(path), ["n", "m", "u"], columns)
    assert path.read_text() == "n,m,u\n1,-7,0\n2,0,1\n3,4611686018427387904,2\n"


def test_float_columns_round_trip_bit_exactly(tmp_path):
    path = tmp_path / "t.csv"
    values = np.array([-0.0, 5e-324, 1e300, np.nan, 0.1, -1.0 / 3.0, 2.0, np.inf])
    write_csv(str(path), ["x", "y"], (values, values[::-1]))
    rows = read_rows(path)
    assert rows[0] == ["x", "y"]
    assert [r[0] for r in rows[1:4]] == ["-0", "4.9406564584124654e-324", "1.0000000000000001e+300"]
    back = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.array_equal(back[:, 0].view(np.int64), values.view(np.int64))
    assert np.array_equal(back[:, 1].view(np.int64), values[::-1].view(np.int64))


def test_zero_row_table_writes_the_header_alone(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["l", "k_l"], (np.arange(1, 1), np.empty(0)))
    assert path.read_text() == "l,k_l\n"


@pytest.mark.parametrize(
    "columns",
    [
        pytest.param(([1.0, 2.0],), id="too-few-columns"),
        pytest.param(([1.0], [2.0], [3.0]), id="too-many-columns"),
        pytest.param(([1.0, 2.0], [3.0]), id="unequal-lengths"),
        pytest.param(([1.0], [[2.0]]), id="2-d-column"),
        pytest.param(([1.0], [True]), id="bool"),
        pytest.param(([1.0], [1.0 + 2.0j]), id="complex"),
        pytest.param(([1.0], np.array([1.0], dtype=object)), id="object"),
        pytest.param(([1.0], ["a"]), id="text"),
    ],
)
def test_malformed_table_raises_before_writing(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(str(path), ["a", "b"], columns)
    assert os.listdir(tmp_path) == []


def test_concurrent_writers_of_one_path(tmp_path):
    path = str(tmp_path / "table.csv")
    n_writers, n_writes, width, n_rows = 4, 200, 50, 20
    texts = {}
    errors = []

    def writer(w):
        columns = [[w] * n_rows] * width
        lines = [",".join(["c"] * width)] + [",".join([str(w)] * width)] * n_rows
        texts[w] = "\n".join(lines) + "\n"
        try:
            for _ in range(n_writes):
                write_csv(path, ["c"] * width, columns)
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
    write_csv(str(path), ["a"], ([1],))
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
