"""Atomic CSV/JSON artifact writers shared by the experiment runner.

Files land via temp-then-rename in the destination directory, so a crash
never leaves a half-written artifact.  A table is a tuple of 1-d columns,
one per header name, and each column's dtype picks its format once for the
whole table: integers as %d, floats as %.17g, which round-trips IEEE
doubles exactly and makes repeated runs of a deterministic experiment
byte-identical.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Sequence

import numpy as np

# dtype kind -> cell format; any other kind (bool, complex, object, text)
# has no agreed CSV form and is rejected
_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g"}


def _atomic_write_text(path: str, text: str) -> None:
    # a temp name unique to this process and thread, so concurrent writers
    # of one path never share it; open() keeps the usual umask file mode
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write one table: ``columns`` holds one 1-d column per header name.

    Integer columns are written with %d and float columns with %.17g.  A
    column of any other dtype kind, a column count other than the header
    width, or columns of unequal length raise ValueError.  A table with no
    rows is the header line alone.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(cols)} columns != header width {len(header)}")
    if any(c.ndim != 1 for c in cols) or len({c.size for c in cols}) > 1:
        raise ValueError(f"columns must be 1-d and of one length, got shapes {[c.shape for c in cols]}")
    bad = [(name, c.dtype.name) for name, c in zip(header, cols) if c.dtype.kind not in _FORMATS]
    if bad:
        raise ValueError(f"columns must be integer or float, got {bad}")
    fmt = ",".join(_FORMATS[c.dtype.kind] for c in cols)
    lines = [",".join(header), *(fmt % row for row in zip(*(c.tolist() for c in cols)))]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    """Write a JSON document preserving the key order of the input dicts."""
    _atomic_write_text(path, json.dumps(obj, indent=2) + "\n")
