"""Atomic CSV/JSON artifact writers shared by the experiment runner.

Files land via temp-then-rename in the destination directory, so a crash
never leaves a half-written artifact.  Floats are serialized with %.17g,
which round-trips IEEE doubles exactly and makes repeated runs of a
deterministic experiment byte-identical.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Iterable, Sequence


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one table; every row must match the header width."""
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
        lines.append(",".join(format_value(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    """Write a JSON document preserving the key order of the input dicts."""
    _atomic_write_text(path, json.dumps(obj, indent=2) + "\n")
