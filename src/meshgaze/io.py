"""Text files: the one module that opens, decodes or writes a file.

Inputs are read as UTF-8; a file that cannot be opened, decoded or split
into CSV rows raises the caller's ``MeshgazeError`` subclass.  Writes are
atomic (temp file in the target directory, then rename), with LF line ends.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

import numpy as np


def read_text(path, what: str, error) -> str:
    """The whole file as text, with universal newlines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {os.fspath(path)!r}: {exc}") from exc


def read_csv(path, what: str, error) -> list[list[str]]:
    """The first row (the header, ``[]`` if blank), then every non-blank row."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise error(f"cannot read {what} {os.fspath(path)!r}: {exc}") from exc
    return rows[:1] + [r for r in rows[1:] if r]


def write_text(path, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    write_text(path, buf.getvalue())


def write_json(path, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_vertex_csv(path, header, what: str, error) -> np.ndarray:
    """Column 1 of a per-vertex CSV as floats indexed by vertex id.

    The first non-blank row must start with `header`.  Every other non-blank
    row is `vertex_id,value[,...]`: the ids of n rows must be 0..n-1, each
    exactly once, and every value a finite number.  Anything else raises
    `error`.
    """
    rows = [r for r in read_csv(path, what, error) if r]
    if not rows or rows[0][:len(header)] != list(header):
        raise error(f"{what} {path!r}: bad header")
    n = len(rows) - 1
    values = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for k, row in enumerate(rows[1:], start=1):
        try:
            vid, value = int(row[0]), float(row[1])
        except (IndexError, ValueError):
            raise error(f"{what} {path!r}: row {k}: expected vertex_id,value, "
                        f"got {row!r}") from None
        if not 0 <= vid < n:
            raise error(f"{what} {path!r}: row {k}: vertex id {vid} outside "
                        f"0..{n - 1} (ids missing or out of range)")
        if seen[vid]:
            raise error(f"{what} {path!r}: row {k}: duplicate vertex id {vid}")
        if not math.isfinite(value):
            raise error(f"{what} {path!r}: row {k}: non-finite value {row[1]!r}")
        seen[vid] = True
        values[vid] = value
    return values
