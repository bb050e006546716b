"""Text files: the one module that opens, decodes or writes a file.

Inputs are read as UTF-8; a file that cannot be opened, decoded or split
into CSV rows raises the caller's ``MeshgazeError`` subclass.  Each file is
written atomically (temp file in the target directory, then rename), with
LF line ends; ``staged`` makes a whole set of files appear together or not
at all, so a CLI verb that fails leaves its ``--out`` absent or unchanged.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
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


@contextlib.contextmanager
def staged(path):
    """Yields path's place in a stage directory, made in the nearest
    existing directory among path and its ancestors, and moves what was
    written there to path when the block ends normally: with one
    os.replace where the target does not exist, file by file into an
    existing directory.  The stage is removed on every exit, so nothing
    appears outside it unless the block succeeds."""
    base = os.path.abspath(path)
    while not os.path.isdir(base):
        base = os.path.dirname(base)
    stage = tempfile.mkdtemp(dir=base, prefix=".stage-")
    try:
        yield os.path.normpath(os.path.join(stage, os.path.relpath(path, base)))
        _merge(stage, base)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _merge(src, dst) -> None:
    for name in os.listdir(src):
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s) and os.path.isdir(d):
            _merge(s, d)
        else:
            os.replace(s, d)


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    write_text(path, buf.getvalue())


def unique_keys(pairs) -> dict:
    """json.loads' object_pairs_hook: the object's pairs as a dict; a key
    the object repeats raises ValueError naming it."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


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
