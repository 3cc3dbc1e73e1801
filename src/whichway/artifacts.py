"""On-disk format of a run's artifacts: CSV tables and JSON objects.

CSV: a header row, then one row per sample in a fixed numeric format per
column, so that no cell needs quoting; lines end in \\r\\n, as csv.writer
ends them.  JSON: one object with sorted keys, a 2-space indent and a
trailing newline.  The writers create their file's parent directory.  The
readers raise DataError, naming the file, for anything malformed.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DataError


def write_csv(path, header, formats, columns) -> None:
    """Write the header, then the columns (arrays) row by row, each in its format
    spec, by one printf-style % over the table: format()'s bytes for these specs."""
    if any(spec.endswith("d") and c.dtype.kind not in "iub" for spec, c in zip(formats, columns)):
        raise ValueError("an integer format needs an integer column")  # "%d" % 1.5 prints 1
    cells = [value for values in zip(*(c.tolist() for c in columns)) for value in values]
    rows = (",".join("%" + spec for spec in formats) + "\r\n") * len(columns[0]) % tuple(cells)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(rows)


def _read_text(path) -> str:
    try:
        return Path(path).read_bytes().decode()
    except OSError as exc:
        raise DataError(f"{path}: cannot read file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file ({exc.reason})") from exc


def read_csv(path, header, min_rows: int = 1, row_check=None) -> dict:
    """Float columns of a CSV artifact whose header must equal header.

    A row with the wrong number of cells, a non-numeric cell or a non-finite
    value is rejected with its line number; blank lines are skipped.  So is
    a row for which row_check, given its values, returns a message.
    """
    try:
        lines = list(csv.reader(io.StringIO(_read_text(path), newline="")))
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV ({exc})") from exc
    if not lines or [h.strip() for h in lines[0]] != list(header):
        raise DataError(f"{path}: expected header '{','.join(header)}'")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            values = [float(cell) for cell in line]
        except ValueError:
            values = []
        if len(values) != len(header):
            raise DataError(f"{path}: corrupt row at line {lineno}")
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}: non-finite value at line {lineno}")
        problem = row_check and row_check(*values)
        if problem:
            raise DataError(f"{path}: {problem} at line {lineno}")
        rows.append(values)
    if len(rows) < min_rows:
        raise DataError(
            f"{path}: {len(rows) or 'no'} data row(s), need at least {min_rows}"
        )
    return dict(zip(header, np.array(rows, dtype=float).T.copy()))


def write_json(path, data: dict) -> None:
    """Write an object with sorted keys, a 2-space indent and a final newline.

    A non-finite number raises ValueError: JSON has no NaN or Infinity.
    """
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text + "\n")


def read_json(path, required=()) -> dict:
    """The object in a JSON artifact; each key in required must be a finite number."""
    try:
        data = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object")
    for key in required:
        value = data.get(key)
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise DataError(f"{path}: '{key}' must be a finite number")
    return data
