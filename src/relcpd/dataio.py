"""CSV and report file formats.

Data CSV: rows are time steps, columns are dimensions, plain decimal reals,
an optional single header row (detected by a non-numeric first row).  Ground
truth lives in a sidecar ``<stem>.truth`` file, one 1-based time index per
line, keeping the data matrix purely numeric.

All numeric output uses ``repr`` (shortest round-trip representation), so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .embedding import TimeSeries, checked_change_points
from .errors import EmptyInputError, ParseError


def _fmt(x: float) -> str:
    return repr(float(x))


def truth_path_for(path: Path) -> Path:
    return Path(path).with_suffix(".truth")


def _parse_cell(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _data_rows(path: Path) -> tuple[list, int]:
    """The non-empty CSV rows of ``path`` and the index of the first data row:
    1 after a header (a first row with a non-numeric cell), else 0.  A file
    without data rows raises ``EmptyInputError``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    start = 1 if any(_parse_cell(cell) is None for cell in rows[0]) else 0
    if start == len(rows):
        raise EmptyInputError(f"{path}: header only, no data rows")
    return rows, start


def ingest_csv(path) -> TimeSeries:
    """Read a d x T series from CSV; attaches ``<stem>.truth`` if present."""
    path = Path(path)
    rows, start = _data_rows(path)
    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {i}: expected {width} columns, got {len(row)}"
            )
        for j, cell in enumerate(row, start=1):
            value = _parse_cell(cell)
            if value is None:
                raise ParseError(
                    f"{path}: row {i}, column {j}: not a number: {cell!r}"
                )
            data[i - start - 1, j - 1] = value

    change_points = None
    sidecar = truth_path_for(path)
    if sidecar.exists():
        change_points = read_truth(sidecar)
    return TimeSeries(data.T, change_points=change_points, name=path.stem)


def read_truth(path) -> tuple[int, ...]:
    path = Path(path)
    out = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                out.append(int(text))
            except ValueError:
                raise ParseError(
                    f"{path}: line {i}: not an integer: {text!r}"
                ) from None
    return checked_change_points(out)  # the rule TimeSeries applies


def write_series_csv(path, series: TimeSeries) -> None:
    rows = series.values.T
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_truth(path, change_points) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for cp in change_points:
            fh.write(f"{int(cp)}\n")


def write_scores_csv(path, boundaries, scores) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("boundary,score\n")
        for b, s in zip(boundaries, scores):
            fh.write(f"{int(b)},{_fmt(s)}\n")


def read_scores_csv(path) -> tuple[tuple[int, ...], np.ndarray]:
    """(boundaries, scores) of a ``boundary,score`` CSV, optionally headed;
    boundaries must be integers that increase strictly, scores finite."""
    path = Path(path)
    rows, start = _data_rows(path)
    boundaries = []
    scores = []
    for i, row in enumerate(rows[start:], start=start + 1):  # rows as ingest_csv counts
        if len(row) != 2:
            raise ParseError(f"{path}: row {i}: expected 2 columns, got {len(row)}")
        b = _parse_cell(row[0])
        s = _parse_cell(row[1])
        if b is None or s is None:
            raise ParseError(f"{path}: row {i}: not numeric: {row!r}")
        if not b.is_integer():
            raise ParseError(f"{path}: row {i}: boundary is not an integer: {row[0]!r}")
        if boundaries and b <= boundaries[-1]:
            raise ParseError(f"{path}: row {i}: boundaries must increase strictly: {row!r}")
        if not math.isfinite(s):
            raise ParseError(f"{path}: row {i}: score is not finite: {row[1]!r}")
        boundaries.append(int(b))
        scores.append(s)
    return tuple(boundaries), np.asarray(scores)


def write_alarms_csv(path, alarms) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,score\n")
        for t, s in zip(alarms.times, alarms.scores):
            fh.write(f"{int(t)},{_fmt(s)}\n")


def write_roc_csv(path, curve) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,fpr,tpr\n")
        for thr, (fpr, tpr) in zip(curve.thresholds, curve.points):
            fh.write(f"{_fmt(thr)},{_fmt(fpr)},{_fmt(tpr)}\n")


def write_json_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
