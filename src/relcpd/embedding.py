"""Subsequence embedding: raw series -> window vectors -> segment pairs.

Time indices are 1-based throughout.  The window vector at time t stacks the
k consecutive d-dimensional observations y(t), ..., y(t+k-1) into a single
vector of length d*k; the collection of all such vectors is the column set
of the series' Hankel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDataError,
    InvalidWindowLengthError,
    SegmentRangeError,
    integer,
)


def checked_change_points(change_points, length: float = np.inf) -> tuple[int, ...]:
    """Change points as ints, checked to increase strictly within [1, length]."""
    cps = tuple(integer("change point", c, InvalidDataError) for c in change_points)
    if any(b <= a for a, b in zip((0,) + cps, cps)) or max(cps, default=0) > length:
        raise InvalidDataError(
            f"change points must increase strictly within [1, {length}], got {cps}"
        )
    return cps


@dataclass(frozen=True)
class TimeSeries:
    """A d x T real matrix with optional ground-truth change points."""

    values: np.ndarray
    change_points: tuple[int, ...] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise InvalidDataError(
                f"series values must be a d x T matrix, got ndim={arr.ndim}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidDataError(f"series must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidDataError("series contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

        if self.change_points is not None:
            cps = checked_change_points(self.change_points, arr.shape[1])
            object.__setattr__(self, "change_points", cps)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowSet:
    """Ordered window vectors; row i corresponds to time i + 1."""

    vectors: np.ndarray  # shape (count, d * k)
    k: int
    d: int

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class SegmentPair:
    """Two consecutive segments of n windows each, split at `boundary`."""

    reference: np.ndarray  # n rows, the segment starting at t
    test: np.ndarray  # n rows, the segment starting at t + n
    boundary: int  # time index t + n


def build_windows(series: TimeSeries, k: int) -> WindowSet:
    """Stack k consecutive observations per time step into window vectors.

    Returns T - k + 1 vectors; the vector at time t is
    [y(t); y(t+1); ...; y(t+k-1)] with each y(.) the full d-dimensional
    column of the series.
    """
    k = integer("window length", k, InvalidWindowLengthError)
    t_len = series.length
    if k < 1:
        raise InvalidWindowLengthError(f"window length must be >= 1, got {k}")
    if k > t_len:
        raise InvalidWindowLengthError(
            f"window length {k} exceeds series length {t_len}"
        )
    d = series.d
    count = t_len - k + 1
    out = np.empty((count, d * k), dtype=np.float64)
    for j in range(k):
        out[:, j * d : (j + 1) * d] = series.values[:, j : j + count].T
    out.setflags(write=False)
    return WindowSet(vectors=out, k=k, d=d)


def segment_pair(windows: WindowSet, t: int, n: int) -> SegmentPair:
    """Split windows t..t+2n-1 into reference (t..t+n-1) and test segments."""
    t = integer("position t", t, SegmentRangeError)
    n = integer("segment sample count", n, SegmentRangeError)
    if n < 1:
        raise SegmentRangeError(f"segment sample count must be >= 1, got {n}")
    if t < 1 or t + 2 * n - 1 > len(windows):
        raise SegmentRangeError(
            f"segment pair needs window indices {t}..{t + 2 * n - 1}, "
            f"available 1..{len(windows)}"
        )
    i = t - 1
    return SegmentPair(
        reference=windows.vectors[i : i + n],
        test=windows.vectors[i + n : i + 2 * n],
        boundary=t + n,
    )
