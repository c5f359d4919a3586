"""Alarm extraction, alarm-truth matching, ROC curves, and AUC.

Alarms are the scores above the previous one and at least the next one (so
a plateau's first index, even where the plateau then rises), deduplicated
so consecutive alarms are at least MIN_ALARM_SPACING time steps apart.  An
alarm is correct when it falls within MATCH_WINDOW steps of a ground-truth
change point; each truth is creditable at most once.  The ROC curve sweeps
the threshold downward through the distinct alarm scores.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .detector import ScoreSeries
from .errors import ParameterError, UndefinedRateError

MIN_ALARM_SPACING = 20
MATCH_WINDOW = 10


@dataclass(frozen=True)
class AlarmList:
    """Alarms in time order: the boundary ``times`` of the kept peaks and
    their ``scores``."""

    times: tuple[int, ...]
    scores: tuple[float, ...]


@dataclass(frozen=True)
class RocCurve:
    """(fpr, tpr) ``points`` from (0, 0) in sweep order, the alarm score
    ``thresholds`` of each (inf at the start, -inf at an added end point),
    and the trapezoidal ``auc`` along them."""

    points: tuple[tuple[float, float], ...]  # (fpr, tpr), sweep order
    thresholds: tuple[float, ...]
    auc: float


def find_peaks(scores: ScoreSeries) -> AlarmList:
    """Local maxima of the score series, deduplicated in time order.

    Index i is a peak when score[i] > score[i-1] and score[i] >= score[i+1];
    the first and last positions have no two-sided neighborhood and are never
    peaks.  Scanning in time order, an alarm closer than MIN_ALARM_SPACING to
    the previously kept one is dropped.
    """
    values = np.asarray(scores.scores, dtype=np.float64)
    if values.size == 0:
        raise ParameterError("empty score series")
    bounds = scores.boundaries
    times: list[int] = []
    heights: list[float] = []
    for i in range(1, values.size - 1):
        if values[i] > values[i - 1] and values[i] >= values[i + 1]:
            t = bounds[i]
            if times and t - times[-1] < MIN_ALARM_SPACING:
                continue
            times.append(t)
            heights.append(float(values[i]))
    return AlarmList(times=tuple(times), scores=tuple(heights))


def _credited(times: list[int], truths: tuple[int, ...]) -> int:
    """Greedy single-credit matching: alarms in time order claim the first
    unclaimed truth within MATCH_WINDOW, found by bisection in sorted ``truths``."""
    claimed = [False] * len(truths)
    hits = 0
    for t in times:
        lo = bisect_left(truths, t - MATCH_WINDOW)
        for j in range(lo, bisect_right(truths, t + MATCH_WINDOW)):
            if not claimed[j]:
                claimed[j] = True
                hits += 1
                break
    return hits


def match_and_count(
    alarms: AlarmList, truths, threshold: float
) -> tuple[int, int]:
    """(n_cr, n_al) among alarms with score strictly above ``threshold``."""
    truth_tuple = tuple(sorted(int(t) for t in truths))
    kept = [t for t, s in zip(alarms.times, alarms.scores) if s > threshold]
    return _credited(kept, truth_tuple), len(kept)


def roc_curve(alarms: AlarmList, truths, n_cp: int) -> RocCurve:
    """Sweep the threshold downward through the distinct alarm scores.

    At each swept score s, alarms with score >= s are admitted and
    TPR = n_cr / n_cp, FPR = (n_al - n_cr) / n_al (0 when no alarms).
    The curve starts at (0, 0) and, when the sweep ends short of fpr = 1, is
    extended horizontally at the final tpr.  AUC is the trapezoidal area
    along the swept path.
    """
    n_cp = int(n_cp)
    if n_cp < 1:
        raise UndefinedRateError(
            f"TPR is undefined without true change points (n_cp={n_cp})"
        )
    truth_tuple = tuple(sorted(int(t) for t in truths))
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    thresholds: list[float] = [float("inf")]
    for s in sorted(set(alarms.scores), reverse=True):
        kept = [t for t, h in zip(alarms.times, alarms.scores) if h >= s]
        n_al = len(kept)
        n_cr = _credited(kept, truth_tuple)
        fpr = (n_al - n_cr) / n_al if n_al else 0.0
        tpr = n_cr / n_cp
        points.append((fpr, tpr))
        thresholds.append(float(s))
    if points[-1][0] < 1.0:
        points.append((1.0, points[-1][1]))
        thresholds.append(float("-inf"))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += 0.5 * (y0 + y1) * (x1 - x0)
    return RocCurve(points=tuple(points), thresholds=tuple(thresholds), auc=auc)


def summarize_runs(aucs) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator; 0 for a single
    value)."""
    arr = np.asarray(list(aucs), dtype=np.float64)
    if arr.size == 0:
        raise ParameterError("no AUC values to summarize")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std
