import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcpd.detector import ScoreSeries
from relcpd.errors import ParameterError, UndefinedRateError
from relcpd.evaluation import (
    AlarmList,
    find_peaks,
    match_and_count,
    roc_curve,
    summarize_runs,
)

from oracles import brute_force_roc


def _scores(values, boundaries=None):
    values = np.asarray(values, dtype=float)
    if boundaries is None:
        boundaries = tuple(range(1, len(values) + 1))
    return ScoreSeries(boundaries=tuple(boundaries), scores=values)


class TestFindPeaks:
    def test_close_peaks_deduplicated(self):
        alarms = find_peaks(_scores([0, 1, 0, 1, 0]))
        assert alarms.times == (2,)
        assert alarms.scores == (1.0,)

    def test_monotone_has_no_peaks(self):
        alarms = find_peaks(_scores([1, 2, 3, 4, 5]))
        assert alarms.times == ()

    def test_plateau_first_index(self):
        alarms = find_peaks(_scores([0, 2, 2, 0]))
        assert alarms.times == (2,)

    def test_edges_never_peak(self):
        alarms = find_peaks(_scores([5, 1, 4]))
        assert alarms.times == ()

    def test_dedup_uses_time_values_not_indices(self):
        # boundaries 30 apart survive even though adjacent in the array
        alarms = find_peaks(_scores([0, 1, 0, 1, 0], boundaries=(1, 31, 61, 91, 121)))
        assert alarms.times == (31, 91)

    def test_dedup_spacing_boundary(self):
        # spacing of exactly 20 is kept, 19 is dropped
        a = find_peaks(_scores([0, 1, 0, 1, 0], boundaries=(1, 2, 10, 22, 30)))
        assert a.times == (2, 22)
        b = find_peaks(_scores([0, 1, 0, 1, 0], boundaries=(1, 2, 10, 21, 30)))
        assert b.times == (2,)

    def test_empty_scores_rejected(self):
        with pytest.raises(ParameterError):
            find_peaks(_scores([]))


class TestMatchAndCount:
    def test_within_window(self):
        alarms = AlarmList(times=(95,), scores=(1.0,))
        assert match_and_count(alarms, (100,), threshold=0.5) == (1, 1)

    def test_outside_window(self):
        alarms = AlarmList(times=(111,), scores=(1.0,))
        assert match_and_count(alarms, (100,), threshold=0.5) == (0, 1)

    def test_single_credit(self):
        alarms = AlarmList(times=(95, 115), scores=(1.0, 1.0))
        assert match_and_count(alarms, (100,), threshold=0.5) == (1, 2)

    def test_threshold_is_strict(self):
        alarms = AlarmList(times=(100,), scores=(1.0,))
        assert match_and_count(alarms, (100,), threshold=1.0) == (0, 0)
        assert match_and_count(alarms, (100,), threshold=0.999) == (1, 1)


class TestRocCurve:
    def test_three_alarm_sweep(self):
        # A hits truth 100, B misses, C hits truth 200
        alarms = AlarmList(times=(95, 150, 205), scores=(3.0, 2.0, 1.0))
        curve = roc_curve(alarms, (100, 200), n_cp=2)
        assert curve.points == (
            (0.0, 0.0),
            (0.0, 0.5),
            (0.5, 0.5),
            (1.0 / 3.0, 1.0),
            (1.0, 1.0),
        )
        assert curve.thresholds == (math.inf, 3.0, 2.0, 1.0, -math.inf)
        # trapezoid along the swept path, cross-checked with the brute-force
        # oracle: 19/24
        assert curve.auc == pytest.approx(19.0 / 24.0, abs=1e-12)
        _, _, oracle_auc = brute_force_roc((95, 150, 205), (3.0, 2.0, 1.0), (100, 200), 2)
        assert curve.auc == pytest.approx(oracle_auc, abs=1e-12)

    def test_perfect_detector(self):
        alarms = AlarmList(times=(100, 200), scores=(2.0, 1.0))
        curve = roc_curve(alarms, (100, 200), n_cp=2)
        assert (0.0, 1.0) in curve.points
        assert curve.auc == pytest.approx(1.0)

    def test_no_alarms(self):
        curve = roc_curve(AlarmList(times=(), scores=()), (100,), n_cp=1)
        assert curve.auc == 0.0
        assert curve.points == ((0.0, 0.0), (1.0, 0.0))

    def test_zero_truths_rejected(self):
        with pytest.raises(UndefinedRateError):
            roc_curve(AlarmList(times=(), scores=()), (), n_cp=0)

    def test_auc_bounds_and_tpr_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_alarm = int(rng.integers(1, 25))
            times = tuple(sorted(rng.choice(np.arange(1, 500, 20), n_alarm, replace=False)))
            scores = tuple(float(s) for s in rng.random(n_alarm))
            truths = tuple(sorted(rng.choice(np.arange(1, 500, 30), 5, replace=False)))
            curve = roc_curve(AlarmList(times, scores), truths, n_cp=5)
            assert 0.0 <= curve.auc <= 1.0
            tprs = [p[1] for p in curve.points]
            assert all(b >= a for a, b in zip(tprs, tprs[1:]))
            # stored auc equals the trapezoid of the stored points
            recomputed = sum(
                0.5 * (y0 + y1) * (x1 - x0)
                for (x0, y0), (x1, y1) in zip(curve.points, curve.points[1:])
            )
            assert curve.auc == pytest.approx(recomputed, abs=1e-14)

    def test_matches_bruteforce_oracle_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n_alarm = int(rng.integers(1, 30))
            times = np.cumsum(rng.integers(20, 60, n_alarm))
            scores = np.round(rng.random(n_alarm) * 4, 2)  # duplicate-prone
            n_truth = int(rng.integers(1, 10))
            truths = tuple(sorted(rng.integers(1, int(times.max()) + 20, n_truth)))
            alarms = AlarmList(tuple(int(t) for t in times), tuple(float(s) for s in scores))
            curve = roc_curve(alarms, truths, n_cp=n_truth)
            pts, thr, auc = brute_force_roc(alarms.times, alarms.scores, truths, n_truth)
            assert curve.points == tuple(pts)
            assert curve.thresholds == tuple(thr)
            assert curve.auc == pytest.approx(auc, abs=1e-12)

    def test_extra_matching_alarm_never_hurts_tpr(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_alarm = int(rng.integers(1, 12))
            times = np.cumsum(rng.integers(25, 80, n_alarm))
            scores = rng.random(n_alarm)
            truths = sorted(rng.integers(1, int(times.max()) + 100, 6))
            # find an unmatched truth and add one alarm directly on it
            base = AlarmList(tuple(int(t) for t in times), tuple(map(float, scores)))
            matched_times = [t for t in base.times if any(abs(t - u) <= 10 for u in truths)]
            unmatched = [u for u in truths if not any(abs(t - u) <= 10 for t in base.times)]
            if not unmatched:
                continue
            add_time = int(unmatched[0])
            add_score = float(rng.random())
            joined = sorted(
                list(zip(base.times, base.scores)) + [(add_time, add_score)]
            )
            bigger = AlarmList(
                tuple(t for t, _ in joined), tuple(s for _, s in joined)
            )
            eps = 1e-9
            for eta in sorted(set(bigger.scores)):
                if eta > add_score:
                    continue
                cr_new, _ = match_and_count(bigger, truths, eta - eps)
                cr_old, _ = match_and_count(base, truths, eta - eps)
                assert cr_new >= cr_old


class TestSummarize:
    def test_constant(self):
        assert summarize_runs([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_two_point(self):
        mean, std = summarize_runs([0.0, 1.0])
        assert mean == 0.5
        assert std == pytest.approx(math.sqrt(0.5))  # 0.70711

    def test_single_value(self):
        assert summarize_runs([0.9]) == (0.9, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            summarize_runs([])


@settings(max_examples=300, deadline=None)
@given(
    alarms=st.lists(
        st.tuples(st.integers(1, 400),
                  st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                            st.floats(0.0, 5.0, allow_nan=False))),
        max_size=25, unique_by=lambda a: a[0]),
    truths=st.lists(st.integers(1, 420), min_size=1, max_size=12),
)
def test_roc_curve_matches_brute_force_oracle(alarms, truths):
    # random alarms in time order (tied scores included) and truths,
    # duplicates included
    alarms.sort()
    alarm_list = AlarmList(tuple(t for t, _ in alarms), tuple(s for _, s in alarms))
    curve = roc_curve(alarm_list, truths, len(truths))
    points, thresholds, auc = brute_force_roc(
        alarm_list.times, alarm_list.scores, truths, len(truths))
    assert curve.points == tuple(points)
    assert curve.thresholds == tuple(thresholds)
    assert curve.auc == pytest.approx(auc, abs=1e-12)
