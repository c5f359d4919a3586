import numpy as np
import pytest
from scipy.linalg import hankel

from relcpd.embedding import TimeSeries, build_windows, segment_pair
from relcpd.errors import (
    InvalidDataError,
    InvalidWindowLengthError,
    SegmentRangeError,
)

from oracles import window_vectors_by_index


def test_identity_embedding():
    ws = build_windows(TimeSeries([5.0, 6.0, 7.0]), k=1)
    assert ws.vectors.tolist() == [[5.0], [6.0], [7.0]]


def test_k2_unrolling():
    ws = build_windows(TimeSeries([1.0, 2.0, 3.0, 4.0]), k=2)
    assert ws.vectors.tolist() == [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]]


def test_multidim_concatenation_matches_index_oracle():
    values = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    ws = build_windows(TimeSeries(values), k=2)
    assert ws.vectors.tolist() == [[1.0, 10.0, 2.0, 20.0], [2.0, 20.0, 3.0, 30.0]]
    assert ws.vectors.tolist() == window_vectors_by_index(values, k=2)


def test_index_oracle_random_shapes():
    rng = np.random.default_rng(7)
    for d, t_len, k in [(1, 12, 3), (3, 9, 4), (2, 30, 10), (4, 8, 8)]:
        values = rng.normal(size=(d, t_len))
        ws = build_windows(TimeSeries(values), k=k)
        assert ws.vectors.shape == (t_len - k + 1, d * k)
        np.testing.assert_array_equal(
            ws.vectors, np.asarray(window_vectors_by_index(values, k))
        )


def test_hankel_columns_for_1d():
    rng = np.random.default_rng(3)
    y = rng.normal(size=20)
    k = 6
    ws = build_windows(TimeSeries(y), k=k)
    hank = hankel(y[:k], y[k - 1 :])  # columns are the windows
    np.testing.assert_allclose(ws.vectors, hank.T)


def test_window_count_property():
    rng = np.random.default_rng(11)
    for t_len in (1, 2, 5, 17):
        values = rng.normal(size=(2, t_len))
        for k in range(1, t_len + 1):
            assert len(build_windows(TimeSeries(values), k)) == t_len - k + 1


def test_round_trip_first_coordinates():
    rng = np.random.default_rng(5)
    y = rng.normal(size=40)
    ws = build_windows(TimeSeries(y), k=7)
    np.testing.assert_array_equal(ws.vectors[:, 0], y[: 40 - 7 + 1])


def test_window_length_errors():
    series = TimeSeries([1.0, 2.0, 3.0])
    with pytest.raises(InvalidWindowLengthError):
        build_windows(series, 4)
    with pytest.raises(InvalidWindowLengthError):
        build_windows(series, 0)


def test_nonfinite_rejected():
    with pytest.raises(InvalidDataError):
        TimeSeries([1.0, np.nan, 2.0])
    with pytest.raises(InvalidDataError):
        TimeSeries([1.0, np.inf])


def test_change_point_validation():
    TimeSeries([1.0, 2.0, 3.0], change_points=(2, 3))
    with pytest.raises(InvalidDataError):
        TimeSeries([1.0, 2.0, 3.0], change_points=(3, 2))
    with pytest.raises(InvalidDataError):
        TimeSeries([1.0, 2.0, 3.0], change_points=(0, 2))
    with pytest.raises(InvalidDataError):
        TimeSeries([1.0, 2.0, 3.0], change_points=(2, 4))


def _windows6():
    return build_windows(TimeSeries(np.arange(1.0, 7.0)), k=1)


def test_segment_pair_split():
    pair = segment_pair(_windows6(), t=1, n=2)
    assert pair.reference.ravel().tolist() == [1.0, 2.0]
    assert pair.test.ravel().tolist() == [3.0, 4.0]
    assert pair.boundary == 3


def test_segment_pair_full_cover():
    pair = segment_pair(_windows6(), t=1, n=3)
    assert pair.reference.ravel().tolist() == [1.0, 2.0, 3.0]
    assert pair.test.ravel().tolist() == [4.0, 5.0, 6.0]


def test_segment_pair_out_of_range():
    with pytest.raises(SegmentRangeError):
        segment_pair(_windows6(), t=2, n=3)  # needs window index 7
    with pytest.raises(SegmentRangeError):
        segment_pair(_windows6(), t=0, n=2)


def test_segments_disjoint_and_contiguous():
    rng = np.random.default_rng(2)
    ws = build_windows(TimeSeries(rng.normal(size=30)), k=3)
    for t, n in [(1, 5), (3, 8), (10, 9)]:
        pair = segment_pair(ws, t, n)
        joined = np.vstack([pair.reference, pair.test])
        i = t - 1
        np.testing.assert_array_equal(joined, ws.vectors[i : i + 2 * n])
        assert pair.reference.shape[0] == pair.test.shape[0] == n


def test_values_read_only():
    series = TimeSeries([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        series.values[0, 0] = 9.0
    ws = build_windows(series, 2)
    with pytest.raises(ValueError):
        ws.vectors[0, 0] = 9.0
