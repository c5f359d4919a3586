import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from relcpd import kernel
from relcpd.embedding import TimeSeries, build_windows
from relcpd.errors import (
    DegenerateBandwidthError,
    DimensionMismatchError,
    ParameterError,
)
from relcpd.kernel import (
    design_matrices,
    gaussian_kernel,
    median_distance,
    pooled_median,
    squared_distances,
)

from oracles import median_pairwise_distance


def test_zero_distance_is_one():
    y = np.array([1.0, -2.0, 3.0])
    for sigma in (0.1, 1.0, 25.0):
        assert gaussian_kernel(y, y, sigma) == 1.0


def test_unit_sigma_distance():
    # ||y - y2|| = sigma gives exp(-1/2)
    for sigma in (0.5, 1.0, 3.0):
        y = np.zeros(4)
        y2 = np.zeros(4)
        y2[0] = sigma
        assert gaussian_kernel(y, y2, sigma) == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )


def test_far_limit():
    assert gaussian_kernel(np.zeros(1), np.array([1e6]), 1.0) == 0.0  # underflows
    small = gaussian_kernel(np.zeros(1), np.array([10.0]), 1.0)
    assert 0.0 < small < 1e-20


def test_symmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        sigma = float(rng.uniform(0.5, 3.0))
        assert gaussian_kernel(a, b, sigma) == gaussian_kernel(b, a, sigma)


def test_kernel_errors():
    with pytest.raises(DimensionMismatchError):
        gaussian_kernel(np.zeros(2), np.zeros(3), 1.0)
    with pytest.raises(ParameterError):
        gaussian_kernel(np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ParameterError):
        gaussian_kernel(np.zeros(2), np.zeros(2), -1.0)


def test_median_distance_examples():
    assert median_distance(np.array([[0.0], [1.0]])) == 1.0
    assert median_distance(np.array([[0.0], [1.0], [3.0]])) == 2.0
    # distances {1,1,2,2,3,4}: median is the mean of the middle pair = 2
    assert median_distance(np.array([[0.0], [1.0], [2.0], [4.0]])) == 2.0


def test_median_distance_matches_enumeration_oracle():
    rng = np.random.default_rng(9)
    for m, dim in [(4, 1), (7, 3), (12, 2)]:
        samples = rng.normal(size=(m, dim))
        assert median_distance(samples) == pytest.approx(
            median_pairwise_distance(samples), rel=1e-12
        )


def test_median_distance_permutation_and_scale():
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(9, 3))
    base = median_distance(samples)
    perm = samples[rng.permutation(9)]
    assert median_distance(perm) == base
    for c in (0.25, 2.0, 10.0):
        assert median_distance(c * samples) == pytest.approx(c * base, rel=1e-12)


def test_median_distance_degenerate():
    with pytest.raises(DegenerateBandwidthError):
        median_distance(np.ones((5, 2)))
    with pytest.raises(ParameterError):
        median_distance(np.ones((1, 2)))


def test_design_matrix_diagonal_and_range():
    rng = np.random.default_rng(1)
    num = rng.normal(size=(6, 3))
    den = rng.normal(size=(6, 3))
    d = design_matrices(num, den, num, sigma=1.3)
    np.testing.assert_array_equal(np.diag(d.k_num), np.ones(6))
    for mat in (d.k_num, d.k_den):
        assert np.all(mat > 0.0) and np.all(mat <= 1.0)


def test_design_matrix_single_pair():
    num = np.array([[0.0, 0.0]])
    den = np.array([[1.5, 0.0]])  # distance sigma
    d = design_matrices(num, den, num, sigma=1.5)
    assert d.k_den[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_design_matrix_matches_elementwise_kernel():
    rng = np.random.default_rng(12)
    num = rng.normal(size=(5, 4))
    den = rng.normal(size=(7, 4))
    cen = rng.normal(size=(5, 4))
    sigma = 2.2
    d = design_matrices(num, den, cen, sigma)
    for i in range(5):
        for l in range(5):
            assert d.k_num[i, l] == pytest.approx(
                gaussian_kernel(num[i], cen[l], sigma), rel=1e-12
            )
    for j in range(7):
        for l in range(5):
            assert d.k_den[j, l] == pytest.approx(
                gaussian_kernel(den[j], cen[l], sigma), rel=1e-12
            )


def test_design_matrix_dimension_error():
    with pytest.raises(DimensionMismatchError):
        design_matrices(np.ones((3, 2)), np.ones((3, 3)), np.ones((3, 2)), 1.0)


ZERO_MEDIAN = "median pairwise distance is zero (samples nearly all identical)"


@st.composite
def _segments(draw):
    """(d, count + k - 1) raw series values and k: d in {1, 2, 3}, k in 1..12,
    2-120 windows at a magnitude from 1e-3 to 1e3, on a grid of quarter
    steps or not, with an earlier stretch repeated later and a constant
    stretch, or not."""
    d, k, count = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(2, 120))
    length = count + k - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(d, length))
    if draw(st.booleans()):  # ties among the distances
        values = np.round(4.0 * values) / 4.0
    if draw(st.booleans()):  # repeated windows
        start, width = draw(st.integers(0, length - 1)), draw(st.integers(1, length))
        width = min(width, length - start)
        at = draw(st.integers(0, length - width))
        values[:, at : at + width] = values[:, start : start + width].copy()
    if draw(st.booleans()):  # a constant stretch
        start, width = draw(st.integers(0, length - 1)), draw(st.integers(1, length))
        values[:, start : start + width] = values[:, start : start + 1]
    return values * 10.0 ** draw(st.floats(-3.0, 3.0)), k


@settings(max_examples=200, deadline=None)
@given(segment=_segments(), cut=st.floats(0.0, 1.0), samples=st.integers(1, 40))
def test_squared_distances_equal_cdist_bit_for_bit(segment, cut, samples):
    # the Hankel form sums in cdist's order, so every entry, and the median
    # distance, equal those of the window vectors
    values, k = segment
    vectors = build_windows(TimeSeries(values), k).vectors
    sqdist = squared_distances(values, values, k)
    np.testing.assert_array_equal(sqdist, cdist(vectors, vectors, "sqeuclidean"))
    np.testing.assert_array_equal(sqdist, sqdist.T)  # either pooled order, the same bits
    # two different segments: windows from ``at`` on against all of them,
    # and the other way round
    at = int(cut * (len(vectors) - 1))
    np.testing.assert_array_equal(squared_distances(values[:, at:], values, k),
                                  cdist(vectors[at:], vectors, "sqeuclidean"))
    np.testing.assert_array_equal(squared_distances(values, values[:, at:], k),
                                  cdist(vectors, vectors[at:], "sqeuclidean"))
    # plain (samples, dimensions) arrays, rectangular, with k = 1
    others = np.random.default_rng(samples).normal(size=(samples, vectors.shape[1]))
    np.testing.assert_array_equal(squared_distances(vectors.T, others.T),
                                  cdist(vectors, others, "sqeuclidean"))
    want = float(np.median(pdist(vectors)))
    # the halves swapped, as [test; reference] for [reference; test]
    order = np.roll(np.arange(len(vectors)), len(vectors) // 2)
    for matrix in (sqdist, sqdist[order][:, order]):
        if want == 0.0:
            with pytest.raises(DegenerateBandwidthError, match=re.escape(ZERO_MEDIAN)):
                pooled_median(matrix)
        else:
            assert pooled_median(matrix) == want
    if want:
        assert median_distance(vectors) == want


def test_flat_stretch_raises_the_zero_median_error():
    # 71 of a pair's 100 windows identical: most pairs are at distance 0
    values = np.random.default_rng(3).normal(size=(2, 109))
    values[:, 20:100] = 1.5
    vectors = build_windows(TimeSeries(values), 10).vectors
    assert np.median(pdist(vectors)) == 0.0
    for raised in (lambda: pooled_median(squared_distances(values, values, 10)),
                   lambda: median_distance(vectors)):
        with pytest.raises(DegenerateBandwidthError) as error:
            raised()
        assert str(error.value) == ZERO_MEDIAN


def test_importing_the_package_and_cli_loads_no_scipy_spatial():
    src = str(Path(kernel.__file__).resolve().parents[1])
    run = "import sys, relcpd, relcpd.cli; print('scipy.spatial' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", run], capture_output=True, text=True, timeout=120,
        check=False, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
