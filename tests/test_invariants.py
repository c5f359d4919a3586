"""Invariants of a whole sweep: time reversal swaps the directions, and the
scores do not see the order of the dimensions or, with ``standardize``, an
affine map of each dimension.

Each relation holds exactly in exact arithmetic; in floating point the sums
run in another order, so the scores agree to rounding.  KLIEP stops each
ascent at a certified gap rather than at the maximum, so its ascents on
reordered samples end at slightly different points and it gets a looser
tolerance than the closed-form least-squares fits.
"""

import numpy as np
import pytest

from relcpd.detector import BACKWARD, FORWARD, DetectorConfig, change_scores
from relcpd.embedding import TimeSeries
from relcpd.estimators import ESTIMATOR_KINDS, KLIEP
from relcpd.model_selection import CvGrid

# relative tolerance, and an absolute one for scores clipped at or near 0
_TOLERANCE = {KLIEP: (1e-6, 1e-9)}
_LEAST_SQUARES = (1e-9, 1e-12)


def _assert_same_to_rounding(kind, got, want):
    rtol, atol = _TOLERANCE.get(kind, _LEAST_SQUARES)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def _values(seed, dims, length):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(dims, length))
    values[:, length // 2 :] *= 2.0  # a variance change midway
    return values


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_time_reversal_swaps_forward_and_backward(kind, dims):
    # Position t's later segment, read backwards, is the earlier segment of
    # the reversed series at the mirrored position, and a window read
    # backwards is a permutation of its coordinates, which no distance sees.
    # That holds for the scores only where each position selects its own
    # (sigma, lambda) from its own windows: at cv_stride 1, with a one-point
    # grid, so that the CV folds (seeded by position) choose nothing.  At
    # cv_stride 4 the relation breaks by design: the reversed series' CV
    # blocks start at other positions and so take other median distances.
    values = _values(26, dims, 400)
    grid = CvGrid(sigma_factors=(1.0,), lambdas=(0.1,), seed=5)
    config = dict(n=30, k=4, estimator_kind=kind, stride=1, cv_stride=1, grid=grid)
    backward = change_scores(TimeSeries(values),
                             DetectorConfig(score_mode=BACKWARD, **config))
    forward = change_scores(TimeSeries(values[:, ::-1].copy()),
                            DetectorConfig(score_mode=FORWARD, **config))
    assert len(backward.scores) == len(forward.scores) == 400 - 2 * 30 - 4 + 2
    _assert_same_to_rounding(kind, backward.scores, forward.scores[::-1])


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_permuting_the_dimensions_leaves_the_scores(kind):
    values = _values(27, 3, 300)
    config = DetectorConfig(n=20, k=4, estimator_kind=kind, stride=3, cv_stride=4,
                            grid=CvGrid(seed=6))
    plain = change_scores(TimeSeries(values), config)
    permuted = change_scores(TimeSeries(values[[2, 0, 1]]), config)
    assert permuted.boundaries == plain.boundaries
    _assert_same_to_rounding(kind, permuted.scores, plain.scores)


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_standardized_scores_ignore_an_affine_map_of_each_dimension(kind):
    # a negative scale flips a dimension's sign, which no distance sees
    values = _values(28, 3, 300)
    scale = np.array([[250.0], [-0.03], [7.0]])
    shift = np.array([[-1e3], [4.0], [0.5]])
    config = DetectorConfig(n=20, k=4, estimator_kind=kind, stride=3, cv_stride=4,
                            standardize=True, grid=CvGrid(seed=6))
    plain = change_scores(TimeSeries(values), config)
    mapped = change_scores(TimeSeries(scale * values + shift), config)
    assert mapped.boundaries == plain.boundaries
    _assert_same_to_rounding(kind, mapped.scores, plain.scores)
