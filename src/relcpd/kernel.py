"""Gaussian kernel evaluation, design matrices, and the median-distance
bandwidth heuristic.  Every squared distance comes from
``squared_distances``, on plain sample arrays or on raw series segments, and
``kernels_of`` turns squared distances into every kernel matrix of the
fitters, the ratio model and CV; ``gaussian_kernel`` is a scalar
reference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBandwidthError, DimensionMismatchError, ParameterError


@dataclass(frozen=True)
class KernelConfig:
    """Validated Gaussian kernel width."""

    sigma: float

    def __post_init__(self) -> None:
        s = float(self.sigma)
        if not np.isfinite(s) or s <= 0.0:
            raise ParameterError(f"kernel width must be positive and finite, got {s}")
        object.__setattr__(self, "sigma", s)


@dataclass(frozen=True)
class DesignMatrices:
    """Kernel evaluations of numerator/denominator samples against centers.

    k_num[i, l] = K(Y_i, C_l) for numerator samples Y_i;
    k_den[j, l] = K(Y'_j, C_l) for denominator samples Y'_j.
    """

    k_num: np.ndarray
    k_den: np.ndarray
    centers: np.ndarray
    sigma: float


def gaussian_kernel(y: np.ndarray, y2: np.ndarray, sigma: float) -> float:
    """exp(-||y - y2||^2 / (2 sigma^2)); symmetric, in (0, 1]."""
    cfg = KernelConfig(sigma)
    a = np.asarray(y, dtype=np.float64).ravel()
    b = np.asarray(y2, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"kernel arguments have lengths {a.size} and {b.size}"
        )
    diff = a - b
    return float(np.exp(-(diff @ diff) / (2.0 * cfg.sigma**2)))


def squared_distances(first: np.ndarray, second: np.ndarray, k: int = 1) -> np.ndarray:
    """Squared Euclidean distances between the length-k windows of two raw
    d-row segments, (d, count + k - 1) float arrays: entry (i, j) is
    ||w_i - v_j||^2 for the window vectors w_i = [first[:, i]; ...;
    first[:, i + k - 1]] of ``first`` and v_j of ``second``, the vectors of
    ``embedding.build_windows``.  With k = 1 the windows are the columns, so
    plain (samples, dimensions) arrays pass transposed.

    Each dimension's outer difference is squared once; then, starting from
    zero, the k x d shifted views of those squares are added in the order of
    the window vectors' columns, time offset major and dimension minor.  That
    is the order in which scipy's ``cdist(..., "sqeuclidean")`` sums, so
    every entry equals cdist's of the window vectors bit for bit.  The sums
    run in rows as wide as the squares', so that each shifted view is one
    contiguous stretch of a square; the result is a view of their first
    columns.  Besides the result, k = 1 holds one dimension's squares at a
    time, as many doubles as the result; k > 1 holds all d of them,
    d x (count + k - 1)^2 doubles for a segment paired with itself.
    """
    rows, cols = first.shape[1] - k + 1, second.shape[1] - k + 1
    width = second.shape[1]  # of a square's rows, cols + k - 1
    out = np.zeros((rows, width))
    # entry (i, j) of the result and, at time offset o, entry (i + o, j + o)
    # of a square are i * width + j and that plus o * (width + 1), flat; the
    # last row's k - 1 columns past the result's are left out
    size = rows * width - (k - 1)
    sums = out.reshape(-1)[:size]
    squares = _squared_differences(first, second)
    if k > 1:  # each dimension's squares serve k time offsets
        squares = list(squares)
    for offset in range(k):
        start = offset * (width + 1)
        for square in squares:
            sums += square.reshape(-1)[start : start + size]
    return out[:, :cols]


def _squared_differences(first: np.ndarray, second: np.ndarray):
    """(first[r, i] - second[r, j])^2 over (i, j), one row r at a time."""
    for a, b in zip(first, second):
        square = np.subtract.outer(a, b)
        square *= square  # in place: a second array of this size costs page faults
        yield square


def gaussian_kernels(samples: np.ndarray, centers: np.ndarray, sigmas) -> np.ndarray:
    """exp(-||Y_i - C_l||^2 / (2 sigma^2)) for every sigma in ``sigmas``: a
    (sigma, sample, center) stack from one ``squared_distances`` of the 2-D
    float arrays ``samples`` and ``centers``."""
    return kernels_of(squared_distances(samples.T, centers.T), sigmas)


def kernels_of(sqdist: np.ndarray, sigmas) -> np.ndarray:
    """exp(-d / (2 sigma^2)) of the squared distances ``sqdist`` (a 2-D
    array or a view into one) for every sigma in ``sigmas``: a (sigma, row,
    column) stack."""
    scales = np.array([2.0 * sigma**2 for sigma in sigmas])[:, None, None]
    return np.exp(-sqdist / scales)


def median_distance(samples: np.ndarray) -> float:
    """Median of all pairwise Euclidean distances (exact, over all pairs).

    For an even number of pairs this is the mean of the two middle order
    statistics.  A zero median would collapse the bandwidth grid, so it is
    rejected.
    """
    arr = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if arr.shape[0] < 2:
        raise ParameterError(
            f"median distance needs at least 2 samples, got {arr.shape[0]}"
        )
    return pooled_median(squared_distances(arr.T, arr.T))


def pooled_median(sqdist: np.ndarray) -> float:
    """``median_distance`` of pooled samples from their square matrix of
    squared distances (of ``squared_distances``): the square root of the
    middle order statistic of its upper triangle, or the mean of the square
    roots of the two middle ones.  That equals ``np.median(pdist(pooled))``
    bit for bit, as the square root of a squared distance is its distance,
    and it does not depend on the samples' order: ``squared_distances`` of
    a segment with itself is exactly symmetric, as (a - b)^2 = (b - a)^2.
    """
    pairs = sqdist[np.triu_indices(len(sqdist), 1)]
    half = len(pairs) // 2
    if len(pairs) % 2:
        med = float(np.sqrt(np.partition(pairs, half)[half]))
    else:
        low, high = np.sqrt(np.partition(pairs, (half - 1, half))[half - 1 : half + 1])
        med = float((low + high) / 2.0)
    if med == 0.0:  # a zero median would collapse the bandwidth grid
        raise DegenerateBandwidthError(
            "median pairwise distance is zero (samples nearly all identical)"
        )
    return med


def design_matrices(
    numerator: np.ndarray,
    denominator: np.ndarray,
    centers: np.ndarray,
    sigma: float,
) -> DesignMatrices:
    """Evaluate the Gaussian kernel of both sample sets against the centers."""
    cfg = KernelConfig(sigma)
    num = np.atleast_2d(np.asarray(numerator, dtype=np.float64))
    den = np.atleast_2d(np.asarray(denominator, dtype=np.float64))
    cen = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if num.shape[1] != cen.shape[1] or den.shape[1] != cen.shape[1]:
        raise DimensionMismatchError(
            f"sample dimensions {num.shape[1]}/{den.shape[1]} do not match "
            f"center dimension {cen.shape[1]}"
        )
    k_num = gaussian_kernels(num, cen, (cfg.sigma,))[0]
    k_den = gaussian_kernels(den, cen, (cfg.sigma,))[0]
    return DesignMatrices(k_num=k_num, k_den=k_den, centers=cen, sigma=cfg.sigma)
