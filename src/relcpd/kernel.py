"""Gaussian kernel evaluation, design matrices, and the median-distance
bandwidth heuristic.  ``kernels_of`` turns squared distances into every
kernel matrix of the fitters, the ratio model and CV, whether they come from
``gaussian_kernels`` or from one ``pooled_distances`` matrix;
``gaussian_kernel`` is a scalar reference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

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


def gaussian_kernels(samples: np.ndarray, centers: np.ndarray, sigmas) -> np.ndarray:
    """exp(-||Y_i - C_l||^2 / (2 sigma^2)) for every sigma in ``sigmas``: a
    (sigma, sample, center) stack from one ``cdist`` of the 2-D float arrays
    ``samples`` and ``centers``."""
    return kernels_of(cdist(samples, centers, "sqeuclidean"), sigmas)


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
    return _nonzero_median(float(np.median(pdist(arr))))


def _nonzero_median(med: float) -> float:
    if med == 0.0:  # a zero median would collapse the bandwidth grid
        raise DegenerateBandwidthError(
            "median pairwise distance is zero (samples nearly all identical)"
        )
    return med


def pooled_distances(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared Euclidean distances among the rows of ``first`` stacked on
    ``second``, from one ``cdist``, and their ``median_distance``.

    Entry (i, j) equals ``cdist`` of rows i and j of the pooled rows alone,
    so any block of the matrix is that of its two row sets, and the median,
    the square root of the two middle order statistics of the upper
    triangle (or of the middle one), equals ``np.median(pdist(pooled))`` bit
    for bit: the square root of a squared distance is its distance.
    """
    pooled = np.vstack([first, second])
    sqdist = cdist(pooled, pooled, "sqeuclidean")
    pairs = squareform(sqdist, checks=False)  # the upper triangle, row by row
    half = len(pairs) // 2
    if len(pairs) % 2:
        return sqdist, _nonzero_median(float(np.sqrt(np.partition(pairs, half)[half])))
    low, high = np.sqrt(np.partition(pairs, (half - 1, half))[half - 1 : half + 1])
    return sqdist, _nonzero_median(float((low + high) / 2.0))


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
