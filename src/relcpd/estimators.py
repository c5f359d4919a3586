"""Density-ratio estimators and divergence estimates.

Three fitters share the kernel model g(Y; theta) = sum_l theta_l K(Y, C_l):

* ``ulsif_fit``   -- least-squares fit of the plain ratio p/p'; closed form.
* ``rulsif_fit``  -- least-squares fit of the alpha-relative ratio
                     p / (alpha p + (1 - alpha) p'); same closed form with an
                     alpha-mixed Gram matrix.
* ``kliep_fit``   -- maximum-likelihood fit of the plain ratio under a
                     normalization constraint; projected gradient ascent.

From a fitted model, ``pe_alpha_estimate`` approximates the alpha-relative
Pearson divergence and ``kl_estimate`` the Kullback-Leibler divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import (
    DimensionMismatchError,
    NumericError,
    ParameterError,
    SingularSystemError,
)

ULSIF = "ulsif"
RULSIF = "rulsif"
KLIEP = "kliep"
ESTIMATOR_KINDS = (RULSIF, ULSIF, KLIEP)

# Ratio values are floored at this before any log (KLIEP objective, KL estimate).
LOG_FLOOR = 1e-12

_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class RatioModel:
    """Fitted kernel density-ratio model g(Y) = sum_l theta_l K(Y, C_l)."""

    centers: np.ndarray
    theta: np.ndarray
    sigma: float
    alpha: float

    def evaluate(self, samples: np.ndarray) -> np.ndarray:
        """g(Y) for each row of ``samples``; may be negative for
        least-squares fits."""
        arr = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        if arr.shape[1] != self.centers.shape[1]:
            raise DimensionMismatchError(
                f"sample dimension {arr.shape[1]} does not match "
                f"center dimension {self.centers.shape[1]}"
            )
        k = np.exp(
            -cdist(arr, self.centers, "sqeuclidean") / (2.0 * self.sigma**2)
        )
        return k @ self.theta


@dataclass(frozen=True)
class FitDiagnostics:
    objective_value: float
    iterations: int = 0
    converged: bool = True


def ratio_eval(model: RatioModel, y: np.ndarray) -> float:
    """Evaluate the fitted ratio model at a single point."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got ndim={arr.ndim}")
    return float(model.evaluate(arr)[0])


def _solve_spd(h_mat: np.ndarray, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve of (H + lam I) theta = rhs with a single jitter retry."""
    n = h_mat.shape[0]
    a = h_mat.copy()
    idx = np.diag_indices(n)
    a[idx] += lam
    try:
        factor = cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * float(np.trace(h_mat)) / n
        a[idx] += jitter
        try:
            factor = cho_factor(a, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "H + lambda I is not positive definite; use lambda > 0"
            ) from exc
    return cho_solve(factor, rhs, check_finite=False)


def gram_system(
    k_num: np.ndarray, k_den: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Alpha-mixed Gram matrix H and vector h of the least-squares fit:

    H[l, l'] = alpha mean_i K(Y_i, C_l) K(Y_i, C_l')
             + (1 - alpha) mean_j K(Y'_j, C_l) K(Y'_j, C_l'),
    h[l] = mean_i K(Y_i, C_l).

    Takes (samples, centers) kernels or stacks of them, (..., samples,
    centers); H is then (..., centers, centers) and h (..., centers).
    """
    h_mat = ((1.0 - alpha) / k_den.shape[-2]) * (k_den.swapaxes(-1, -2) @ k_den)
    if alpha:  # uLSIF (alpha = 0) skips the numerator Gram product
        h_mat += (alpha / k_num.shape[-2]) * (k_num.swapaxes(-1, -2) @ k_num)
    h_mat = 0.5 * (h_mat + h_mat.swapaxes(-1, -2))
    return h_mat, k_num.mean(axis=-2)


def ulsif_fit(design, lam: float) -> tuple[RatioModel, FitDiagnostics]:
    """Closed-form least-squares fit of the plain ratio p/p': ``rulsif_fit``
    with alpha = 0, so H[l, l'] = mean_j K(Y'_j, C_l) K(Y'_j, C_l')."""
    return rulsif_fit(design, lam, 0.0)


def rulsif_fit(
    design, lam: float, alpha: float
) -> tuple[RatioModel, FitDiagnostics]:
    """Closed-form alpha-relative ratio fit theta = (H + lam I)^-1 h, with
    H and h from ``gram_system``."""
    lam = float(lam)
    alpha = float(alpha)
    if lam < 0.0 or not np.isfinite(lam):
        raise ParameterError(f"regularizer must be >= 0 and finite, got {lam}")
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must lie in [0, 1), got {alpha}")
    h_mat, h_vec = gram_system(design.k_num, design.k_den, alpha)
    theta = _solve_spd(h_mat, lam, h_vec)
    objective = float(
        0.5 * theta @ h_mat @ theta - h_vec @ theta + 0.5 * lam * theta @ theta
    )
    model = RatioModel(
        centers=design.centers, theta=theta, sigma=design.sigma, alpha=alpha
    )
    return model, FitDiagnostics(objective_value=objective)


def kliep_objective(design, theta: np.ndarray) -> float:
    """Mean log model value over numerator samples, floored at LOG_FLOOR."""
    g = design.k_num @ theta
    return float(np.mean(np.log(np.maximum(g, LOG_FLOOR))))


def kliep_gradient(design, theta: np.ndarray) -> np.ndarray:
    """Analytic gradient of ``kliep_objective`` (zero where the floor binds)."""
    g = design.k_num @ theta
    w = np.where(g > LOG_FLOOR, 1.0 / np.maximum(g, LOG_FLOOR), 0.0)
    return design.k_num.T @ w / design.k_num.shape[0]


def _kliep_project(theta: np.ndarray, b_vec: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto {theta >= 0, b.theta = 1} (b > 0).

    Solves min ||x - theta||^2 by thresholding x = max(theta - mu b, 0) with
    mu chosen from the sorted breakpoints theta_i / b_i.  Cheaper heuristics
    (clamp then rescale) have stationary points that are not KKT points of
    the KLIEP problem and stall the ascent far from the optimum.
    """
    order = np.argsort(-(theta / b_vec), kind="stable")
    b_sorted = b_vec[order]
    ratios = theta[order] / b_sorted
    cum_bt = np.cumsum(b_sorted * theta[order])
    cum_b2 = np.cumsum(b_sorted * b_sorted)
    mu = (cum_bt - 1.0) / cum_b2
    active = np.nonzero(ratios > mu)[0]
    level = mu[active[-1]] if active.size else mu[-1]
    out = np.maximum(theta - level * b_vec, 0.0)
    s = float(b_vec @ out)
    if s <= 0.0:
        return out  # numerically degenerate candidate; line search rejects it
    return out / s  # pin the equality constraint to machine precision


def kliep_fit(
    design,
    tolerance: float = 1e-6,
    max_iters: int = 500,
    trace: list | None = None,
) -> tuple[RatioModel, FitDiagnostics]:
    """Constrained maximum-likelihood ratio fit by projected gradient ascent.

    Maximizes mean_i log g(Y_i) subject to mean_j g(Y'_j) = 1 and theta >= 0.
    Gradient steps are projected exactly onto the feasible set and accepted
    by backtracking line search (initial step 1.0, halving, Armijo factor
    1e-4), so the objective trace is monotone non-decreasing.  ``trace``,
    when given, receives the objective value after every accepted step.
    """
    k_den = design.k_den
    b_vec = k_den.mean(axis=0)
    n_centers = design.k_num.shape[1]
    theta = np.full(n_centers, 1.0 / float(b_vec.sum()))
    objective = kliep_objective(design, theta)
    if trace is not None:
        trace.append(objective)
    iterations = 0
    converged = False
    step_init = 1.0
    for it in range(1, max_iters + 1):
        iterations = it
        grad = kliep_gradient(design, theta)
        step = step_init
        accepted = False
        for _ in range(_MAX_HALVINGS):
            candidate = _kliep_project(theta + step * grad, b_vec)
            gain = float(grad @ (candidate - theta))
            if gain > 0.0:
                cand_objective = kliep_objective(design, candidate)
                if cand_objective >= objective + _ARMIJO * gain:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            converged = True  # no ascent step exists at this point
            break
        step_init = 2.0 * step  # warm-start the next backtracking search
        delta = cand_objective - objective
        theta = candidate
        objective = cand_objective
        if not np.isfinite(objective):
            raise NumericError("KLIEP objective became non-finite")
        if trace is not None:
            trace.append(objective)
        if delta < tolerance:
            converged = True
            break
    model = RatioModel(
        centers=design.centers, theta=theta, sigma=design.sigma, alpha=0.0
    )
    return model, FitDiagnostics(
        objective_value=objective, iterations=iterations, converged=converged
    )


def pe_alpha_estimate(
    model: RatioModel,
    numerator_samples: np.ndarray,
    denominator_samples: np.ndarray,
    design=None,
) -> float:
    """Empirical alpha-relative Pearson divergence of a fitted model:

    -(alpha/2) mean_i g(Y_i)^2 - ((1-alpha)/2) mean_j g(Y'_j)^2
    + mean_i g(Y_i) - 1/2.

    The raw value is returned; it may be negative.  ``design`` short-circuits
    kernel re-evaluation when the fit's design matrices are already at hand.
    """
    if design is not None:
        g_num = design.k_num @ model.theta
        g_den = design.k_den @ model.theta
    else:
        num = np.atleast_2d(np.asarray(numerator_samples, dtype=np.float64))
        den = np.atleast_2d(np.asarray(denominator_samples, dtype=np.float64))
        n_fit = model.centers.shape[0]
        if num.shape[0] != n_fit or den.shape[0] != n_fit:
            raise ParameterError(
                f"sample counts ({num.shape[0]}, {den.shape[0]}) do not match "
                f"the fitted sample count {n_fit}"
            )
        g_num = model.evaluate(num)
        g_den = model.evaluate(den)
    alpha = model.alpha
    return float(
        -(alpha / 2.0) * np.mean(g_num**2)
        - ((1.0 - alpha) / 2.0) * np.mean(g_den**2)
        + np.mean(g_num)
        - 0.5
    )


def kl_estimate(
    model: RatioModel, numerator_samples: np.ndarray, design=None
) -> float:
    """Empirical KL divergence mean_i log g(Y_i), with g floored at
    LOG_FLOOR before the log."""
    if design is not None:
        g_num = design.k_num @ model.theta
    else:
        g_num = model.evaluate(numerator_samples)
    return float(np.mean(np.log(np.maximum(g_num, LOG_FLOOR))))
