"""Density-ratio estimators and divergence estimates.

Three fitters share the kernel model g(Y; theta) = sum_l theta_l K(Y, C_l):

* ``ulsif_fit``   -- least-squares fit of the plain ratio p/p'; closed form.
* ``rulsif_fit``  -- least-squares fit of the alpha-relative ratio
                     p / (alpha p + (1 - alpha) p'); same closed form with an
                     alpha-mixed Gram matrix.
* ``kliep_fit``   -- maximum-likelihood fit of the plain ratio under a
                     normalization constraint; projected gradient ascent.

KLIEP fits run on ``kliep_ascent``, which runs a stack of problems in
lockstep: per iteration one gradient, one batch of candidate steps and one
row-wise exact projection for every problem still running, each with its
own step size.  The backtracking is speculative: a round tries the next
_SPECULATIVE_HALVINGS halvings of every pending problem at once and keeps
the first that passes the Armijo test, the step a one-at-a-time search
accepts.  Products are matrix-vector or dot products per candidate, so a
problem's iterates do not depend on the rest of the stack.  Finished
problems leave the stack; the largest temporaries are a few (problems x
_SPECULATIVE_HALVINGS x centers) arrays.  On one problem the engine is about
twice as slow as a plain loop, so callers batch, up to STACK problems a
stack: CV sends the (sigma, fold) problems of all its problems (400 for a
detector run of 8 blocks, default grid), the detector the final fits of a
run's whole chunks.

From a fitted model, ``pe_alpha_estimate`` approximates the alpha-relative
Pearson divergence and ``kl_estimate`` the Kullback-Leibler divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor  # noqa: F401 -- for tracing wrappers
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    DimensionMismatchError,
    NumericError,
    ParameterError,
    SingularSystemError,
)
from .kernel import gaussian_kernels

ULSIF = "ulsif"
RULSIF = "rulsif"
KLIEP = "kliep"
ESTIMATOR_KINDS = (RULSIF, ULSIF, KLIEP)

# Ratio values are floored at this before any log (KLIEP objective, KL estimate).
LOG_FLOOR = 1e-12

_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# halvings tried at once per problem in the first backtracking round; later
# rounds split the same number of candidates among the problems still pending
_SPECULATIVE_HALVINGS = 3
# most problems per kliep_ascent stack that CV and the detector send; with
# 50 samples and centers, a stack of STACK problems holds 8 MB
STACK = 400


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
        return gaussian_kernels(arr, self.centers, (self.sigma,))[0] @ self.theta


@dataclass(frozen=True)
class FitDiagnostics:
    objective_value: float
    iterations: int = 0
    converged: bool = True


def _solve_spd(h_mat: np.ndarray, lam, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve (LAPACK potrf/potrs) of (H + lam I) theta = rhs for one
    system or each of a stack: H (..., b, b), ``lam`` (...) and rhs (..., b)
    broadcast to one stack shape, built in one copy.  A system that is not
    positive definite is factored once more with its diagonal raised by
    1e-10 trace(H) / b of its own H, then raises ``SingularSystemError``."""
    width = h_mat.shape[-1]
    shape = np.broadcast_shapes(h_mat.shape[:-2], np.shape(lam), rhs.shape[:-1])
    systems = np.empty(shape + (width, width))
    systems[...] = h_mat
    systems = systems.reshape(-1, width, width)
    diagonals = systems.reshape(len(systems), -1)[:, :: width + 1]
    diagonals += np.broadcast_to(lam, shape).reshape(-1, 1)
    h_mats = np.broadcast_to(h_mat, shape + (width, width))
    rhs = np.broadcast_to(rhs, shape + (width,)).reshape(-1, width)
    theta = np.empty((len(systems), width))
    for i, (a, b) in enumerate(zip(systems, rhs)):
        factor, info = dpotrf(a, lower=1, clean=0)
        if info:
            h_own = h_mats[np.unravel_index(i, shape)]
            diagonals[i] += 1e-10 * float(np.trace(h_own)) / width
            factor, info = dpotrf(a, lower=1, clean=0)
            if info:
                raise SingularSystemError(
                    "H + lambda I is not positive definite; use lambda > 0"
                )
        theta[i] = dpotrs(factor, b, lower=1)[0]
    return theta.reshape(shape + (width,))


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


def _mean_log(g: np.ndarray) -> np.ndarray:
    """mean log g over the last axis, with g floored at LOG_FLOOR."""
    return np.log(np.maximum(g, LOG_FLOOR)).sum(axis=-1) / g.shape[-1]


def kliep_objective(design, theta: np.ndarray) -> float:
    """Mean log model value over numerator samples, floored at LOG_FLOOR."""
    return float(_mean_log(design.k_num @ theta))


def kliep_gradient(design, theta: np.ndarray) -> np.ndarray:
    """Analytic gradient of ``kliep_objective`` (zero where the floor binds)."""
    g = design.k_num @ theta
    w = np.where(g > LOG_FLOOR, 1.0 / np.maximum(g, LOG_FLOOR), 0.0)
    return design.k_num.T @ w / design.k_num.shape[0]


def _kliep_project(theta: np.ndarray, b_vec: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of every row of ``theta`` (..., centers)
    onto {x >= 0, b.x = 1}, with b > 0 broadcast against the rows.

    Solves min ||x - theta||^2 by thresholding x = max(theta - mu b, 0) with
    mu chosen from the sorted breakpoints theta_i / b_i.  Cheaper heuristics
    (clamp then rescale) have stationary points that are not KKT points of
    the KLIEP problem and stall the ascent far from the optimum.  Ties among
    the breakpoints may be sorted either way; the threshold does not change.
    Many rows are projected at once, so temporaries are reused in place.
    """
    width = theta.shape[-1]
    ratios = theta / b_vec
    np.negative(ratios, out=ratios)
    order = ratios.argsort(axis=-1)  # descending breakpoints
    np.negative(ratios, out=ratios)
    # flat positions, so one gather sorts every row
    rows = np.arange(0, theta.size, width).reshape(theta.shape[:-1] + (1,))
    order += rows
    ratios = ratios.reshape(-1)[order]
    work = b_vec * theta
    mu = work.reshape(-1)[order]
    np.cumsum(mu, axis=-1, out=mu)
    mu -= 1.0
    np.multiply(b_vec, b_vec, out=work)
    work = work.reshape(-1)[order]
    np.cumsum(work, axis=-1, out=work)
    mu /= work
    # the level is mu at the last breakpoint above it, else mu at the end
    last = rows[..., 0] + (width - 1) - np.argmax((ratios > mu)[..., ::-1], axis=-1)
    out = np.multiply(mu.reshape(-1)[last][..., None], b_vec, out=work)
    np.subtract(theta, out, out=out)
    np.maximum(out, 0.0, out=out)
    s = (b_vec[..., None, :] @ out[..., None])[..., 0]  # b.x by dot, row by row
    # a numerically degenerate candidate (s <= 0) stays unscaled and the line
    # search rejects it; otherwise pin the equality constraint
    out /= np.where(s > 0.0, s, 1.0)
    return out


def _try_steps(stack, theta, grad, objective, b_vec, steps, pending):
    """One backtracking round: for each problem in ``pending``, project
    theta + step * grad for each of its ``steps`` (pending, tried) and find
    the first candidate that passes the Armijo test.  Returns the mask of
    problems with a passing step, the index of that step, and the candidate
    with its objective and model values g, for the masked problems."""
    base, direction = theta[pending, None], grad[pending, None]
    cand = _kliep_project(base + steps[..., None] * direction, b_vec[pending, None])
    # products per candidate (matrix-vector and dot, not matrix-matrix), so
    # each value is computed as in a one-problem fit
    gain = ((cand - base)[..., None, :] @ direction[..., None])[..., 0, 0]
    if pending.size == len(stack):
        cand_g = stack[:, None] @ cand[..., None]
    else:  # problem by problem, so the pending rows of the stack are not copied
        cand_g = np.stack([stack[p] @ c[..., None] for p, c in zip(pending, cand)])
    cand_g = cand_g[..., 0]  # (pending, tried, samples)
    cand_objective = _mean_log(cand_g)
    passed = (gain > 0.0) & (cand_objective >= objective[pending, None] + _ARMIJO * gain)
    hit = passed.any(axis=1)
    pick = passed.argmax(axis=1)[hit]
    return hit, pick, cand[hit, pick], cand_objective[hit, pick], cand_g[hit, pick]


def kliep_ascent(
    k_num: np.ndarray,
    b_vec: np.ndarray,
    tolerance: float = 1e-6,
    max_iters: int = 500,
    traces: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient ascent for a stack of KLIEP problems in lockstep.

    Problem p maximizes mean_i log (k_num[p] @ theta)_i subject to
    b_vec[p] . theta = 1 and theta >= 0; ``k_num`` is (problems, samples,
    centers) and ``b_vec`` (problems, centers) holds the mean denominator
    kernel rows.  Each step starts at twice the last accepted one (1.0 at
    first) and is halved up to _MAX_HALVINGS times until a projected
    candidate passes the Armijo test (factor 1e-4); later backtracking rounds
    share the first round's candidate count among the problems still
    pending.  A problem is done when no step passes or the gain is below
    ``tolerance`` (both converged) or after ``max_iters`` iterations (not
    converged).  Finished problems' rows of ``k_num`` are overwritten, as
    the stack is compacted in place.  ``traces``, when given, holds one list
    per problem for its start objective and the objective after every
    accepted step.  Returns (theta, objective, iterations, converged).
    """
    count, samples, centers = k_num.shape
    theta = np.repeat(1.0 / b_vec.sum(axis=1, keepdims=True), centers, axis=1)
    g = (k_num @ theta[..., None])[..., 0]
    objective = _mean_log(g)
    step = np.ones(count)
    out_theta = np.empty((count, centers))
    out_objective = np.empty(count)
    iterations = np.full(count, max_iters)
    converged = np.zeros(count, dtype=bool)
    live = np.arange(count)  # original index of each stacked problem
    if traces is not None:
        for p in live:
            traces[p].append(float(objective[p]))
    for it in range(1, max_iters + 1):
        stack = k_num[: live.size]
        w = np.where(g > LOG_FLOOR, 1.0 / np.maximum(g, LOG_FLOOR), 0.0)
        grad = (stack.swapaxes(1, 2) @ w[..., None])[..., 0] / samples
        moved = np.zeros(live.size, dtype=bool)
        delta = np.zeros(live.size)
        pending = np.arange(live.size)
        first, width = 0, _SPECULATIVE_HALVINGS
        while pending.size and first < _MAX_HALVINGS:
            tried = 0.5 ** np.arange(first, min(first + width, _MAX_HALVINGS))
            hit, pick, cand, cand_objective, cand_g = _try_steps(
                stack, theta, grad, objective, b_vec, step[pending, None] * tried, pending
            )
            accept = pending[hit]
            delta[accept] = cand_objective - objective[accept]
            theta[accept], objective[accept], g[accept] = cand, cand_objective, cand_g
            step[accept] *= 2.0 * tried[pick]
            moved[accept] = True
            pending = pending[~hit]
            first += width
            width = _SPECULATIVE_HALVINGS * live.size // max(pending.size, 1)
        if not np.all(np.isfinite(objective[moved])):
            raise NumericError("KLIEP objective became non-finite")
        if traces is not None:
            for i in np.flatnonzero(moved):
                traces[live[i]].append(float(objective[i]))
        done = ~moved | (delta < tolerance)
        if not done.any():
            continue
        idx = live[done]
        out_theta[idx], out_objective[idx] = theta[done], objective[done]
        iterations[idx], converged[idx] = it, True
        keep = np.flatnonzero(~done)
        for dst, src in enumerate(keep):  # ascending: no row is read after
            if dst != src:  # it has been overwritten
                k_num[dst] = k_num[src]
        live, theta, objective, g, step, b_vec = (
            a[keep] for a in (live, theta, objective, g, step, b_vec)
        )
        if not live.size:
            break
    out_theta[live], out_objective[live] = theta, objective
    return out_theta, out_objective, iterations, converged


def kliep_fit(
    design,
    tolerance: float = 1e-6,
    max_iters: int = 500,
    trace: list | None = None,
) -> tuple[RatioModel, FitDiagnostics]:
    """Constrained maximum-likelihood ratio fit by projected gradient ascent.

    Maximizes mean_i log g(Y_i) subject to mean_j g(Y'_j) = 1 and theta >= 0
    with ``kliep_ascent`` on a one-problem stack; the objective trace is
    monotone non-decreasing.  ``trace``, when given, receives the start
    objective and the objective after every accepted step.
    """
    theta, objective, iterations, converged = kliep_ascent(
        design.k_num[None],
        design.k_den.mean(axis=0)[None],
        tolerance,
        max_iters,
        None if trace is None else [trace],
    )
    model = RatioModel(
        centers=design.centers, theta=theta[0], sigma=design.sigma, alpha=0.0
    )
    return model, FitDiagnostics(
        objective_value=float(objective[0]),
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
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
    return float(pe_terms(g_num, g_den, model.alpha))


def pe_terms(g_num: np.ndarray, g_den: np.ndarray, alpha: float) -> np.ndarray:
    """``pe_alpha_estimate``'s formula over the last axis of g(Y_i), g(Y'_j)."""
    return (
        -(alpha / 2.0) * np.mean(g_num**2, axis=-1)
        - ((1.0 - alpha) / 2.0) * np.mean(g_den**2, axis=-1)
        + np.mean(g_num, axis=-1)
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
    return float(_mean_log(g_num))
