"""Density-ratio estimators and divergence estimates.

Three fitters share the kernel model g(Y; theta) = sum_l theta_l K(Y, C_l):

* ``ulsif_fit``   -- least-squares fit of the plain ratio p/p'; closed form.
* ``rulsif_fit``  -- least-squares fit of the alpha-relative ratio
                     p / (alpha p + (1 - alpha) p'); same closed form with an
                     alpha-mixed Gram matrix.
* ``kliep_fit``   -- maximum-likelihood fit of the plain ratio under a
                     normalization constraint; projected gradient ascent.

KLIEP fits run on ``kliep_ascent``, the one engine for every KLIEP problem
(``kliep_fit``, CV and the detector's final fits); its docstring describes
the engine.

From a fitted model, ``pe_alpha_estimate`` approximates the alpha-relative
Pearson divergence and ``kl_estimate`` the Kullback-Leibler divergence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
# imported only for perfbench/perftrace.py, which counts its calls here by
# getattr, until that tracer reads per-layer counters instead
from scipy.linalg import cho_factor  # noqa: F401
from scipy.linalg.lapack import dposv

from .errors import (
    DegenerateBandwidthError,
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
# bytes that one group of fits may hold: see budget_units and kliep_rows
BUDGET = 8_000_000
# centers-length vectors of doubles that a row of kliep_ascent's buffer holds
# besides its kernel rows: see kliep_rows
_ROW_VECTORS = 16


def budget_units(centers: int) -> int:
    """How many centers x centers arrays of doubles fit in BUDGET, at least 1:
    the size of every group of fits but the KLIEP engine's buffer (see
    ``kliep_rows``), read at call time.  A least-squares CV stack holds that
    many (sigma, fold, lambda) systems, a final-fit chunk that many
    (position, direction) pairs, and a detector run's KLIEP CV that many
    (block, direction, sigma) kernels; with 50 centers that is 400, with 200
    it is 25."""
    return max(1, BUDGET // (8 * centers * centers))


def kliep_rows(samples: int, centers: int) -> int:
    """How many rows of ``kliep_ascent``'s buffer fit in BUDGET, at least 1,
    for problems of (samples, centers) kernel rows, read at call time.  A row
    holds those kernel rows and _ROW_VECTORS vectors of centers doubles: its
    state (b, w, the last move and the search's gradient) and its share of
    each round's temporaries (the new gradient, the trial point, the
    projection's sort and sums, the model values).  ``tracemalloc`` puts a
    row at 17-19 such vectors at 20 to 200 centers, the outputs included.
    With 50 centers that is 357 CV rows (40 samples) and 303 final-fit
    rows (50 samples); with 200, 28 and 23."""
    return max(1, BUDGET // (8 * (samples + _ROW_VECTORS) * centers))


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
    gap: float = 0.0  # KLIEP: certified bound on the distance to the maximum


def _solve_spd(h_mat: np.ndarray, lam, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve of (H + lam I) theta = rhs for one system or each of a
    stack: H (..., b, b), ``lam`` (...) and rhs (..., b) broadcast to one stack
    shape and copied once, the systems H + lam I and the right-hand sides.
    Each system is solved by one LAPACK posv call in place on its transpose, a
    Fortran-order view of the copy that is the system itself only because H
    is exactly symmetric (``gram_system``'s H is).  A system that is not
    positive definite is rebuilt from its own H, then lam, then a diagonal
    jitter of 1e-10 trace(H) / b and solved once more, then raises
    ``SingularSystemError``.  The arguments are left unmodified."""
    width = h_mat.shape[-1]
    shape = np.broadcast_shapes(h_mat.shape[:-2], np.shape(lam), rhs.shape[:-1])
    # one copy of the whole stack: copied 512 KiB at a time, serial sweeps ran
    # 15-20% slower, as glibc's mmap threshold then stayed below the 0.4 MB
    # arrays of the fold-stacked CV, which were mapped and faulted in anew
    systems = np.empty(shape + (width, width))
    systems[...] = h_mat
    systems = systems.reshape(-1, width, width)
    diagonals = systems.reshape(len(systems), -1)[:, :: width + 1]
    lams = np.broadcast_to(lam, shape).reshape(-1, 1)
    diagonals += lams
    theta = np.empty(shape + (width,))
    theta[...] = rhs
    theta = theta.reshape(-1, width)
    for i, (a, b) in enumerate(zip(systems, theta)):
        if dposv(a.T, b, lower=1, overwrite_a=1, overwrite_b=1)[2]:
            index = np.unravel_index(i, shape)
            h_own = np.broadcast_to(h_mat, shape + (width, width))[index]
            a[...] = h_own
            diagonals[i] += lams[i]
            diagonals[i] += 1e-10 * float(np.trace(h_own)) / width
            b[...] = np.broadcast_to(rhs, shape + (width,))[index]
            if dposv(a.T, b, lower=1, overwrite_a=1, overwrite_b=1)[2]:
                raise SingularSystemError(
                    "H + lambda I is not positive definite; use lambda > 0"
                )
    return theta.reshape(shape + (width,))


def gram_system(
    k_num: np.ndarray, k_den: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Alpha-mixed Gram matrix H and vector h of the least-squares fit:

    H[l, l'] = alpha mean_i K(Y_i, C_l) K(Y_i, C_l')
             + (1 - alpha) mean_j K(Y'_j, C_l) K(Y'_j, C_l'),
    h[l] = mean_i K(Y_i, C_l).

    Takes (samples, centers) kernels or stacks of them, (..., samples,
    centers); H is then (..., centers, centers) and h (..., centers).  H is
    exactly symmetric, as ``_solve_spd`` needs: numpy computes K' K of one
    array with BLAS syrk, which fills one triangle and mirrors it, or else
    adds the same products in the same order for [l, l'] and [l', l].
    """
    h_mat = ((1.0 - alpha) / k_den.shape[-2]) * (k_den.swapaxes(-1, -2) @ k_den)
    if alpha:  # uLSIF (alpha = 0) skips the numerator Gram product
        h_mat += (alpha / k_num.shape[-2]) * (k_num.swapaxes(-1, -2) @ k_num)
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


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of every row of ``v`` (problems, m) onto
    the unit simplex {x >= 0, sum x = 1} (Duchi et al., ICML 2008): x =
    max(v - tau, 0), where, with the row sorted in descending order u, tau =
    (u_1 + ... + u_r - 1) / r at the last r with u_r above it.  Cheaper
    heuristics (clamp then rescale) stall the ascent at points that are not
    KKT points.  The rescaling pins sum x = 1; a degenerate all-zero
    candidate stays unscaled and the line search rejects it.
    """
    width = v.shape[1]
    desc = np.sort(v, axis=1)[:, ::-1]
    level = np.cumsum(desc, axis=1)
    level -= 1.0
    level /= np.arange(1, width + 1)
    last = (width - 1) - np.argmax((desc > level)[:, ::-1], axis=1)
    out = v - level[np.arange(len(v)), last][:, None]
    np.maximum(out, 0.0, out=out)
    s = np.ones(width) @ out[..., None]  # sum by dot product, row by row
    out /= np.where(s > 0.0, s, 1.0)
    return out


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_p . b_p for every row p, one dot product per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _try_steps(stack, w, grad, objective, steps):
    """One backtracking round for every problem of the stack: project
    w + step * grad for its one entry of ``steps`` (problems,) and apply the
    Armijo test.  Returns the mask of problems whose step passed, and their
    candidates with their objectives and model values g."""
    cand = _simplex_project(w + steps[:, None] * grad)
    # products per candidate (matrix-vector and dot, not matrix-matrix), so
    # each value is computed as in a one-problem fit
    gain = _row_dot(cand - w, grad)
    cand_g = (stack @ cand[..., None])[..., 0]  # (problems, samples)
    cand_objective = _mean_log(cand_g)
    hit = (gain > 0.0) & (cand_objective >= objective + _ARMIJO * gain)
    return hit, cand[hit], cand_objective[hit], cand_g[hit]


def kliep_ascent(
    problems,
    count: int,
    tolerance: float = 1e-3,
    max_iters: int = 500,
    traces: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient ascent for a stream of KLIEP problems, in lockstep.

    ``problems`` yields ``count`` (k_num, b) pairs of one shape, (samples,
    centers) and (centers): problem p maximizes mean_i log (k_num @ theta)_i
    subject to b . theta = 1 and theta >= 0, with b the mean denominator
    kernel row.  A stream that yields fewer or more than ``count`` problems
    raises ``ParameterError``.  The engine copies each problem, as it takes
    it, into a buffer of min(``kliep_rows(samples, centers)``, ``count``)
    rows, so the caller's arrays are never modified and may be freed at once.
    An entry of b that underflows to 0 or below the smallest normal double
    raises ``DegenerateBandwidthError``: with b_l = 0, theta_l is unbounded
    under b . theta = 1, and so is the objective.
    The ascent runs in w = b * theta over the unit simplex: the buffered
    kernel rows are divided by b, and w starts at the uniform weights
    1 / centers or at the uniform theta, w = b / sum(b), whichever has the
    higher objective.  From the uniform theta alone, a center with a tiny
    b_l starts with almost no weight and a gradient entry near 1 / b_l, too
    steep for any halving of the first step to pass (as at b_l = 1.6e-109);
    from the uniform weights alone, a fit could end below the uniform
    theta's objective, by up to its gap.

    An iteration of a problem takes the gradient in w and its certified gap,
    log max_l grad_l: no feasible point is better by more than that, so a
    problem whose gap is at most ``tolerance`` (nats) stops as converged.
    Otherwise it tries a step from a trial value, halved up to _MAX_HALVINGS
    times until a candidate projected by ``_simplex_project`` passes the
    Armijo test (factor 1e-4).  The trial is the spectral step s.s / (-s.y)
    of the last move s and gradient change y (Barzilai & Borwein 1988, as in
    SPG: Birgin, Martinez & Raydan 2000), or the scale-free 1 / max_l grad_l
    where -s.y <= 0 or the quotient is not finite: at the first iteration,
    where s = 0, and, f being concave, hardly ever after it (never in the
    291,572 later trials of ``tools/kliep_stacks.py`` at seeds 3 and 11).
    A problem where no step passes, or that reaches ``max_iters``
    iterations, ends not converged.

    Each round takes new problems into the rows that finished ones freed (or
    up to the buffer's size), takes the gradient of every buffered problem at
    its new point, drops the problems that are finished, compacting the
    buffer in place with rows from above its new length, then lets every
    problem left try one candidate, its trial step halved as often as its
    search has missed, so a search spans as many rounds as it needs while
    the others go on.  The buffer stays full until the stream runs dry; only
    the stream's end runs nearly empty rounds, which cost about as much as
    full ones (numpy call overhead dominates small rounds).  Products are
    matrix-vector or dot products per problem, so each problem follows the
    same iterates as in a one-problem fit, whatever else is buffered with it.
    ``traces``, when given, holds one list per problem for its start
    objective and the objective after every accepted step.  Returns (theta,
    objective, iterations, converged, gap) in stream order, with gap the
    certified gap at theta; a problem's iterations count the gradients its
    searches started from, plus the one that certified it.
    """
    if count < 1:
        raise ParameterError(f"a KLIEP stream needs at least one problem, got {count}")
    problems = iter(problems)
    first = next(problems, None)
    if first is None:
        raise ParameterError(f"a KLIEP stream of {count} problems ended after 0")
    samples, centers = np.shape(first[0])
    cap = min(kliep_rows(samples, centers), count)  # buffers of cap rows, outputs of count
    bufs = (np.empty((cap, samples, centers)), np.empty((cap, centers)),
            np.empty(cap, dtype=np.int64), *np.empty((3, cap, centers)),
            *np.empty((2, cap)), *np.empty((2, cap), dtype=np.int64),
            np.empty(cap, dtype=bool), np.empty((cap, samples)))
    out_theta = np.empty((count, centers))
    out_objective, out_gap = np.empty((2, count))
    iterations, converged = np.empty(count, dtype=np.int64), np.zeros(count, bool)
    problems = itertools.chain([first], problems)
    admitted = size = 0
    while True:
        end = min(cap, size + count - admitted)  # rows after this round's intake
        if not end:
            break
        for row in range(size, end):
            try:
                k_row, b_row = next(problems)
            except StopIteration:
                raise ParameterError(
                    f"a KLIEP stream of {count} problems ended after {admitted}") from None
            bufs[0][row], bufs[1][row], bufs[2][row] = k_row, b_row, admitted
            admitted += 1
        # w: weights; move: last accepted w_k - w_{k-1}; grad: where the search
        # started; halvings: of the trial, tried so far; taken: searches
        # started; fresh: at a new point, a step passed; live: stream index
        (stack, b_vec, live, w, move, grad, objective, trial, halvings, taken, fresh,
         g) = (a[:end] for a in bufs)
        if end > size:  # start the new problems
            new = slice(size, end)
            if not np.all(b_vec[new] >= np.finfo(np.float64).tiny):
                raise DegenerateBandwidthError(
                    "a center's mean denominator kernel value underflows to 0 at this "
                    "bandwidth, so the KLIEP objective has no finite maximum"
                )
            stack[new] /= b_vec[new, None, :]
            uniform_w = np.full((end - size, centers), 1.0 / centers)
            uniform_w_g = (stack[new] @ uniform_w[..., None])[..., 0]
            uniform_theta = b_vec[new] / b_vec[new].sum(axis=1, keepdims=True)
            uniform_theta_g = (stack[new] @ uniform_theta[..., None])[..., 0]
            better = (_mean_log(uniform_theta_g) > _mean_log(uniform_w_g))[:, None]
            w[new] = np.where(better, uniform_theta, uniform_w)
            g[new] = np.where(better, uniform_theta_g, uniform_w_g)
            objective[new] = _mean_log(g[new])
            move[new] = grad[new] = 0.0
            halvings[new] = taken[new] = 0
            fresh[new] = True
            if traces is not None:
                for p, start in zip(live[new], objective[new]):
                    traces[p].append(float(start))
            size = end
        inv_g = np.where(g > LOG_FLOOR, 1.0 / np.maximum(g, LOG_FLOOR), 0.0)
        new_grad = (stack.swapaxes(1, 2) @ inv_g[..., None])[..., 0] / samples
        top = new_grad.max(axis=1)
        gap = np.log(top)
        capped = fresh & (taken >= max_iters)
        certified = fresh & ~capped & (gap <= tolerance)
        done = capped | certified | (halvings >= _MAX_HALVINGS)
        if done.any():
            idx = live[done]
            out_theta[idx], out_objective[idx] = w[done] / b_vec[done], objective[done]
            out_gap[idx], converged[idx] = gap[done], certified[done]
            iterations[idx] = taken[done] + certified[done]
            size -= np.count_nonzero(done)
            holes = np.flatnonzero(done[:size])  # filled by the kept rows above size
            sources = size + np.flatnonzero(~done[size:])
            for a in (*bufs, new_grad, top):
                a[holes] = a[sources]
            (stack, b_vec, live, w, move, grad, objective, trial, halvings, taken, fresh,
             g, new_grad, top) = (a[:size] for a in (*bufs, new_grad, top))
            if not size:
                continue
        if fresh.any():  # new searches
            curvature = -_row_dot(move, new_grad - grad)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                spectral = _row_dot(move, move) / curvature
            step = np.where((curvature > 0.0) & np.isfinite(spectral), spectral, 1.0 / top)
            trial[fresh], grad[fresh] = step[fresh], new_grad[fresh]
            halvings[fresh] = 0
            taken += fresh
        hit, cand, cand_objective, cand_g = _try_steps(
            stack, w, grad, objective, trial * 0.5 ** halvings)
        move[hit] = cand - w[hit]
        w[hit], objective[hit], g[hit] = cand, cand_objective, cand_g
        if not np.all(np.isfinite(cand_objective)):
            raise NumericError("KLIEP objective became non-finite")
        if traces is not None:
            for i in np.flatnonzero(hit):
                traces[live[i]].append(float(objective[i]))
        halvings[~hit] += 1
        fresh[:] = hit
    if next(problems, None) is not None:
        raise ParameterError(f"a KLIEP stream of {count} problems yielded more")
    return out_theta, out_objective, iterations, converged, out_gap


def kliep_fit(
    design,
    tolerance: float = 1e-3,
    max_iters: int = 500,
    trace: list | None = None,
) -> tuple[RatioModel, FitDiagnostics]:
    """Constrained maximum-likelihood ratio fit by projected gradient ascent.

    Maximizes mean_i log g(Y_i) subject to mean_j g(Y'_j) = 1 and theta >= 0
    with ``kliep_ascent`` on a stream of one problem: spectral trial steps,
    halved until the Armijo test passes, so the objective trace is monotone
    non-decreasing.  ``tolerance`` is the certified gap in nats at which the
    ascent stops as converged.  ``trace``, when given, receives the start
    objective and the objective after every accepted step.  The diagnostics'
    ``gap``, the ascent's log max_l grad_l / b_l at theta, bounds how far the
    objective is below its maximum; a converged fit has gap <= ``tolerance``.
    """
    b_vec = design.k_den.mean(axis=0)
    theta, objective, iterations, converged, gap = kliep_ascent(
        [(design.k_num, b_vec)], 1, tolerance, max_iters, None if trace is None else [trace]
    )
    model = RatioModel(
        centers=design.centers, theta=theta[0], sigma=design.sigma, alpha=0.0
    )
    return model, FitDiagnostics(
        objective_value=float(objective[0]),
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
        gap=float(gap[0]),
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
