"""Independent reference computations used to pin expected test values.

Everything here is deliberately written from first principles (loops,
quadrature, exhaustive enumeration) and stays independent of the package
code paths it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist, pdist


def window_vectors_by_index(values: np.ndarray, k: int) -> list[list[float]]:
    """Subsequence vectors via explicit index arithmetic (time-major)."""
    d, t_len = values.shape
    out = []
    for start in range(t_len - k + 1):
        vec = []
        for j in range(k):
            for dim in range(d):
                vec.append(float(values[dim][start + j]))
        out.append(vec)
    return out


def median_pairwise_distance(samples: np.ndarray) -> float:
    """Median over all unordered pairs, computed by explicit enumeration."""
    dists = []
    m = len(samples)
    for a in range(m):
        for b in range(a + 1, m):
            diff = np.asarray(samples[a], dtype=float) - np.asarray(samples[b], dtype=float)
            dists.append(math.sqrt(float(diff @ diff)))
    dists.sort()
    mid = len(dists) // 2
    if len(dists) % 2 == 1:
        return dists[mid]
    return 0.5 * (dists[mid - 1] + dists[mid])


def gaussian_pdf(y: float, mu: float, sd: float) -> float:
    return math.exp(-((y - mu) ** 2) / (2 * sd**2)) / (sd * math.sqrt(2 * math.pi))


def true_ratio_alpha(y, p, q, alpha: float) -> float:
    """alpha-relative density ratio p / (alpha p + (1 - alpha) q)."""
    py, qy = p(y), q(y)
    return py / (alpha * py + (1.0 - alpha) * qy)


def true_pe_alpha(p, q, alpha: float, lo: float = -10.0, hi: float = 10.0) -> float:
    """alpha-relative Pearson divergence by quadrature:
    0.5 * integral (p - m)^2 / m with m = alpha p + (1 - alpha) q."""

    def integrand(y):
        py, qy = p(y), q(y)
        m = alpha * py + (1.0 - alpha) * qy
        return 0.5 * (py - m) ** 2 / m

    value, _ = quad(integrand, lo, hi, limit=200)
    return value


def gaussian_kl(mu1: float, mu2: float) -> float:
    """KL divergence between unit-variance Gaussians."""
    return 0.5 * (mu1 - mu2) ** 2


def brute_force_roc(alarm_times, alarm_scores, truths, n_cp: int):
    """Threshold-enumeration ROC oracle, recomputing every count from
    scratch.  Returns (points, thresholds, auc)."""
    points = [(0.0, 0.0)]
    thresholds = [float("inf")]
    for eta in sorted(set(alarm_scores), reverse=True):
        kept = [t for t, s in zip(alarm_times, alarm_scores) if s >= eta]
        kept.sort()
        used = set()
        n_cr = 0
        for t in kept:
            for j, truth in enumerate(sorted(truths)):
                if j not in used and abs(t - truth) <= 10:
                    used.add(j)
                    n_cr += 1
                    break
        n_al = len(kept)
        fpr = (n_al - n_cr) / n_al if n_al else 0.0
        points.append((fpr, n_cr / n_cp))
        thresholds.append(float(eta))
    if points[-1][0] < 1.0:
        points.append((1.0, points[-1][1]))
        thresholds.append(float("-inf"))
    auc = math.fsum(
        0.5 * (y0 + y1) * (x1 - x0)
        for (x0, y0), (x1, y1) in zip(points, points[1:])
    )
    return points, thresholds, auc


def ar2_mean_gain() -> float:
    """Steady-state gain of y(t) = 0.6 y(t-1) - 0.5 y(t-2) + e(t) for the
    mean of e: 1 / (1 - 0.6 + 0.5)."""
    return 1.0 / (1.0 - 0.6 + 0.5)


def simulate_ar2_long_run_mean(mu: float, steps: int, seed: int) -> float:
    """Long-run simulation oracle for the AR(2) mean gain."""
    rng = np.random.default_rng(seed)
    noise = mu + 1.5 * rng.standard_normal(steps)
    y = np.zeros(steps)
    for t in range(2, steps):
        y[t] = 0.6 * y[t - 1] - 0.5 * y[t - 2] + noise[t]
    return float(y[steps // 2 :].mean())


def least_squares_cv_loop(num, den, sigma_factors, lambdas, folds, seed, alpha):
    """(R)uLSIF grid CV with one plain numpy solve per (sigma, fold, lambda).

    Folds: one PCG64 permutation of the numerator indices, then one of the
    denominator indices, each cut into contiguous blocks by
    ``np.array_split``.  Centers are the numerator samples.  A singular
    system is solved again with the diagonal raised by 1e-10 trace(H) / b.
    Returns (table, best_key); the best key is the last minimum in
    ascending (sigma, lambda) order.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    d_med = float(np.median(pdist(np.vstack([num, den]))))
    rng = np.random.Generator(np.random.PCG64(seed))
    num_blocks = np.array_split(rng.permutation(len(num)), folds)
    den_blocks = np.array_split(rng.permutation(len(den)), folds)
    b = len(num)
    table = {}
    for factor in sorted(set(sigma_factors)):
        sigma = factor * d_med

        def kernel(x):
            sq = ((x[:, None, :] - num[None, :, :]) ** 2).sum(axis=-1)
            return np.exp(-sq / (2.0 * sigma**2))

        k_num, k_den = kernel(num), kernel(den)
        sums = {lam: 0.0 for lam in lambdas}
        for f in range(folds):
            tr_num = np.concatenate([blk for j, blk in enumerate(num_blocks) if j != f])
            tr_den = np.concatenate([blk for j, blk in enumerate(den_blocks) if j != f])
            h_mat = alpha * k_num[tr_num].T @ k_num[tr_num] / len(tr_num) + (
                1.0 - alpha
            ) * k_den[tr_den].T @ k_den[tr_den] / len(tr_den)
            h_vec = k_num[tr_num].mean(axis=0)
            for lam in lambdas:
                system = h_mat + lam * np.eye(b)
                try:
                    theta = np.linalg.solve(system, h_vec)
                except np.linalg.LinAlgError:
                    jitter = 1e-10 * np.trace(h_mat) / b
                    theta = np.linalg.solve(system + jitter * np.eye(b), h_vec)
                g_num = k_num[num_blocks[f]] @ theta
                g_den = k_den[den_blocks[f]] @ theta
                sums[lam] += 0.5 * (
                    alpha * np.mean(g_num**2) + (1.0 - alpha) * np.mean(g_den**2)
                ) - np.mean(g_num)
        for lam in lambdas:
            table[(sigma, lam)] = sums[lam] / folds
    best_key = None
    for key in sorted(table):
        if best_key is None or table[key] <= table[best_key]:
            best_key = key
    return table, best_key


def least_squares_term_loop(k_num, k_den, lam, alpha):
    """One position's (R)uLSIF fit and PE term, the per-position reference
    of the detector's chunked fits.

    H = alpha K_num'K_num / b + (1 - alpha) K_den'K_den / b', symmetrized,
    and h = mean of the K_num rows; theta = (H + lam I)^-1 h by a Cholesky
    solve; the term is -(alpha/2) mean g_num^2 - ((1-alpha)/2) mean g_den^2
    + mean g_num - 1/2 with g = K theta.
    """
    h_mat = ((1.0 - alpha) / len(k_den)) * (k_den.T @ k_den)
    if alpha:
        h_mat += (alpha / len(k_num)) * (k_num.T @ k_num)
    h_mat = 0.5 * (h_mat + h_mat.T)
    system = h_mat + lam * np.eye(len(h_mat))
    theta = cho_solve(cho_factor(system, lower=True), k_num.mean(axis=0))
    g_num, g_den = k_num @ theta, k_den @ theta
    return float(
        -(alpha / 2.0) * np.mean(g_num**2)
        - ((1.0 - alpha) / 2.0) * np.mean(g_den**2)
        + np.mean(g_num)
        - 0.5
    )


def _kliep_objective_loop(k_num, theta, floor=1e-12):
    g = k_num @ theta
    return float(np.mean(np.log(np.maximum(g, floor))))


def kliep_objective(design, theta, floor=1e-12):
    """KLIEP's objective at ``theta``: the mean log model value over the
    numerator samples of ``design``, each floored at ``floor``."""
    return _kliep_objective_loop(design.k_num, theta, floor)


def kliep_gradient(design, theta, floor=1e-12):
    """Analytic gradient of ``kliep_objective`` (zero where the floor binds)."""
    g = design.k_num @ theta
    w = np.where(g > floor, 1.0 / np.maximum(g, floor), 0.0)
    return design.k_num.T @ w / design.k_num.shape[0]


def _simplex_project_loop(v):
    """Exact Euclidean projection onto the unit simplex {x >= 0, sum x = 1}:
    x = max(v - tau, 0), where tau = (u_1 + ... + u_r - 1) / r over the
    entries u in descending order, at the last r with u_r above it."""
    total, tau = 0.0, None
    for r, value in enumerate(sorted(v, reverse=True), start=1):
        total += value
        level = (total - 1.0) / r
        if value > level:
            tau = level
    out = np.maximum(v - tau, 0.0)
    s = float(np.dot(out, np.ones_like(out)))
    if s <= 0.0:
        return out
    return out / s


def breakpoint_project_loop(theta, b_vec):
    """Exact Euclidean projection onto {theta >= 0, b.theta = 1} (b > 0) by
    thresholding at the level read off the sorted breakpoints theta_i / b_i;
    with b = 1 this is the projection onto the unit simplex."""
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
        return out
    return out / s


def kliep_em_objective(k_num, k_den, iterations):
    """KLIEP objective reached by ``iterations`` multiplicative EM updates of
    the mixture weights w = b * theta from w = b / sum(b): w_l <- w_l
    mean_i c_il / (c_i . w) with c = k_num / b.  Every iterate is feasible,
    so the value is at most the maximum."""
    b_vec = k_den.mean(axis=0)
    comp = k_num / b_vec
    w = b_vec / b_vec.sum()
    for _ in range(iterations):
        w = w * (comp.T @ (1.0 / (comp @ w))) / len(comp)
        w /= w.sum()
    return _kliep_objective_loop(comp, w)


def kliep_fit_loop(k_num, k_den, tolerance=1e-3, max_iters=500, trace=None):
    """KLIEP by projected gradient ascent in mixture weights, one problem at
    a time.

    Maximizes mean_i log g(Y_i) (g floored at 1e-12) over theta >= 0 with
    mean_j g(Y'_j) = 1.  With b the mean denominator kernel row, the weights
    w = b * theta range over the unit simplex and g = (k_num / b) @ w; the
    ascent starts at the uniform weights w = 1 / m over the m centers, or at
    w = b / sum(b) where that has the higher objective.  Each iteration takes
    the gradient in w and stops (converged) once log max_l grad_l <=
    ``tolerance``.  Otherwise it tries a step, then its halvings (at most 60
    candidates), and takes the first candidate, projected onto the simplex,
    that passes the Armijo test with factor 1e-4; where none passes it stops
    (not converged).  The step tried first is 1 / max_l grad_l in the first
    iteration and s.s / (-s.y) after it, s the last move of w and y the
    change of the gradient since, or again 1 / max_l grad_l where -s.y <= 0
    or the quotient is not finite.  After ``max_iters`` iterations it stops
    (not converged).  ``trace`` receives the start objective and the
    objective after every accepted step.  Returns (theta, objective,
    iterations, converged), with theta = w / b.
    """
    floor = 1e-12
    b_vec = k_den.mean(axis=0)
    comp = k_num / b_vec
    w = np.full(len(b_vec), 1.0 / len(b_vec))
    objective = _kliep_objective_loop(comp, w)
    w_theta = b_vec / b_vec.sum()
    if _kliep_objective_loop(comp, w_theta) > objective:
        w = w_theta
        objective = _kliep_objective_loop(comp, w)
    if trace is not None:
        trace.append(objective)
    iterations = 0
    converged = False
    w_before = grad_before = None
    for it in range(1, max_iters + 1):
        iterations = it
        g = comp @ w
        inv_g = np.where(g > floor, 1.0 / np.maximum(g, floor), 0.0)
        grad = comp.T @ inv_g / comp.shape[0]
        if math.log(float(np.max(grad))) <= tolerance:
            converged = True
            break
        if w_before is None:
            step = 1.0 / float(np.max(grad))
        else:
            s = w - w_before
            curvature = -float(s @ (grad - grad_before))
            spectral = float(s @ s) / curvature if curvature > 0.0 else math.inf
            step = spectral if math.isfinite(spectral) else 1.0 / float(np.max(grad))
        accepted = False
        for _ in range(60):
            candidate = _simplex_project_loop(w + step * grad)
            gain = float(grad @ (candidate - w))
            if gain > 0.0:
                cand_objective = _kliep_objective_loop(comp, candidate)
                if cand_objective >= objective + 1e-4 * gain:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        w_before, grad_before = w, grad
        w = candidate
        objective = cand_objective
        if trace is not None:
            trace.append(objective)
    return w / b_vec, objective, iterations, converged


def kliep_cv_loop(num, den, sigma_factors, folds, seed):
    """KLIEP grid CV with one ``kliep_fit_loop`` per (sigma, fold).

    Folds and centers as in ``least_squares_cv_loop``.  The score of a sigma
    is the held-out numerator log-likelihood averaged over folds.  Returns
    (per-sigma scores, best sigma); the best sigma is the last maximum in
    ascending order.  The kernels come from SciPy's squared distances, bit
    for bit those of the package.  Kernels from a coordinate-by-coordinate
    sum of squares differ from them by about 2e-16, which the ascent's
    spectral steps and threshold stop grow into scores up to 4.8e-11
    relatively apart (n = 50), half the 1e-10 tolerance of the grid test.
    The package's kernels are checked against that sum on their own, at
    1e-12.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    d_med = float(np.median(pdist(np.vstack([num, den]))))
    rng = np.random.Generator(np.random.PCG64(seed))
    num_blocks = np.array_split(rng.permutation(len(num)), folds)
    den_blocks = np.array_split(rng.permutation(len(den)), folds)
    scores = {}
    for factor in sorted(set(sigma_factors)):
        sigma = factor * d_med

        def kernel(x):
            return np.exp(-cdist(x, num, "sqeuclidean") / (2.0 * sigma**2))

        k_num, k_den = kernel(num), kernel(den)
        total = 0.0
        for f in range(folds):
            tr_num = np.concatenate([blk for j, blk in enumerate(num_blocks) if j != f])
            tr_den = np.concatenate([blk for j, blk in enumerate(den_blocks) if j != f])
            theta, _, _, _ = kliep_fit_loop(k_num[tr_num], k_den[tr_den])
            g_hold = k_num[num_blocks[f]] @ theta
            total += np.mean(np.log(np.maximum(g_hold, 1e-12)))
        scores[sigma] = total / folds
    best = None
    for sigma in sorted(scores):
        if best is None or scores[sigma] >= scores[best]:
            best = sigma
    return scores, best
