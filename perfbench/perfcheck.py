"""Independent output checks for the benchmark.

Nothing here imports ``relcpd``.  Windows, the Gaussian kernel, the
closed-form (R)uLSIF solve, the PE_alpha estimate, a KLIEP maximiser, peak
finding and the ROC sweep are all written again in plain numpy from the
definitions in the package documentation, so a fault in the package's
kernel, estimators or evaluation code shows up as a disagreement here.

The only values taken from the program are the (sigma, lambda) pairs that
its public ``cv_select`` returns; the caller passes them in through a
``select(num, den, seed)`` callable.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

MIN_ALARM_SPACING = 20
MATCH_WINDOW = 10

# Least-squares terms are a direct solve on the same numbers, so they agree
# up to rounding of a 50x50 system with lambda >= 1e-3.
LS_RTOL = 1e-8
LS_ATOL = 1e-10
# The program's KLIEP ascent stops when one step gains less than 1e-6 or
# after 500 steps, so its objective may fall short of the maximum.  It may
# never exceed the certified upper bound, and it may not fall further below
# the maximum than this (absolute, in nats).  On the four generators its
# distance to the upper bound stays below 3e-3; an ascent cut to 3 steps
# falls 0.03 short at the median.
KLIEP_SHORTFALL = 0.01
KLIEP_SLACK = 1e-9
GRID_RTOL = 1e-9

_MASK = (1 << 64) - 1


def mix_seed(seed: int, *tags: int) -> int:
    """The detector's documented per-position seed: fold each tag into the
    seed through the splitmix64 output function."""
    h = seed & _MASK
    for tag in tags:
        x = ((h ^ (tag & _MASK)) + 0x9E3779B97F4A7C15) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        h = (x ^ (x >> 31)) & _MASK
    return h


def position_count(length: int, n: int, k: int, stride: int) -> int:
    """floor((T - 2n - k + 1) / stride) + 1 scored positions."""
    return (length - 2 * n - k + 1) // stride + 1


def window_vectors(values: np.ndarray, k: int) -> np.ndarray:
    """Row i (0-based) stacks observations i .. i+k-1, each a full column."""
    d, t_len = values.shape
    count = t_len - k + 1
    out = np.empty((count, d * k))
    for i in range(count):
        out[i] = values[:, i : i + k].T.ravel()
    return out


def pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def median_distance(samples: np.ndarray) -> float:
    iu = np.triu_indices(samples.shape[0], k=1)
    return float(np.median(np.sqrt(pairwise_sq(samples, samples)[iu])))


def gram(samples: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-pairwise_sq(samples, centers) / (2.0 * sigma * sigma))


def ls_term(num, den, sigma: float, lam: float, alpha: float) -> float:
    """PE_alpha of the closed-form (R)uLSIF fit, centers at the numerator."""
    k_num = gram(num, num, sigma)
    k_den = gram(den, num, sigma)
    h_mat = alpha * k_num.T @ k_num / len(num) + (1 - alpha) * k_den.T @ k_den / len(den)
    theta = np.linalg.solve(h_mat + lam * np.eye(len(num)), k_num.mean(axis=0))
    g_num = k_num @ theta
    g_den = k_den @ theta
    return float(
        -alpha / 2 * np.mean(g_num**2)
        - (1 - alpha) / 2 * np.mean(g_den**2)
        + np.mean(g_num)
        - 0.5
    )


def kliep_bounds(num, den, sigma: float, iterations: int = 1000) -> tuple[float, float, float]:
    """(start, lower, upper) for the KLIEP objective max mean_i log g(Y_i)
    subject to mean_j g(Y'_j) = 1 and theta >= 0.

    With w_l = b_l theta_l (b the column means of the denominator Gram
    matrix) the problem is a mixture-weight likelihood over the simplex,
    solved here by the multiplicative EM update.  ``lower`` is the value EM
    reaches; ``upper`` adds the certificate log(max_l grad_l), which bounds
    the distance to the maximum for any feasible point.  ``start`` is the
    objective at the uniform start theta = 1 / sum(b), w = b / sum(b), that
    the program's monotone ascent begins from and EM starts from too.
    """
    a = gram(num, num, sigma)
    b = gram(den, num, sigma).mean(axis=0)
    comp = a / b
    w = b / b.sum()
    start = float(np.mean(np.log(comp @ w)))
    for _ in range(iterations):
        grad = comp.T @ (1.0 / (comp @ w)) / len(num)
        if math.log(grad.max()) < 1e-10:
            break
        w = w * grad
        w /= w.sum()
    grad = comp.T @ (1.0 / (comp @ w)) / len(num)
    lower = float(np.mean(np.log(comp @ w)))
    return start, lower, lower + max(math.log(grad.max()), 0.0)


def peaks(boundaries, scores, spacing: int = MIN_ALARM_SPACING) -> list[tuple[int, float]]:
    """Documented alarm rule: score rises strictly into i and does not rise
    after it; scanning in time order, an alarm closer than ``spacing`` to
    the last kept one is dropped."""
    kept: list[tuple[int, float]] = []
    for i in range(1, len(scores) - 1):
        if scores[i] > scores[i - 1] and scores[i] >= scores[i + 1]:
            if kept and boundaries[i] - kept[-1][0] < spacing:
                continue
            kept.append((boundaries[i], float(scores[i])))
    return kept


def brute_force_auc(alarms, truths, window: int = MATCH_WINDOW) -> float:
    """Trapezoid AUC of the documented ROC protocol, counted from scratch at
    every distinct alarm score.  Truths are more than 2 * window apart, so an
    alarm can only ever be credited to the one truth it is near, and a truth
    credits at most one alarm: n_cr is the number of truths with a kept
    alarm within ``window``."""
    truths = sorted(truths)
    points = [(0.0, 0.0)]
    for thr in sorted({s for _, s in alarms}, reverse=True):
        kept = [t for t, s in alarms if s >= thr]
        n_cr = sum(any(abs(t - c) <= window for t in kept) for c in truths)
        points.append(((len(kept) - n_cr) / len(kept), n_cr / len(truths)))
    if points[-1][0] < 1.0:
        points.append((1.0, points[-1][1]))
    return sum(0.5 * (y0 + y1) * (x1 - x0) for (x0, y0), (x1, y1) in zip(points, points[1:]))


def score_digest(scores: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(scores, dtype="<f8").tobytes()).hexdigest()


def sample_positions(count: int, cv_stride: int, rng: np.random.Generator) -> list[int]:
    """Position indices to recompute: the first position, one other
    refresh position and one position that reuses an earlier selection."""
    refresh = np.arange(0, count, cv_stride)
    reuse = np.setdiff1d(np.arange(count), refresh)
    picks = {0, int(rng.choice(refresh))}
    if reuse.size:
        picks.add(int(rng.choice(reuse)))
    return sorted(picks)


def check_scores(values, boundaries, scores, *, n, k, stride, cv_stride, kind, alpha,
                 sigma_factors, lambdas, master, select, rng) -> list[str]:
    """Structural checks plus a numpy recomputation at sampled positions.

    ``select(num, den, seed)`` returns the (sigma, lambda) the program's
    ``cv_select`` picks for that sample pair and fold seed.  Direction 0
    takes its numerator from the earlier segment, direction 1 from the later.
    """
    errors: list[str] = []
    count = position_count(values.shape[1], n, k, stride)
    expected = [1 + i * stride + n for i in range(count)]
    if len(scores) != count or list(boundaries) != expected:
        return [f"expected {count} positions with boundaries t+n, got {len(scores)}"]
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)) or np.any(scores < 0):
        errors.append("scores must be finite and >= 0")
    windows = window_vectors(values, k)
    for idx in sample_positions(count, cv_stride, rng):
        t = 1 + idx * stride
        t_cv = 1 + (idx - idx % cv_stride) * stride
        segs = (windows[t - 1 : t - 1 + n], windows[t - 1 + n : t - 1 + 2 * n])
        cv_segs = (windows[t_cv - 1 : t_cv - 1 + n], windows[t_cv - 1 + n : t_cv - 1 + 2 * n])
        lo = hi = 0.0
        for direction in (0, 1):
            num, den = segs if direction == 0 else segs[::-1]
            cv_num, cv_den = cv_segs if direction == 0 else cv_segs[::-1]
            sigma, lam = select(cv_num, cv_den, mix_seed(master, t_cv, direction))
            factor = sigma / median_distance(np.vstack([cv_num, cv_den]))
            if not any(abs(factor - f) <= GRID_RTOL * f for f in sigma_factors):
                errors.append(f"t={t} dir={direction}: sigma/d_med={factor!r} is off the grid")
            if kind != "kliep" and lam not in lambdas:
                errors.append(f"t={t} dir={direction}: lambda={lam!r} is off the grid")
            if kind == "kliep":
                start, lower, upper = kliep_bounds(num, den, sigma)
                lo += max(max(start, lower - KLIEP_SHORTFALL) - KLIEP_SLACK, 0.0)
                hi += max(upper + KLIEP_SLACK, 0.0)
            else:
                term = max(ls_term(num, den, sigma, lam, alpha), 0.0)
                lo += term - LS_ATOL - LS_RTOL * abs(term)
                hi += term + LS_ATOL + LS_RTOL * abs(term)
        if not lo <= scores[idx] <= hi:
            errors.append(f"t={t}: score {float(scores[idx])!r} outside reference [{lo!r}, {hi!r}]")
    return errors


def check_alarms(boundaries, scores, alarms, truths, auc) -> list[str]:
    """Alarms are the documented peaks of the scores, and the program's AUC
    equals the brute-force sweep over them."""
    errors: list[str] = []
    alarms = [(int(t), float(s)) for t, s in alarms]
    index = {b: i for i, b in enumerate(boundaries)}
    for t, s in alarms:
        i = index.get(t)
        if i is None or not 0 < i < len(scores) - 1 or s != scores[i]:
            errors.append(f"alarm at {t} is not an interior score position")
        elif not (scores[i] > scores[i - 1] and scores[i] >= scores[i + 1]):
            errors.append(f"alarm at {t} is not a strict local maximum")
    if any(b - a < MIN_ALARM_SPACING for (a, _), (b, _) in zip(alarms, alarms[1:])):
        errors.append("alarms closer than the minimum spacing")
    if alarms != peaks(boundaries, scores):
        errors.append("alarm list differs from the recomputed peaks")
    ref = brute_force_auc(alarms, truths)
    if abs(ref - auc) > 1e-12:
        errors.append(f"AUC {auc!r} differs from brute-force {ref!r}")
    return errors
