"""Grid cross-validation for (sigma, lambda), per estimator and direction.

The bandwidth grid is expressed as factors of the median pairwise distance
of the pooled numerator + denominator samples, so both fit directions of a
segment pair share one candidate set.  Fold assignment is one seeded shuffle
of sample indices followed by contiguous blocks; numerator and denominator
sets are folded independently.

Held-out criteria:

* uLSIF / RuLSIF: the squared-loss objective without the regularizer,
  J = 0.5 theta' H_hold theta - h_hold' theta, minimized.  With the
  alpha-mixed H this is J = -(PE + 1/2), where PE is the Pearson estimate
  ``estimators.pe_terms`` of the held-out model values.
* KLIEP: the held-out numerator log-likelihood, maximized.  The lambda axis
  is ignored (KLIEP has no ridge term); the score table repeats the
  per-sigma score across lambda so the table stays exhaustive.

The least-squares grid runs on stacked (sigma, sample, center) kernels and on
the final fits' solve.  Per fold, one ``estimators.gram_system`` call builds H
and h for every sigma, and one ``estimators._solve_spd`` call solves all
(sigma, lambda) systems H + lambda I by Cholesky factorization, retrying a
system that is not positive definite with jitter on its own.  Folds are
solved one at a time, so the largest temporary is sigmas x lambdas x
centers^2 doubles (0.5 MB for the default grid and 50 centers).

The KLIEP grid is fitted by ``estimators.kliep_ascent`` in lockstep: the
training rows of every (sigma, fold) problem are gathered into one (problem,
sample, center) stack, and each fold contributes only its mean denominator
kernel rows.  ``cv_select_many`` stacks the (sigma, fold) problems of many
CV problems together, at most STACK a stack: the detector sends a run's 400
(8 blocks, 2 directions, 5 folds, 5 sigmas; 6.4 MB for 50 samples), and
``cv_select`` is its one-problem case, 25 problems for the default grid.
Folds of unequal training size (n = 52 in 5 folds) are grouped by size, one
stack per size.  The held-out scores are exactly those of one fit per
problem.

Ties are broken toward the larger sigma, then the larger lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .errors import ParameterError, integer
from .estimators import (
    ESTIMATOR_KINDS,
    KLIEP,
    STACK,
    _mean_log,
    _solve_spd,
    gram_system,
    kliep_ascent,
    kliep_fit,  # noqa: F401 -- only for perfbench/perftrace.py, which wraps it here
    pe_terms,
)
from .kernel import gaussian_kernels, median_distance

DEFAULT_SIGMA_FACTORS = (0.6, 0.8, 1.0, 1.2, 1.4)
DEFAULT_LAMBDAS = (1e-3, 1e-2, 1e-1, 1e0, 1e1)


@dataclass(frozen=True)
class CvGrid:
    """Candidate grid; sigma candidates are ``factor * d_med``."""

    sigma_factors: tuple[float, ...] = DEFAULT_SIGMA_FACTORS
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "folds", integer("folds", self.folds))
        object.__setattr__(self, "seed", integer("seed", self.seed))
        factors = tuple(sorted({float(f) for f in self.sigma_factors}))
        lambdas = tuple(sorted({float(v) for v in self.lambdas}))
        if not factors or not lambdas:
            raise ParameterError("CV grid axes must be non-empty")
        if any(not np.isfinite(f) or f <= 0 for f in factors):
            raise ParameterError(f"sigma factors must be positive, got {factors}")
        if any(not np.isfinite(v) or v <= 0 for v in lambdas):
            raise ParameterError(f"lambda candidates must be positive, got {lambdas}")
        if self.folds < 2:
            raise ParameterError(f"folds must be >= 2, got {self.folds}")
        object.__setattr__(self, "sigma_factors", factors)
        object.__setattr__(self, "lambdas", lambdas)


@dataclass(frozen=True)
class CvResult:
    best_sigma: float
    best_lambda: float
    score_table: dict[tuple[float, float], float] = field(repr=False)


def _fold_blocks(count: int, folds: int, rng: np.random.Generator) -> list[tuple]:
    """(training, held-out) index pairs: one shuffle cut into contiguous blocks."""
    blocks = np.array_split(rng.permutation(count), folds)
    return [
        (np.concatenate(blocks[:f] + blocks[f + 1 :]), blocks[f]) for f in range(folds)
    ]


def _kliep_cv_scores(cases: list) -> list[np.ndarray]:
    """Held-out numerator log-likelihood per sigma, averaged over folds, of
    each (k_num, b_vecs, folds) case of ``cases``.

    ``b_vecs[f]`` holds fold f's mean denominator kernel rows (sigma,
    center).  The (sigma, fold) problems of all cases' folds with one
    training shape go to ``kliep_ascent`` together, in stacks of at most
    STACK problems.
    """
    fold_scores = [np.empty((len(k_num), len(folds))) for k_num, _, folds in cases]
    by_shape: dict[tuple, list] = {}  # (training size, centers): (case, fold)s
    for c, (k_num, _, folds) in enumerate(cases):
        for f, ((num_tr, _), _) in enumerate(folds):
            by_shape.setdefault((len(num_tr), k_num.shape[2]), []).append((c, f))
    for (size, centers), members in sorted(by_shape.items()):
        sigmas = len(cases[0][0])  # one grid for all cases
        per_stack = max(1, STACK // sigmas)
        for first in range(0, len(members), per_stack):
            group = members[first : first + per_stack]
            # (case fold, sigma, training sample, center), filled without temporaries
            stack = np.empty((len(group), sigmas, size, centers))
            for i, (c, f) in enumerate(group):
                k_num, _, folds = cases[c]
                np.take(k_num, folds[f][0][0], axis=1, out=stack[i])
            theta, _, _, _ = kliep_ascent(
                stack.reshape(-1, size, centers),
                np.concatenate([cases[c][1][f] for c, f in group]),
            )
            theta = theta.reshape(len(group), sigmas, -1, 1)
            for i, (c, f) in enumerate(group):
                k_num, _, folds = cases[c]
                g_hold = (k_num[:, folds[f][0][1]] @ theta[i])[..., 0]
                fold_scores[c][:, f] = _mean_log(g_hold)
    return [scores.mean(axis=1) for scores in fold_scores]


def _least_squares_scores(k_num, k_den, folds: list, lambdas, alpha: float) -> np.ndarray:
    """Held-out squared-loss criterion per (sigma, lambda), averaged over folds."""
    scores = np.zeros((len(k_num), len(lambdas)))
    for (num_tr, num_ho), (den_tr, den_ho) in folds:
        h_mat, h_vec = gram_system(k_num[:, num_tr], k_den[:, den_tr], alpha)
        # theta (sigma, lambda, center), g (sigma, lambda, held-out sample)
        theta = _solve_spd(h_mat[:, None], lambdas, h_vec[:, None])
        g_num = theta @ k_num[:, num_ho].swapaxes(-1, -2)
        g_den = theta @ k_den[:, den_ho].swapaxes(-1, -2)
        scores -= pe_terms(g_num, g_den, alpha) + 0.5
    scores /= len(folds)
    return scores


def _best(sigmas: list, lambdas, scores: np.ndarray, estimator_kind: str) -> CvResult:
    """The (sigma, lambda) table of ``scores`` and its best pair."""
    table = {
        (sigma, lam): float(scores[s, l])
        for s, sigma in enumerate(sigmas)
        for l, lam in enumerate(lambdas)
    }
    sign = -1.0 if estimator_kind == KLIEP else 1.0  # KLIEP maximizes
    best_key, best_score = None, None
    for key, score in table.items():  # ascending; ties go to the larger sigma/lambda
        if best_score is None or sign * score <= sign * best_score:
            best_key, best_score = key, score
    return CvResult(
        best_sigma=best_key[0], best_lambda=best_key[1], score_table=table
    )


def cv_select_many(
    problems, grid: CvGrid, estimator_kind: str, alpha: float = 0.0
) -> list[CvResult]:
    """``cv_select`` for each (numerator samples, denominator samples, fold
    seed) triple of ``problems``, on ``grid`` with its seed replaced by the
    problem's.  Each result equals that of its own ``cv_select`` call; KLIEP
    fits the (sigma, fold) problems of all of them in shared stacks.  The
    first problem in order that cannot be prepared (too few samples, zero
    median distance) raises."""
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ParameterError(f"unknown estimator kind {estimator_kind!r}")
    sigma_sets, tables, cases = [], [], []
    for numerator_samples, denominator_samples, seed in problems:
        num = np.atleast_2d(np.asarray(numerator_samples, dtype=np.float64))
        den = np.atleast_2d(np.asarray(denominator_samples, dtype=np.float64))
        if min(num.shape[0], den.shape[0]) < grid.folds:
            raise ParameterError(
                f"sample sets of sizes {num.shape[0]}/{den.shape[0]} are smaller "
                f"than the fold count {grid.folds}"
            )
        d_med = median_distance(np.vstack([num, den]))
        sigmas = [f * d_med for f in grid.sigma_factors]
        sigma_sets.append(sigmas)
        rng = seeding.rng_from(seed)
        num_folds = _fold_blocks(num.shape[0], grid.folds, rng)  # drawn before den's
        folds = list(zip(num_folds, _fold_blocks(den.shape[0], grid.folds, rng)))
        centers = num
        k_num = gaussian_kernels(num, centers, sigmas)  # (sigma, sample, center)
        k_den = gaussian_kernels(den, centers, sigmas)
        if estimator_kind == KLIEP:
            # the ascent needs only each fold's mean denominator kernel rows
            b_vecs = [k_den[:, den_tr].mean(axis=1) for _, (den_tr, _) in folds]
            cases.append((k_num, b_vecs, folds))
        else:
            tables.append(_least_squares_scores(k_num, k_den, folds, grid.lambdas, alpha))
    if estimator_kind == KLIEP:  # the lambda axis repeats the per-sigma score
        tables = [np.repeat(scores[:, None], len(grid.lambdas), axis=1)
                  for scores in _kliep_cv_scores(cases)]
    return [_best(sigmas, grid.lambdas, table, estimator_kind)
            for sigmas, table in zip(sigma_sets, tables)]


def cv_select(
    numerator_samples: np.ndarray,
    denominator_samples: np.ndarray,
    grid: CvGrid,
    estimator_kind: str,
    alpha: float = 0.0,
) -> CvResult:
    """Exhaustive grid search; returns the best pair and the full table."""
    problem = (numerator_samples, denominator_samples, grid.seed)
    return cv_select_many([problem], grid, estimator_kind, alpha)[0]
