"""Grid cross-validation for (sigma, lambda), per estimator and direction.

The bandwidth grid is expressed as factors of the median pairwise distance
of the pooled numerator + denominator samples, so both fit directions of a
segment pair share one candidate set.  ``cv_select_many`` takes each
problem's squared-distance matrix of the pooled samples
(``kernel.squared_distances``), which gives that median and the kernel
blocks; the detector passes one per CV block, built from the raw series
segment, for both directions.  Fold assignment is one seeded shuffle
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
the final fits' solve.  The folds of one problem whose (training, held-out)
sizes agree (all of them where the fold count divides the sample counts)
form stacks of max(1, U // (sigmas x lambdas)) folds, with U =
``estimators.budget_units(centers)``: one ``estimators.gram_system`` call
builds H and h for every (sigma, fold) of a stack, and one
``estimators._solve_spd`` call solves all its (sigma, fold, lambda) systems
H + lambda I by Cholesky factorization, retrying a system that is not
positive definite with jitter on its own.  So a stack holds at most
max(U, sigmas x lambdas) systems, and its largest temporary, the one copy of
them, at most ``estimators.BUDGET`` bytes unless one fold's systems alone
exceed it (the default grid's 125 systems, one stack, take 2.5 MB at 50
centers; at 200 centers a stack is one fold's 25 systems, 8 MB).  The folds'
criteria are summed in fold order, so the table equals that of a loop over
folds bit for bit.  Problems are not stacked together.

The KLIEP grid streams every (sigma, fold) problem, its training rows and
its fold's mean denominator kernel row, into ``estimators.kliep_ascent``:
one stream per training shape for all of a ``cv_select_many`` call (up to
2,000 problems for a detector run at its cap at n = 50, 40 blocks of the
default grid).  The held-out scores are exactly those of one fit per problem.

Ties are broken toward the larger sigma, then the larger lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .errors import DimensionMismatchError, ParameterError, integer
from .estimators import (
    ESTIMATOR_KINDS,
    KLIEP,
    _mean_log,
    _solve_spd,
    budget_units,
    gram_system,
    kliep_ascent,
    kliep_fit,  # noqa: F401 -- only for perfbench/perftrace.py, which wraps it here
    pe_terms,
)
from .kernel import kernels_of, pooled_median, squared_distances
from .kernel import median_distance  # noqa: F401 -- for perfbench/perftrace.py

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
    training shape go to one ``kliep_ascent`` stream.
    """
    fold_scores = [np.empty((len(k_num), len(folds))) for k_num, _, folds in cases]
    by_shape: dict[tuple, list] = {}  # (training size, centers): (case, fold)s
    for c, (k_num, _, folds) in enumerate(cases):
        for f, ((num_tr, _), _) in enumerate(folds):
            by_shape.setdefault((len(num_tr), k_num.shape[2]), []).append((c, f))
    for members in by_shape.values():
        sigmas = len(cases[0][0])  # one grid for all cases
        problems = ((k_num[s, folds[f][0][0]], b_vecs[f][s])
                    for c, f in members for k_num, b_vecs, folds in [cases[c]]
                    for s in range(sigmas))
        theta = kliep_ascent(problems, len(members) * sigmas)[0]
        theta = theta.reshape(len(members), sigmas, -1, 1)
        for (c, f), fold_theta in zip(members, theta):
            k_num, _, folds = cases[c]
            g_hold = (k_num[:, folds[f][0][1]] @ fold_theta)[..., 0]
            fold_scores[c][:, f] = _mean_log(g_hold)
    return [scores.mean(axis=1) for scores in fold_scores]


def _least_squares_scores(k_num, k_den, folds: list, lambdas, alpha: float) -> np.ndarray:
    """Held-out squared-loss criterion per (sigma, lambda), averaged over
    folds: (sigma, fold, lambda) stacks of folds of one size, summed in fold
    order."""
    by_size: dict[tuple, list] = {}  # sizes of the four index sets: folds
    for f, fold in enumerate(folds):
        by_size.setdefault(tuple(len(part) for side in fold for part in side), []).append(f)
    per_stack = max(1, budget_units(k_num.shape[2]) // (len(k_num) * len(lambdas)))
    stacks = [same[i : i + per_stack] for same in by_size.values()
              for i in range(0, len(same), per_stack)]
    fold_scores = np.empty((len(folds), len(k_num), len(lambdas)))
    for members in stacks:
        num_tr, num_ho, den_tr, den_ho = (
            np.stack([folds[f][side][part] for f in members])
            for side in (0, 1) for part in (0, 1))
        h_mat, h_vec = gram_system(k_num[:, num_tr], k_den[:, den_tr], alpha)
        # theta (sigma, fold, lambda, center), g (sigma, fold, lambda, held-out sample)
        theta = _solve_spd(h_mat[:, :, None], lambdas, h_vec[:, :, None])
        g_num = theta @ k_num[:, num_ho].swapaxes(-1, -2)
        g_den = theta @ k_den[:, den_ho].swapaxes(-1, -2)
        fold_scores[members] = pe_terms(g_num, g_den, alpha).swapaxes(0, 1)
    return -(fold_scores + 0.5).sum(axis=0) / len(folds)


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
    """``cv_select`` for each (squared distances, numerator rows, denominator
    rows, fold seed) problem of ``problems``, on ``grid`` with its seed
    replaced by the problem's.  The squared distances are a square matrix of
    ``kernel.squared_distances`` among pooled samples, and the two slices
    split its rows into the numerator and the denominator samples; the
    bandwidth grid scales with the median distance of all its rows.  Each
    result equals that of a ``cv_select`` call on the two sample sets; KLIEP
    fits the (sigma, fold) problems of all of them in shared streams.
    Problems that pass one matrix, one after the other (a detector block's
    two directions), share its median.  The first problem in order that
    cannot be prepared (too few samples, zero median distance) raises."""
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ParameterError(f"unknown estimator kind {estimator_kind!r}")
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:  # rulsif_fit's rule; also rejects nan
        raise ParameterError(f"alpha must lie in [0, 1), got {alpha}")
    sigma_sets, tables, cases = [], [], []
    last = None  # (squared distances, their median distance)
    for sqdist, num_rows, den_rows, seed in problems:
        m_num, m_den = len(sqdist[num_rows]), len(sqdist[den_rows])
        if min(m_num, m_den) < grid.folds:
            raise ParameterError(
                f"sample sets of sizes {m_num}/{m_den} are smaller "
                f"than the fold count {grid.folds}"
            )
        if last is None or last[0] is not sqdist:
            last = (sqdist, pooled_median(sqdist))
        sigmas = [f * last[1] for f in grid.sigma_factors]
        sigma_sets.append(sigmas)
        rng = seeding.rng_from(seed)
        num_folds = _fold_blocks(m_num, grid.folds, rng)  # drawn before den's
        folds = list(zip(num_folds, _fold_blocks(m_den, grid.folds, rng)))
        # the numerator samples are the centers: (sigma, sample, center) stacks
        k_num = kernels_of(sqdist[num_rows, num_rows], sigmas)
        k_den = kernels_of(sqdist[den_rows, num_rows], sigmas)
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


def cv_problem(numerator_samples, denominator_samples, seed: int) -> tuple:
    """The ``cv_select_many`` problem of two sample sets, (samples,
    dimensions) arrays: the squared distances among their rows stacked in
    that order, the rows of each set, and the fold seed."""
    num = np.atleast_2d(np.asarray(numerator_samples, dtype=np.float64))
    den = np.atleast_2d(np.asarray(denominator_samples, dtype=np.float64))
    if num.shape[1] != den.shape[1]:
        raise DimensionMismatchError(f"numerator dimension {num.shape[1]} does "
                                     f"not match denominator dimension {den.shape[1]}")
    pooled = np.vstack([num, den]).T
    return (squared_distances(pooled, pooled), slice(0, len(num)),
            slice(len(num), None), seed)


def cv_select(
    numerator_samples: np.ndarray,
    denominator_samples: np.ndarray,
    grid: CvGrid,
    estimator_kind: str,
    alpha: float = 0.0,
) -> CvResult:
    """Exhaustive grid search; returns the best pair and the full table."""
    problem = cv_problem(numerator_samples, denominator_samples, grid.seed)
    return cv_select_many([problem], grid, estimator_kind, alpha)[0]
