"""Sliding-window change-point scoring.

For each position t the detector forms two consecutive n-window segments,
fits one ratio model per direction, and emits the divergence estimate at
the boundary t + n.  The symmetric score is the sum of both directions.

Direction naming: the forward mode takes its numerator samples from the
earlier segment (the one starting at t) and its denominator samples from
the later one; the backward mode swaps the roles.  The symmetric score is
invariant to the naming.

Hyper-parameters are re-selected by cross-validation every ``cv_stride``
positions; in between, the last selection is reused.  The positions that
share one selection form a CV block.  CV seeds derive from the master seed
via ``seeding.mix_seed(master, t, direction)``, so blocks are independent
and the unit of parallel work: any evaluation order gives the same scores,
bit for bit.

A sweep runs on ``min(available CPUs, blocks)`` worker processes, where the
available CPUs are those of ``os.sched_getaffinity`` (``os.cpu_count`` where
that is missing; ``taskset`` limits them).  The count follows the affinity
mask, not a container's CPU quota, and memory grows with it.  Workers fork
from this process; where the start method is not ``fork`` (spawn on macOS
and Windows, forkserver on Linux from Python 3.14), or inside any
multiprocessing child (a ``bench --jobs`` worker for instance), the count is
1, so pools never nest and no worker re-imports the caller's ``__main__``.
With one worker the sweep runs in this process and starts no pool.
Otherwise a ``ProcessPoolExecutor`` scores one block per task, with the same
function as the in-process path; the parent joins the blocks in series
order, shuts the pool down before returning and checks that every score is
finite.  The first failing block in series order raises, with the serial
sweep's error.  Each worker gets the window vectors and the config once,
when it starts, and each task only its positions; it holds them and one
block's CV and chunk arrays on top of the copy of this process it forks
from.

Final fits run in chunks of at most CHUNK positions that share one CV
selection.  One ``cdist`` over a chunk's span of windows and one ``exp`` per
direction give the band kernel; each pair's (2n, 2n) kernel is a diagonal
block of it, taken as a strided view.  uLSIF and RuLSIF fit a chunk with one
``gram_system`` call, one stacked ``_solve_spd`` and one PE expression; KLIEP
fits both directions as one ``kliep_ascent`` stack (at most 2 * CHUNK = 24
problems), each term the fit's final objective.  The terms equal those of one
fit per position.  A chunk holds at most 1 + 2n // stride positions, so its
span is at most 4n windows and its distance and kernel matrices at most
(4n)^2 doubles each (0.3 MB for n = 50) at any stride.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import seeding
from .embedding import TimeSeries, build_windows, segment_pair
from .errors import (
    DegenerateBandwidthError,
    InsufficientDataError,
    NumericError,
    ParameterError,
)
from .estimators import (
    ESTIMATOR_KINDS, KLIEP, RULSIF, _solve_spd, gram_system, kliep_ascent, pe_terms,
)
# kept importable from here for tracing wrappers
from .estimators import kl_estimate, kliep_fit, pe_alpha_estimate  # noqa: F401
from .estimators import rulsif_fit, ulsif_fit  # noqa: F401
from .kernel import design_matrices  # noqa: F401
from .kernel import gaussian_kernels
from .model_selection import CvGrid, cv_select

SYMMETRIC = "symmetric"
FORWARD = "forward"
BACKWARD = "backward"
SCORE_MODES = (SYMMETRIC, FORWARD, BACKWARD)

# (numerator, denominator) segment of forward (0) and backward (1) fits
_ROLES = ((0, 1), (1, 0))
_MODE_DIRECTIONS = {SYMMETRIC: (0, 1), FORWARD: (0,), BACKWARD: (1,)}

CHUNK = 12  # most positions per chunk of final fits


@dataclass(frozen=True)
class DetectorConfig:
    n: int = 50
    k: int = 10
    alpha: float = 0.1
    estimator_kind: str = RULSIF
    score_mode: str = SYMMETRIC
    stride: int = 1
    cv_stride: int = 1
    clip_negative: bool = True
    standardize: bool = False
    grid: CvGrid = field(default_factory=CvGrid)

    def __post_init__(self) -> None:
        if int(self.n) < 2:
            raise ParameterError(f"segment sample count must be >= 2, got {self.n}")
        if int(self.k) < 1:
            raise ParameterError(f"window length must be >= 1, got {self.k}")
        if not 0.0 <= float(self.alpha) < 1.0:
            raise ParameterError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.estimator_kind not in ESTIMATOR_KINDS:
            raise ParameterError(f"unknown estimator kind {self.estimator_kind!r}")
        if self.score_mode not in SCORE_MODES:
            raise ParameterError(f"unknown score mode {self.score_mode!r}")
        if int(self.stride) < 1 or int(self.cv_stride) < 1:
            raise ParameterError("stride and cv_stride must be >= 1")
        if int(self.n) < self.grid.folds:
            raise ParameterError(
                f"segment sample count n={self.n} is smaller than the CV fold "
                f"count {self.grid.folds}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "stride", int(self.stride))
        object.__setattr__(self, "cv_stride", int(self.cv_stride))


@dataclass(frozen=True)
class ScoreSeries:
    """Per-boundary change scores; boundary i is the first test-segment
    index of position i."""

    boundaries: tuple[int, ...]
    scores: np.ndarray


def minimum_length(config: DetectorConfig) -> int:
    """Shortest series the detector accepts: 2n + k - 1."""
    return 2 * config.n + config.k - 1


def _standardized(series: TimeSeries) -> TimeSeries:
    values = series.values
    mean = values.mean(axis=1, keepdims=True)
    std = values.std(axis=1, keepdims=True)
    std = np.where(std > 0.0, std, 1.0)  # constant dimensions are centered only
    return TimeSeries(
        (values - mean) / std, change_points=series.change_points, name=series.name
    )


def _chunk_terms(windows, chunk: range, selections: dict, config, alpha) -> np.ndarray:
    """(position, direction) divergence terms of the positions ``chunk``,
    which share the (sigma, lambda) ``selections`` per direction."""
    n = config.n
    lo = chunk.start - 1
    span = windows.vectors[lo : lo + (len(chunk) - 1) * chunk.step + 2 * n]
    kernels = gaussian_kernels(span, span, [sigma for sigma, _ in selections.values()])
    _, row, col = kernels.strides
    views = []  # (k_num, k_den) stacks per direction; centers are the numerator
    for kernel, direction in zip(kernels, selections):
        pairs = as_strided(kernel, (len(chunk), 2 * n, 2 * n),
                           (chunk.step * (row + col), row, col), writeable=False)
        num, den = (slice(i * n, (i + 1) * n) for i in _ROLES[direction])
        views.append((pairs[:, num, num], pairs[:, den, num]))
    if config.estimator_kind == KLIEP:
        _, objective, _, _ = kliep_ascent(
            np.concatenate([k_num for k_num, _ in views]),
            np.concatenate([k_den.mean(axis=1) for _, k_den in views]),
        )
        return objective.reshape(len(views), -1).T
    terms = []
    for (k_num, k_den), (_, lam) in zip(views, selections.values()):
        h_mat, h_vec = gram_system(k_num, k_den, alpha)
        theta = _solve_spd(h_mat, lam, h_vec)[..., None]
        terms.append(pe_terms((k_num @ theta)[..., 0], (k_den @ theta)[..., 0], alpha))
    return np.stack(terms, axis=1)


def _worker_count(blocks: int) -> int:
    """Worker processes for a sweep of ``blocks`` CV blocks: one per CPU
    this process may run on, at most one per block, and 1 where workers
    would not fork or inside any multiprocessing child, so that pools never
    nest."""
    if multiprocessing.parent_process() is not None:
        return 1
    # the default start method is the first one listed; asked this way, the
    # default context is not fixed as a side effect
    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    if method != "fork":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, blocks)


def _score_blocks(windows, positions: range, config) -> list[float]:
    """Scores of ``positions``, a run of whole CV blocks: for each block the
    CV refresh at its first position, then its chunks of final fits."""
    n = config.n
    alpha = config.alpha if config.estimator_kind == RULSIF else 0.0
    per_chunk = min(CHUNK, 1 + 2 * n // config.stride)
    scores: list[float] = []
    for block in range(0, len(positions), config.cv_stride):
        t = positions[block]
        pair = segment_pair(windows, t, n)
        selections = {}
        for direction in _MODE_DIRECTIONS[config.score_mode]:
            num, den = ((pair.reference, pair.test)[i] for i in _ROLES[direction])
            seed = seeding.mix_seed(config.grid.seed, t, direction)
            grid = replace(config.grid, seed=seed)
            try:
                sel = cv_select(num, den, grid, config.estimator_kind, alpha)
            except DegenerateBandwidthError as exc:
                raise DegenerateBandwidthError(
                    f"{exc} (at position t={t}, boundary {pair.boundary})"
                ) from exc
            selections[direction] = (sel.best_sigma, sel.best_lambda)
        block_end = min(block + config.cv_stride, len(positions))
        for first in range(block, block_end, per_chunk):
            chunk = positions[first : min(first + per_chunk, block_end)]
            terms = _chunk_terms(windows, chunk, selections, config, alpha)
            if config.clip_negative:
                terms = np.maximum(terms, 0.0)
            scores.extend(sum(row, 0.0) for row in terms.tolist())
    return scores


# The sweep a worker process serves, set once per worker by _serve_sweep, so
# that tasks carry only their positions and the caller does not pickle the
# windows for every task (workers fork, so they are not pickled at all).
# Never set in the calling process.
_SWEEP: tuple = ()


def _serve_sweep(windows, config) -> None:
    global _SWEEP
    _SWEEP = (windows, config)


def _score_block(positions: range) -> list[float]:
    windows, config = _SWEEP
    return _score_blocks(windows, positions, config)


def change_scores(series: TimeSeries, config: DetectorConfig) -> ScoreSeries:
    """Slide the segment pair over the series and score every boundary."""
    t_len = series.length
    need = minimum_length(config)
    if t_len < need:
        raise InsufficientDataError(
            f"series length {t_len} is below the minimum {need} "
            f"(2n + k - 1 with n={config.n}, k={config.k})"
        )
    if config.standardize:
        series = _standardized(series)
    windows = build_windows(series, config.k)
    t_last = t_len - 2 * config.n - config.k + 2
    starts = range(1, t_last + 1, config.stride)
    blocks = range(0, len(starts), config.cv_stride)  # each block's first index
    workers = _worker_count(len(blocks))
    if workers == 1:
        scores = _score_blocks(windows, starts, config)
    else:  # one task per block, put back in series order
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_serve_sweep,
                                 initargs=(windows, config)) as pool:
            parts = pool.map(_score_block, [starts[b : b + config.cv_stride]
                                            for b in blocks])
            scores = [score for part in parts for score in part]

    arr = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite change score produced")
    arr.setflags(write=False)
    return ScoreSeries(boundaries=tuple(t + config.n for t in starts), scores=arr)
