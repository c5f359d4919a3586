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
via ``seeding.mix_seed(master, t, direction)``, so blocks are independent:
any grouping or evaluation order gives the same scores, bit for bit.

The unit of work is a run of consecutive CV blocks, scored in two phases:
first the CV refresh of every block, in one ``cv_select_many`` call that
fits the KLIEP CV problems of all blocks and both directions in one
``kliep_ascent`` stack per training size, then the final fits of all the
blocks.  A run holds as many whole blocks as fill one STACK with KLIEP CV
problems, one per (direction, fold, sigma): 8 blocks for the default grid in
symmetric mode.  The same runs serve uLSIF and RuLSIF, which compute each
block as on their own.  With more than one worker, runs are shortened so
that each worker gets RUNS_PER_WORKER runs, down to one block per run.  A run
of several blocks that fails is scored again one block at a time, so the
first failing block in series order raises, with the serial sweep's error.

A sweep runs on ``min(available CPUs, CPU quota, runs)`` worker processes.
The available CPUs are those of ``os.sched_getaffinity`` (``os.cpu_count``
where that is missing; ``taskset`` limits them); the quota is that of the
cgroup v2 file CPU_MAX, ``<quota> <period>`` rounded up to whole CPUs, and a
file that reads ``max`` or is missing sets none.  Memory grows with the
count.  Workers fork from this process; where the start method is not
``fork`` (spawn on macOS and Windows, forkserver on Linux from Python 3.14),
or inside any multiprocessing child (a ``bench --jobs`` worker for
instance), the count is 1, so pools never nest and no worker re-imports the
caller's ``__main__``.  With one worker the sweep runs in this process and
starts no pool.  Otherwise a ``ProcessPoolExecutor`` scores one run per
task, with the same function as the in-process path; the parent joins the
runs in series order, shuts the pool down before returning and checks that
every score is finite.  Each worker gets the window vectors and the config
once, when it starts, and each task only its blocks; it holds them and one
run's CV and final-fit arrays on top of the copy of this process it forks
from.

STACK problems is the one cap on every stack of fits: CV or final, least
squares or KLIEP.  Final fits run in chunks, the positions of one CV block
whose pairs share one span of at most 4n windows: at most
min(1 + 2n // stride, STACK // directions) positions.  One ``cdist`` over a
chunk's span and one ``exp`` per direction give the band kernel; each pair's
(2n, 2n) kernel is a diagonal block of it, taken as a strided view.  The
distance and kernel matrices hold at most (4n)^2 doubles each (0.3 MB for
n = 50) at any stride.  uLSIF and RuLSIF fit a chunk with one
``gram_system`` call, one stacked ``_solve_spd`` and one PE expression.
KLIEP copies a run's final fits, one chunk's kernels at a time, into
``kliep_ascent`` stacks of STACK problems that cut across chunks, each term
the fit's final objective.  The terms equal those of one fit per position.
A stack's arrays hold at most STACK n^2 doubles each (8 MB for n = 50).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import seeding
from .embedding import TimeSeries, build_windows, segment_pair
from .errors import (
    ChangePointError,
    DegenerateBandwidthError,
    InsufficientDataError,
    NumericError,
    ParameterError,
    integer,
)
from .estimators import (
    ESTIMATOR_KINDS, KLIEP, RULSIF, STACK, _solve_spd, gram_system, kliep_ascent, pe_terms,
)
# Imported only for perfbench/perftrace.py, which wraps these names here by
# getattr; they stay until that tracer reads per-layer counters instead.
from .estimators import kl_estimate, kliep_fit, pe_alpha_estimate  # noqa: F401
from .estimators import rulsif_fit, ulsif_fit  # noqa: F401
from .kernel import design_matrices  # noqa: F401
from .kernel import gaussian_kernels
from .model_selection import CvGrid, cv_select_many
from .model_selection import cv_select  # noqa: F401 -- for perfbench/perftrace.py

SYMMETRIC = "symmetric"
FORWARD = "forward"
BACKWARD = "backward"
SCORE_MODES = (SYMMETRIC, FORWARD, BACKWARD)

# (numerator, denominator) segment of forward (0) and backward (1) fits
_ROLES = ((0, 1), (1, 0))
_MODE_DIRECTIONS = {SYMMETRIC: (0, 1), FORWARD: (0,), BACKWARD: (1,)}

RUNS_PER_WORKER = 4  # fewest runs per worker of a parallel sweep
CPU_MAX = "/sys/fs/cgroup/cpu.max"  # the cgroup v2 CPU quota, read only


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
        for name in ("n", "k", "stride", "cv_stride"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if self.n < 2:
            raise ParameterError(f"segment sample count must be >= 2, got {self.n}")
        if self.k < 1:
            raise ParameterError(f"window length must be >= 1, got {self.k}")
        if not 0.0 <= float(self.alpha) < 1.0:
            raise ParameterError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.estimator_kind not in ESTIMATOR_KINDS:
            raise ParameterError(f"unknown estimator kind {self.estimator_kind!r}")
        if self.score_mode not in SCORE_MODES:
            raise ParameterError(f"unknown score mode {self.score_mode!r}")
        if self.stride < 1 or self.cv_stride < 1:
            raise ParameterError("stride and cv_stride must be >= 1")
        if self.n < self.grid.folds:
            raise ParameterError(
                f"segment sample count n={self.n} is smaller than the CV fold "
                f"count {self.grid.folds}"
            )
        object.__setattr__(self, "alpha", float(self.alpha))


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


def _chunk_kernels(windows, chunk: range, selections: dict, n: int) -> list[tuple]:
    """(k_num, k_den) stacks of the positions ``chunk`` for each direction of
    ``selections``: strided views into one band kernel per direction, with
    the numerator samples as centers."""
    lo = chunk.start - 1
    span = windows.vectors[lo : lo + (len(chunk) - 1) * chunk.step + 2 * n]
    kernels = gaussian_kernels(span, span, [sigma for sigma, _ in selections.values()])
    _, row, col = kernels.strides
    views = []
    for kernel, direction in zip(kernels, selections):
        pairs = as_strided(kernel, (len(chunk), 2 * n, 2 * n),
                           (chunk.step * (row + col), row, col), writeable=False)
        num, den = (slice(i * n, (i + 1) * n) for i in _ROLES[direction])
        views.append((pairs[:, num, num], pairs[:, den, num]))
    return views


def _kliep_terms(windows, chunks: list, n: int) -> list[np.ndarray]:
    """``_chunk_terms`` for KLIEP: the final fits of ``chunks``, copied one
    chunk's kernels at a time into one stack of at most STACK problems, which
    ``kliep_ascent`` fits each time it is full and once more for the rest;
    each term is the fit's final objective.  Copying frees each chunk's band
    kernel at once: it holds up to 8 times the doubles of the chunk's
    problems (at stride 2n)."""
    counts = [len(chunk) * len(selections) for chunk, selections in chunks]
    k_num = np.empty((min(STACK, sum(counts)), n, n))
    b_vec = np.empty((len(k_num), n))
    problems = (problem for chunk, selections in chunks
                for k_chunk, k_den in _chunk_kernels(windows, chunk, selections, n)
                for problem in zip(k_chunk, k_den.mean(axis=1)))
    objectives, size = [], 0
    for k_row, b_row in problems:
        k_num[size], b_vec[size] = k_row, b_row
        size += 1
        if size == len(k_num):  # the ascent overwrites k_num, filled again next
            objectives.append(kliep_ascent(k_num, b_vec)[1])
            size = 0
    if size:
        objectives.append(kliep_ascent(k_num[:size], b_vec[:size])[1])
    parts = np.split(np.concatenate(objectives), np.cumsum(counts)[:-1])
    return [part.reshape(len(selections), -1).T
            for part, (_, selections) in zip(parts, chunks)]


def _chunk_terms(windows, chunks: list, config, alpha) -> list[np.ndarray]:
    """(position, direction) divergence terms of each chunk of ``chunks``,
    (positions, selections) pairs whose positions share the (sigma, lambda)
    ``selections`` per direction.  KLIEP stacks cut across chunks (see
    ``_kliep_terms``); least squares fits one chunk at a time."""
    n = config.n
    if config.estimator_kind == KLIEP:
        return _kliep_terms(windows, chunks, n)
    terms = []
    for chunk, selections in chunks:
        chunk_terms = []
        for (k_num, k_den), (_, lam) in zip(
            _chunk_kernels(windows, chunk, selections, n), selections.values()
        ):
            h_mat, h_vec = gram_system(k_num, k_den, alpha)
            theta = _solve_spd(h_mat, lam, h_vec)[..., None]
            chunk_terms.append(
                pe_terms((k_num @ theta)[..., 0], (k_den @ theta)[..., 0], alpha))
        terms.append(np.stack(chunk_terms, axis=1))
    return terms


def _cpu_quota() -> int | None:
    """CPUs the cgroup v2 quota in CPU_MAX grants (``<quota> <period>``,
    rounded up, at least 1); None where the file is missing or reads
    ``max``."""
    try:
        with open(CPU_MAX) as file:
            quota, period = file.read().split()
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError):  # no file, or "max": no quota
        return None


def _worker_count(tasks: int) -> int:
    """Worker processes for a sweep of ``tasks`` runs: one per CPU this
    process may run on, at most the cgroup CPU quota and one per task, and 1
    where workers would not fork or inside any multiprocessing child, so
    that pools never nest."""
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
    return min(cpus, _cpu_quota() or cpus, tasks)


def _run_length(blocks: int, workers: int, config) -> int:
    """CV blocks per run: as many as fill one STACK with their KLIEP CV
    problems, one per (direction, fold, sigma), and with more than one
    worker few enough that each worker gets RUNS_PER_WORKER runs."""
    grid = config.grid
    per_block = (len(_MODE_DIRECTIONS[config.score_mode]) * grid.folds
                 * len(grid.sigma_factors))
    length = max(1, STACK // per_block)
    if workers > 1:
        length = max(1, min(length, blocks // (RUNS_PER_WORKER * workers)))
    return length


def _score_run(windows, blocks: list, config) -> list[float]:
    """Scores of ``blocks``, consecutive CV blocks: first the CV refresh at
    every block's first position, all in one ``cv_select_many`` call, then
    the blocks' chunks of final fits."""
    n = config.n
    alpha = config.alpha if config.estimator_kind == RULSIF else 0.0
    directions = _MODE_DIRECTIONS[config.score_mode]
    problems = []
    for block in blocks:
        t = block[0]
        pair = segment_pair(windows, t, n)
        for direction in directions:
            num, den = ((pair.reference, pair.test)[i] for i in _ROLES[direction])
            problems.append((num, den, seeding.mix_seed(config.grid.seed, t, direction)))
    results = cv_select_many(problems, config.grid, config.estimator_kind, alpha)
    per_chunk = min(1 + 2 * n // config.stride, STACK // len(directions))
    chunks = []
    for b, block in enumerate(blocks):
        block_results = results[b * len(directions) : (b + 1) * len(directions)]
        selections = {direction: (sel.best_sigma, sel.best_lambda)
                      for direction, sel in zip(directions, block_results)}
        chunks += [(block[first : first + per_chunk], selections)
                   for first in range(0, len(block), per_chunk)]
    scores: list[float] = []
    for terms in _chunk_terms(windows, chunks, config, alpha):
        if config.clip_negative:
            terms = np.maximum(terms, 0.0)
        scores.extend(sum(row, 0.0) for row in terms.tolist())
    return scores


def _score_blocks(windows, blocks: list, config) -> list[float]:
    """Scores of ``blocks`` as one run.  A run of several blocks that fails
    is scored again one block at a time, so that the first failing block in
    series order raises, with the serial sweep's error."""
    try:
        return _score_run(windows, blocks, config)
    except DegenerateBandwidthError as exc:  # from one block's CV
        if len(blocks) == 1:
            t = blocks[0][0]
            raise DegenerateBandwidthError(
                f"{exc} (at position t={t}, boundary {t + config.n})"
            ) from exc
    except ChangePointError:
        if len(blocks) == 1:
            raise
    return [score for block in blocks for score in _score_blocks(windows, [block], config)]


# The sweep a worker process serves, set once per worker by _serve_sweep, so
# that tasks carry only their blocks and the caller does not pickle the
# windows for every task (workers fork, so they are not pickled at all).
# Never set in the calling process.
_SWEEP: tuple = ()


def _serve_sweep(windows, config) -> None:
    global _SWEEP
    _SWEEP = (windows, config)


def _score_task(blocks: list) -> list[float]:
    windows, config = _SWEEP
    return _score_blocks(windows, blocks, config)


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
    blocks = [starts[b : b + config.cv_stride] for b in range(0, len(starts), config.cv_stride)]
    workers = _worker_count(len(blocks))
    length = _run_length(len(blocks), workers, config)
    runs = [blocks[r : r + length] for r in range(0, len(blocks), length)]
    if workers == 1:
        scores = [score for run in runs for score in _score_blocks(windows, run, config)]
    else:  # one task per run, put back in series order
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_serve_sweep,
                                 initargs=(windows, config)) as pool:
            scores = [score for part in pool.map(_score_task, runs) for score in part]

    arr = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite change score produced")
    arr.setflags(write=False)
    return ScoreSeries(boundaries=tuple(t + config.n for t in starts), scores=arr)
