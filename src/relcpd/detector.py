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
first the CV refresh of every block, in one ``cv_select_many`` call, then
the final fits of all the blocks.  A sweep's blocks are cut into contiguous
runs whose lengths differ by at most 1, in whole rounds of one run per
worker: one round, and more only where a run's KLIEP CV would hold more
kernels than the memory budget allows (below).  For KLIEP each phase
streams its problems into ``estimators.kliep_ascent``, CV one stream per
training size (one where the fold count divides n), so a run pays for about
two stream ends, where rounds run nearly empty.  The same runs serve uLSIF
and RuLSIF, which compute each block as on their own.  A run of several
blocks that fails is scored again one block at a time, so the first failing
block in series order raises, with the serial sweep's error.

A sweep runs on ``min(available CPUs, CPU quota, runs)`` worker processes.
The available CPUs are those of ``os.sched_getaffinity`` (``os.cpu_count``
where that is missing; ``taskset`` limits them); the quota is that of the
cgroup v2 file CPU_MAX, ``<quota> <period>`` rounded up to whole CPUs, and a
file that reads ``max`` or is missing sets none.  Workers fork from this
process; where the start method is not ``fork`` (spawn on macOS and
Windows, forkserver on Linux from Python 3.14), or inside any
multiprocessing child (a ``bench --jobs`` worker for instance), the count
is 1, so pools never nest and no worker re-imports the caller's
``__main__``.  With one worker the sweep runs in this process and starts no
pool.  Otherwise it runs on the process's one sweep pool, a fork
``ProcessPoolExecutor`` of ``min(available CPUs, CPU quota)`` workers.  The
first sweep that needs two or more workers forks it, and every later sweep
reuses it, so a sweep with fewer runs than workers leaves the others idle.
It is forked anew when that count changes or after a worker died (the
sweep that finds the pool broken is tried once more on the new one), and
concurrent.futures' exit hook joins it when the interpreter exits.  A uLSIF
or RuLSIF sweep loads LAPACK (``estimators.lapack_dposv``) in this process
before it scores anything, so a pool it forks inherits the library; a KLIEP
sweep never loads it, and the workers of a pool that a KLIEP sweep forked
load it themselves when a later least-squares sweep reuses them.  Each
task is one run, scored by the same function as each run of the in-process
path: it carries the (standardized) series values, 8 x d x T bytes, the
config and its blocks.  No window vector is built: every distance comes
from ``kernel.squared_distances`` on the raw columns that a block's or a
chunk's windows cover, bit for bit the distances of the window vectors.
A CV block's matrix, among its 2n windows, serves both directions.
The parent joins the runs in series order, cancels the tasks that have not
started when one fails, and checks that every score is finite.  A worker
holds one run's CV and final-fit arrays on top of the copy of this process
it forked from, and an idle worker keeps its heap: after two rounds of 8
``kliep-cv``-sized sweeps (2000 points, 2 workers) each worker held
71-77 MB RSS, shared pages included.

One memory budget, ``estimators.BUDGET`` bytes, sizes every group of fits.
The KLIEP engine's buffer, CV or final, holds as many problems as their
kernel rows and per-problem vectors fit in it (``estimators.kliep_rows``).
Every other group holds at most U = ``estimators.budget_units(n)`` n x n
arrays of doubles (400 at n = 50, 25 at n = 200): a least-squares CV stack
U systems, or one fold's sigmas x lambdas where that is more (see
``model_selection``); a final-fit chunk U (position, direction) pairs; and
a run's KLIEP CV U (block, direction, sigma) kernels, so a run holds at
most max(1, U // (directions x sigmas)) blocks (40 at n = 50 with the
default grid, 2 at n = 200).  Final fits run in chunks, the positions of one
CV block whose pairs share one span of at most 4n windows: at most
min(1 + 2n // stride, max(1, U // directions)) positions.
One ``squared_distances`` over a chunk's span and one ``exp`` per direction
give the band kernel; each pair's (2n, 2n) kernel is a diagonal block of
it, taken as a strided view.  The distance and kernel matrices hold at most
(4n)^2 doubles each (0.3 MB for n = 50) at any stride, and the distances'
squared differences d x (4n + k - 1)^2.  uLSIF and RuLSIF fit a
chunk with one ``gram_system`` call, one stacked ``_solve_spd`` and one PE
expression.  KLIEP streams all of a run's final fits, one chunk's band
kernel at a time, into ``estimators.kliep_ascent``; each term is the fit's
final objective.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import seeding
from .embedding import TimeSeries
from .errors import (
    ChangePointError,
    DegenerateBandwidthError,
    InsufficientDataError,
    NumericError,
    ParameterError,
    integer,
)
from .estimators import (
    ESTIMATOR_KINDS, KLIEP, RULSIF, _solve_spd, budget_units, gram_system, kliep_ascent,
    lapack_dposv, pe_terms,
)
# Imported only for perfbench/perftrace.py, which wraps these names here by
# getattr; they stay until that tracer reads per-layer counters instead.
from .embedding import build_windows, segment_pair  # noqa: F401
from .estimators import kl_estimate, kliep_fit, pe_alpha_estimate  # noqa: F401
from .estimators import rulsif_fit, ulsif_fit  # noqa: F401
from .kernel import design_matrices  # noqa: F401
from .kernel import kernels_of, squared_distances
from .model_selection import CvGrid, cv_select_many
from .model_selection import cv_select  # noqa: F401 -- for perfbench/perftrace.py

SYMMETRIC = "symmetric"
FORWARD = "forward"
BACKWARD = "backward"
SCORE_MODES = (SYMMETRIC, FORWARD, BACKWARD)

# (numerator, denominator) segment of forward (0) and backward (1) fits
_ROLES = ((0, 1), (1, 0))
_MODE_DIRECTIONS = {SYMMETRIC: (0, 1), FORWARD: (0,), BACKWARD: (1,)}

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


def _segment(values: np.ndarray, t: int, count: int, k: int) -> np.ndarray:
    """The raw series columns of the ``count`` windows from position t."""
    return values[:, t - 1 : t - 1 + count + k - 1]


def _chunk_kernels(values, chunk: range, selections: dict, config) -> list[tuple]:
    """(k_num, k_den) stacks of the positions ``chunk`` for each direction of
    ``selections``: strided views into one band kernel per direction, with
    the numerator samples as centers."""
    n = config.n
    span = _segment(values, chunk.start, (len(chunk) - 1) * chunk.step + 2 * n, config.k)
    kernels = kernels_of(squared_distances(span, span, config.k),
                         [sigma for sigma, _ in selections.values()])
    _, row, col = kernels.strides
    views = []
    for kernel, direction in zip(kernels, selections):
        pairs = as_strided(kernel, (len(chunk), 2 * n, 2 * n),
                           (chunk.step * (row + col), row, col), writeable=False)
        num, den = (slice(i * n, (i + 1) * n) for i in _ROLES[direction])
        views.append((pairs[:, num, num], pairs[:, den, num]))
    return views


def _kliep_terms(values, chunks: list, config) -> list[np.ndarray]:
    """``_chunk_terms`` for KLIEP: the final objectives of ``chunks``' fits,
    streamed one chunk's band kernel at a time into ``kliep_ascent``."""
    counts = [len(chunk) * len(selections) for chunk, selections in chunks]
    problems = (problem for chunk, selections in chunks
                for k_chunk, k_den in _chunk_kernels(values, chunk, selections, config)
                for problem in zip(k_chunk, k_den.mean(axis=1)))
    objectives = kliep_ascent(problems, sum(counts))[1]
    parts = np.split(objectives, np.cumsum(counts)[:-1])
    return [part.reshape(len(selections), -1).T
            for part, (_, selections) in zip(parts, chunks)]


def _chunk_terms(values, chunks: list, config, alpha) -> list[np.ndarray]:
    """(position, direction) divergence terms of each chunk of ``chunks``,
    (positions, selections) pairs whose positions share the (sigma, lambda)
    ``selections`` per direction.  KLIEP streams all chunks' fits into one
    ``kliep_ascent`` call (see ``_kliep_terms``); least squares fits one
    chunk at a time."""
    if config.estimator_kind == KLIEP:
        return _kliep_terms(values, chunks, config)
    terms = []
    for chunk, selections in chunks:
        chunk_terms = []
        for (k_num, k_den), (_, lam) in zip(
            _chunk_kernels(values, chunk, selections, config), selections.values()
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


def _pool_size() -> int:
    """Worker processes of the sweep pool: one per CPU this process may run
    on, at most the cgroup CPU quota, and 1 where workers would not fork or
    inside any multiprocessing child, so that pools never nest."""
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
    return min(cpus, _cpu_quota() or cpus)


def _runs(blocks: list, workers: int, config) -> list[list]:
    """``blocks`` cut into contiguous runs whose lengths differ by at most 1,
    in whole rounds of ``workers`` runs: one round, and more where a run
    would hold more than ``budget_units(n)`` KLIEP CV kernels, one per
    (block, direction, sigma), but never more runs than blocks."""
    per_block = len(_MODE_DIRECTIONS[config.score_mode]) * len(config.grid.sigma_factors)
    most = max(1, budget_units(config.n) // per_block)  # blocks per run
    count = min(len(blocks), workers * -(-len(blocks) // (workers * most)))
    cuts = [len(blocks) * r // count for r in range(count + 1)]
    return [blocks[a:b] for a, b in zip(cuts, cuts[1:])]


def _cv_problems(values, blocks: list, config):
    """The ``cv_select_many`` problems of the CV refresh at every block's
    first position, per direction, made as they are taken: a block's
    distance matrix, among its 2n windows, serves both directions and is
    freed when they are prepared."""
    n, k = config.n, config.k
    halves = (slice(0, n), slice(n, 2 * n))  # reference and test windows
    for block in blocks:
        t = block[0]
        pair = _segment(values, t, 2 * n, k)
        sqdist = squared_distances(pair, pair, k)
        for direction in _MODE_DIRECTIONS[config.score_mode]:
            num, den = (halves[i] for i in _ROLES[direction])
            yield sqdist, num, den, seeding.mix_seed(config.grid.seed, t, direction)


def _score_run(values, blocks: list, config) -> list[float]:
    """Scores of ``blocks``, consecutive CV blocks of the series ``values``:
    first the CV refresh at every block's first position, all in one
    ``cv_select_many`` call, then the blocks' chunks of final fits."""
    n = config.n
    alpha = config.alpha if config.estimator_kind == RULSIF else 0.0
    directions = _MODE_DIRECTIONS[config.score_mode]
    results = cv_select_many(_cv_problems(values, blocks, config), config.grid,
                             config.estimator_kind, alpha)
    per_chunk = min(1 + 2 * n // config.stride, max(1, budget_units(n) // len(directions)))
    chunks = []
    for b, block in enumerate(blocks):
        block_results = results[b * len(directions) : (b + 1) * len(directions)]
        selections = {direction: (sel.best_sigma, sel.best_lambda)
                      for direction, sel in zip(directions, block_results)}
        chunks += [(block[first : first + per_chunk], selections)
                   for first in range(0, len(block), per_chunk)]
    scores: list[float] = []
    for terms in _chunk_terms(values, chunks, config, alpha):
        if config.clip_negative:
            terms = np.maximum(terms, 0.0)
        scores.extend(sum(row, 0.0) for row in terms.tolist())
    return scores


def _score_task(values: np.ndarray, config, blocks: list) -> list[float]:
    """Scores of ``blocks`` as one run, of the (standardized) series
    ``values``: the one scoring entry of a run, in a worker or in this
    process.  A run of several blocks that fails is scored again one block
    at a time, so that the first failing block in series order raises, with
    the serial sweep's error."""
    try:
        return _score_run(values, blocks, config)
    except DegenerateBandwidthError as exc:  # from one block's CV or KLIEP fits
        if len(blocks) == 1:
            t = blocks[0][0]
            raise DegenerateBandwidthError(
                f"{exc} (at position t={t}, boundary {t + config.n})"
            ) from exc
    except ChangePointError:
        if len(blocks) == 1:
            raise
    return [score for block in blocks for score in _score_task(values, config, [block])]


# The sweep pool of this process, (size, executor): forked by the first sweep
# that needs two or more workers, reused by every later one, and joined by
# _close_workers or by concurrent.futures' exit hook.
_POOL: tuple | None = None
_POOL_LOCK = threading.RLock()


def _workers(size: int) -> ProcessPoolExecutor:
    """The sweep pool, forked anew where it has not ``size`` workers."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[0] != size:
            _close_workers()
        if _POOL is None:
            _POOL = (size, ProcessPoolExecutor(
                max_workers=size, mp_context=multiprocessing.get_context("fork")))
        return _POOL[1]


def _close_workers() -> None:
    """Join the sweep pool's workers, if there is a pool; the next parallel
    sweep forks a new one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL[1].shutdown()
            _POOL = None


def _pool_scores(values: np.ndarray, config, runs: list, size: int) -> list[float]:
    """Scores of ``runs``, one task each on the sweep pool of ``size``
    workers, joined in series order.  Tasks that have not started when a
    sweep fails are cancelled.  A pool that lost a worker (killed, or out of
    memory) is forked anew and the sweep tried once more."""
    for retry in (False, True):
        futures = []
        try:
            pool = _workers(size)
            futures = [pool.submit(_score_task, values, config, run) for run in runs]
            return [score for future in futures for score in future.result()]
        except BrokenProcessPool:
            _close_workers()
            if retry:
                raise
        finally:
            for future in futures:
                future.cancel()


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
    t_last = t_len - 2 * config.n - config.k + 2
    starts = range(1, t_last + 1, config.stride)
    blocks = [starts[b : b + config.cv_stride] for b in range(0, len(starts), config.cv_stride)]
    if config.estimator_kind != KLIEP:
        lapack_dposv()  # before any fork, so that the workers inherit it
    size = _pool_size()
    workers = min(size, len(blocks))
    runs = _runs(blocks, workers, config)
    if workers == 1:
        scores = [score for run in runs for score in _score_task(series.values, config, run)]
    else:
        scores = _pool_scores(series.values, config, runs, size)

    arr = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite change score produced")
    arr.setflags(write=False)
    return ScoreSeries(boundaries=tuple(t + config.n for t in starts), scores=arr)
