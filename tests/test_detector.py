import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcpd import dataio, detector, estimators, model_selection, seeding
from relcpd.detector import (
    SCORE_MODES,
    DetectorConfig,
    change_scores,
    minimum_length,
)
from relcpd.embedding import TimeSeries, build_windows, segment_pair
from relcpd.errors import (
    DegenerateBandwidthError,
    InsufficientDataError,
    NumericError,
    ParameterError,
    SingularSystemError,
)
from relcpd.estimators import ESTIMATOR_KINDS
from relcpd.kernel import design_matrices
from relcpd.model_selection import CvGrid, cv_select

from oracles import kliep_fit_loop, least_squares_term_loop


def _series(seed=0, t_len=140, step_at=None):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=t_len)
    if step_at is not None:
        y[step_at:] += 3.0
    return TimeSeries(y)


def _config(**kw):
    base = dict(n=20, k=5, stride=5, cv_stride=2, grid=CvGrid(seed=7))
    base.update(kw)
    return DetectorConfig(**base)


def _budget(monkeypatch, n, units):
    """Set the memory budget to ``units`` n x n arrays of doubles; None keeps
    the default."""
    if units is not None:
        monkeypatch.setattr(estimators, "BUDGET", units * 8 * n * n)


def _serial(monkeypatch):
    """Let every sweep run in this process."""
    monkeypatch.setattr(detector, "_pool_size", lambda: 1)


def test_minimum_length_values():
    assert minimum_length(DetectorConfig(n=50, k=10)) == 109
    assert minimum_length(DetectorConfig(n=2, k=1, grid=CvGrid(folds=2))) == 4
    assert minimum_length(DetectorConfig(n=25, k=5)) == 54


def test_insufficient_data_lists_minimum():
    cfg = DetectorConfig(n=50, k=10)
    with pytest.raises(InsufficientDataError, match="109"):
        change_scores(_series(t_len=108), cfg)


def test_constant_series_degenerate_with_position():
    cfg = _config()
    with pytest.raises(DegenerateBandwidthError, match="t=1"):
        change_scores(TimeSeries(np.zeros(140)), cfg)


def test_config_validation():
    with pytest.raises(ParameterError):
        DetectorConfig(n=1)
    with pytest.raises(ParameterError):
        DetectorConfig(alpha=1.0)
    with pytest.raises(ParameterError):
        DetectorConfig(estimator_kind="nope")
    with pytest.raises(ParameterError):
        DetectorConfig(score_mode="sideways")
    with pytest.raises(ParameterError):
        DetectorConfig(stride=0)


def test_non_integral_sizes_rejected_at_config_time():
    # these used to run truncated, as (n, k, stride, cv_stride) = (30, 5, 2, 1)
    for name, value in (("n", 30.7), ("k", 5.9), ("stride", 2.5), ("cv_stride", 1.2),
                        ("n", 30.0), ("k", np.float64(5.0))):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            DetectorConfig(**{name: value})
    cfg = DetectorConfig(n=np.int64(30), k=np.int32(5), stride=np.uint8(2), cv_stride=1)
    assert (cfg.n, cfg.k, cfg.stride, cfg.cv_stride) == (30, 5, 2, 1)
    assert {type(v) for v in (cfg.n, cfg.k, cfg.stride, cfg.cv_stride)} == {int}


def test_fold_count_above_sample_count_rejected_at_config_time():
    with pytest.raises(ParameterError, match=r"n=3 .* fold count 5"):
        DetectorConfig(n=3, k=2, grid=CvGrid(folds=5))
    assert DetectorConfig(n=5, k=2, grid=CvGrid(folds=5)).n == 5


def test_boundaries_follow_stride():
    series = _series(seed=1)
    scores = change_scores(series, _config())
    bounds = scores.boundaries
    assert bounds[0] == 1 + 20  # first position t=1, boundary t+n
    assert all(b2 - b1 == 5 for b1, b2 in zip(bounds, bounds[1:]))
    t_max = 140 - 2 * 20 - 5 + 2
    assert len(bounds) == len(range(1, t_max + 1, 5))


def test_determinism():
    series = _series(seed=2, step_at=70)
    cfg = _config()
    a = change_scores(series, cfg)
    b = change_scores(series, cfg)
    assert a.boundaries == b.boundaries
    np.testing.assert_array_equal(a.scores, b.scores)


def test_symmetric_is_forward_plus_backward():
    series = _series(seed=3, step_at=70)
    common = dict(
        n=20,
        k=5,
        stride=5,
        cv_stride=2,
        clip_negative=False,
        grid=CvGrid(sigma_factors=(1.0,), lambdas=(0.1,), seed=11),
    )
    sym = change_scores(series, DetectorConfig(score_mode="symmetric", **common))
    fwd = change_scores(series, DetectorConfig(score_mode="forward", **common))
    bwd = change_scores(series, DetectorConfig(score_mode="backward", **common))
    np.testing.assert_array_equal(sym.scores, fwd.scores + bwd.scores)


def test_rulsif_alpha_zero_matches_ulsif():
    series = _series(seed=4, step_at=70)
    a = change_scores(
        series, _config(estimator_kind="rulsif", alpha=0.0)
    )
    b = change_scores(series, _config(estimator_kind="ulsif"))
    np.testing.assert_allclose(a.scores, b.scores, atol=1e-10, rtol=0)


def test_clipping_keeps_scores_nonnegative():
    series = _series(seed=5)
    scores = change_scores(series, _config())
    assert np.all(scores.scores >= 0.0)


def test_kliep_mode_runs():
    series = _series(seed=6, step_at=70)
    scores = change_scores(series, _config(estimator_kind="kliep"))
    assert np.all(np.isfinite(scores.scores))


def _scores_loop(series, config):
    """Scores with one fit per position and direction: ``kliep_fit_loop``
    for KLIEP, ``least_squares_term_loop`` for uLSIF and RuLSIF."""
    windows = build_windows(series, config.k)
    kind = config.estimator_kind
    alpha = config.alpha if kind == "rulsif" else 0.0
    directions = {"symmetric": (0, 1), "forward": (0,), "backward": (1,)}
    selections, scores = {}, []
    t_last = series.length - 2 * config.n - config.k + 2
    for idx, t in enumerate(range(1, t_last + 1, config.stride)):
        pair = segment_pair(windows, t, config.n)
        score = 0.0
        for direction in directions[config.score_mode]:
            num, den = [(pair.reference, pair.test), (pair.test, pair.reference)][direction]
            if idx % config.cv_stride == 0:
                seed = seeding.mix_seed(config.grid.seed, t, direction)
                grid = CvGrid(seed=seed)
                res = cv_select(num, den, grid, kind, alpha)
                selections[direction] = res.best_sigma, res.best_lambda
            sigma, lam = selections[direction]
            d = design_matrices(num, den, num, sigma)
            if kind == "kliep":
                term = kliep_fit_loop(d.k_num, d.k_den)[1]
            else:
                term = least_squares_term_loop(d.k_num, d.k_den, lam, alpha)
            score += max(term, 0.0) if config.clip_negative else term
        scores.append(score)
    return np.array(scores)


@pytest.mark.parametrize(
    "mode, stride, cv_stride, n, units",
    [
        # 12 blocks of 10 CV kernels (direction, sigma); 80 units cut runs of
        # 6 and 6
        pytest.param("symmetric", 5, 2, 20, 80, id="symmetric-5-2"),
        # 10 units force one block per run
        pytest.param("symmetric", 5, 2, 20, 10, id="symmetric-5-2-cap50"),
        # the default budget: 3 blocks in one run, its 234 final fits in one stream
        pytest.param("symmetric", 1, 50, 20, None, id="symmetric-1-50"),
        # runs of 1 block and 2, final fits through a buffer of 20 across
        # chunks of 10 positions
        pytest.param("symmetric", 1, 50, 20, 20, id="symmetric-1-50-stack100"),
        # 39 blocks of 5 CV kernels in one run
        pytest.param("forward", 3, 1, 20, None, id="forward-3-1"),
        # unequal folds; 19 blocks in one run
        pytest.param("backward", 2, 3, 22, None, id="backward-2-3-n22"),
        # unequal folds; 10 blocks: runs of 2, 3, 2 and 3
        pytest.param("symmetric", 4, 3, 22, 30, id="symmetric-4-3-n22-stack150"),
    ],
)
def test_kliep_block_fits_match_per_position_loop(monkeypatch, mode, stride, cv_stride, n,
                                                  units):
    # a run's CV problems are fitted as one stream per training size, and its
    # final fits as one stream that cuts across chunks and CV refreshes
    _serial(monkeypatch)  # runs split by the budget alone
    _budget(monkeypatch, n, units)
    series = _series(seed=9, t_len=160, step_at=80)
    cfg = _config(
        n=n, estimator_kind="kliep", score_mode=mode, stride=stride, cv_stride=cv_stride,
        clip_negative=mode != "forward",
    )
    got = change_scores(series, cfg).scores
    np.testing.assert_allclose(got, _scores_loop(series, cfg), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize(
    "kind, mode, stride, cv_stride, clip",
    [
        # blocks of 29 positions, one chunk each; the last block of the 117
        # positions is a single one
        ("ulsif", "symmetric", 1, 29, True),
        ("rulsif", "symmetric", 1, 29, False),
        ("rulsif", "forward", 3, 7, True),
        ("ulsif", "backward", 3, 7, False),
        ("rulsif", "backward", 1, 12, True),
        ("ulsif", "forward", 3, 1, False),
        # a chunk holds at most 1 + 2n // stride = 41 positions: a block of
        # 87 positions runs in chunks of 41, 41 and 5, then one of 30
        ("ulsif", "symmetric", 1, 2 * 41 + 5, True),
        ("rulsif", "symmetric", 1, 2 * 41 + 5, False),
        # blocks of exactly one full chunk
        ("rulsif", "backward", 1, 41, True),
    ],
)
def test_least_squares_chunks_match_per_position_loop(kind, mode, stride, cv_stride, clip):
    series = _series(seed=9, t_len=160, step_at=80)
    cfg = _config(
        estimator_kind=kind, score_mode=mode, stride=stride, cv_stride=cv_stride,
        clip_negative=clip,
    )
    got = change_scores(series, cfg).scores
    np.testing.assert_allclose(got, _scores_loop(series, cfg), rtol=1e-12, atol=1e-14)


def test_failed_factorization_is_retried_with_jitter_for_that_system_alone(monkeypatch):
    _serial(monkeypatch)  # calls counted here
    series = _series(seed=9, t_len=160, step_at=80)
    cfg = _config(estimator_kind="rulsif", stride=1, cv_stride=24)
    expected = change_scores(series, cfg).scores
    posv, chunk_terms = estimators.dposv, detector._chunk_terms
    systems = []
    in_chunk = [False]  # CV's factorizations are neither recorded nor failed

    def flagged_chunk_terms(*args):
        in_chunk[0] = True
        try:
            return chunk_terms(*args)
        finally:
            in_chunk[0] = False

    def failing_third_posv(a, b, **kwargs):
        if not in_chunk[0]:
            return posv(a, b, **kwargs)
        systems.append(a.copy())
        factor, x, info = posv(a, b, **kwargs)
        return factor, x, 1 if len(systems) == 3 else info

    monkeypatch.setattr(detector, "_chunk_terms", flagged_chunk_terms)
    monkeypatch.setattr(estimators, "dposv", failing_third_posv)
    got = change_scores(series, cfg).scores
    # one factorization per position and direction, plus the one retry; the
    # third system is the forward fit of position 2
    assert len(systems) == 2 * len(got) + 1
    jitter = systems[3] - systems[2]
    np.testing.assert_array_equal(jitter, np.diag(np.diag(jitter)))
    assert 0.0 < jitter[0, 0] < 1e-9
    np.testing.assert_allclose(np.diag(jitter), jitter[0, 0], rtol=1e-3)
    np.testing.assert_array_equal(np.delete(got, 2), np.delete(expected, 2))
    assert got[2] == pytest.approx(expected[2], rel=1e-6)

    monkeypatch.setattr(estimators, "dposv",
                        lambda a, b, **kwargs: (a, b, 1) if in_chunk[0] else posv(a, b, **kwargs))
    with pytest.raises(SingularSystemError):
        change_scores(series, cfg)


@pytest.mark.parametrize("stride, units", [
    pytest.param(stride, None, id=str(stride)) for stride in (1, 7, 30, 45)
] + [pytest.param(1, 60, id="1-stack60"), pytest.param(7, 30, id="7-stack30")])
def test_chunk_span_and_stack_stay_bounded(monkeypatch, stride, units):
    # the band kernel spans at most 4n windows at any stride, every KLIEP
    # buffer, CV or final, holds the problems that kliep_rows allows, fewer
    # than the budget's units, and every least-squares final-fit chunk at
    # most the units' (position, direction) pairs; one distance matrix
    # serves each CV block and one each chunk
    _serial(monkeypatch)  # calls counted here
    _budget(monkeypatch, 20, units)
    units = estimators.budget_units(20)
    spans, streams, cv_streams, buffers, solves = [], [], [], [], []
    distances = []
    kernels, solve = detector.kernels_of, detector._solve_spd
    squared_distances, try_steps = detector.squared_distances, estimators._try_steps

    def recording_kernels(sqdist, sigmas):
        spans.append(len(sqdist))
        return kernels(sqdist, sigmas)

    def recording_distances(first, second, k):
        distances.append(first.shape[1] - k + 1)  # windows
        return squared_distances(first, second, k)

    def recording(ascent, stream_sizes):
        def recording_ascent(problems, count):
            stream_sizes.append(0)

            def counted():  # the problems the engine takes, one at a time
                for problem in problems:
                    stream_sizes[-1] += 1
                    yield problem
            return ascent(counted(), count)
        return recording_ascent

    def recording_try_steps(stack_rows, *args):
        buffers.append(len(stack_rows.base))  # the rows of the engine's buffer
        return try_steps(stack_rows, *args)

    def recording_solve(h_mat, lam, rhs):
        solves.append(len(h_mat))
        return solve(h_mat, lam, rhs)

    monkeypatch.setattr(detector, "kernels_of", recording_kernels)
    monkeypatch.setattr(detector, "squared_distances", recording_distances)
    monkeypatch.setattr(estimators, "_try_steps", recording_try_steps)
    monkeypatch.setattr(detector, "kliep_ascent", recording(detector.kliep_ascent, streams))
    monkeypatch.setattr(model_selection, "kliep_ascent",
                        recording(model_selection.kliep_ascent, cv_streams))
    monkeypatch.setattr(detector, "_solve_spd", recording_solve)
    series = _series(seed=9, t_len=160, step_at=80)
    cfg = _config(estimator_kind="kliep", stride=stride, cv_stride=100)
    positions = len(change_scores(series, cfg).scores)
    per_chunk = min(1 + 2 * cfg.n // stride, units // 2)
    blocks = [min(cfg.cv_stride, positions - b) for b in range(0, positions, cfg.cv_stride)]
    chunks = sum(-(-size // per_chunk) for size in blocks)
    assert len(spans) == chunks  # one band kernel per chunk
    assert max(spans) == (per_chunk - 1) * stride + 2 * cfg.n <= 4 * cfg.n
    assert distances == [2 * cfg.n] * len(blocks) + spans
    assert sum(streams) == 2 * positions  # each final fit taken once
    assert sum(cv_streams) == 2 * len(blocks) * cfg.grid.folds * len(cfg.grid.sigma_factors)
    final_rows, cv_rows = estimators.kliep_rows(20, 20), estimators.kliep_rows(16, 20)
    assert set(buffers) == ({min(final_rows, size) for size in streams}
                            | {min(cv_rows, size) for size in cv_streams})
    assert max(buffers) <= units
    assert len(streams) == len(cv_streams) == 1  # the sweep's one run, one stream each

    # least squares solves each chunk's fits as one stack per direction
    spans.clear()
    distances.clear()
    change_scores(series, _config(estimator_kind="ulsif", stride=stride, cv_stride=100))
    assert len(spans) == chunks and len(solves) == 2 * chunks
    assert distances == [2 * cfg.n] * len(blocks) + spans
    chunk_stacks = [fwd + bwd for fwd, bwd in zip(solves[::2], solves[1::2])]
    assert sum(chunk_stacks) == 2 * positions  # each final fit once
    assert max(chunk_stacks) <= units


def test_step_change_produces_peak_near_change():
    series = _series(seed=8, t_len=200, step_at=100)
    cfg = DetectorConfig(n=25, k=5, stride=1, cv_stride=5, grid=CvGrid(seed=3))
    scores = change_scores(series, cfg)
    bounds = np.asarray(scores.boundaries)
    near = (bounds >= 91) & (bounds <= 111)
    assert scores.scores[near].max() > np.quantile(scores.scores[~near], 0.95)


def test_time_shift_with_singleton_grid():
    rng = np.random.default_rng(9)
    tail = rng.normal(size=140)
    prefix = rng.normal(size=10)
    cfg = DetectorConfig(
        n=20,
        k=5,
        stride=5,
        cv_stride=1,  # per-position selection keeps scores content-determined
        grid=CvGrid(sigma_factors=(1.0,), lambdas=(0.1,), seed=1),
    )
    short = change_scores(TimeSeries(tail), cfg)
    long = change_scores(TimeSeries(np.concatenate([prefix, tail])), cfg)
    # stride 5 divides the 10-step prefix: every original boundary shifts by 10
    shifted = [b + 10 for b in short.boundaries]
    assert set(shifted) <= set(long.boundaries)
    long_by_boundary = dict(zip(long.boundaries, long.scores))
    for b, s in zip(shifted, short.scores):
        assert long_by_boundary[b] == pytest.approx(s, rel=1e-12, abs=1e-14)


def test_standardize_flag_changes_scale_not_shape():
    rng = np.random.default_rng(10)
    y = rng.normal(size=140) * 50.0 + 300.0
    y[70:] += 150.0
    series = TimeSeries(y)
    plain = change_scores(series, _config())
    standardized = change_scores(series, _config(standardize=True))
    assert plain.boundaries == standardized.boundaries
    assert np.all(np.isfinite(standardized.scores))


def _with_cpus(monkeypatch, cpus):
    """Let the sweep see ``cpus`` available CPUs and no CPU quota."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(detector, "CPU_MAX", os.devnull)


def test_worker_count_is_capped_by_cpus_and_blocks(monkeypatch):
    _with_cpus(monkeypatch, 3)
    assert detector._pool_size() == 3
    # a sweep of 1, 2 and 12 blocks takes 1, 2 and 3 workers; the pool's
    # scoring is left out, as only the worker count is recorded
    runs, workers = detector._runs, []

    def recording_runs(blocks, count, config):
        workers.append(count)
        return runs(blocks, count, config)

    monkeypatch.setattr(detector, "_runs", recording_runs)
    monkeypatch.setattr(detector, "_pool_scores", lambda values, config, runs, size: [
        0.0 for run in runs for block in run for _ in block])
    for cv_stride in (24, 12, 2):  # 24 positions
        change_scores(_series(), _config(cv_stride=cv_stride))
    assert workers == [1, 2, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # where it is missing
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert detector._pool_size() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert detector._pool_size() == 1


def test_worker_count_is_capped_by_the_cgroup_cpu_quota(monkeypatch, tmp_path):
    _with_cpus(monkeypatch, 4)
    cpu_max = tmp_path / "cpu.max"
    monkeypatch.setattr(detector, "CPU_MAX", str(cpu_max))
    assert detector._pool_size() == 4  # no file: no quota
    for text, workers in (("150000 100000\n", 2), ("50000 100000\n", 1),
                          ("200000 100000\n", 2), ("800000 100000\n", 4),
                          ("max 100000\n", 4)):
        cpu_max.write_text(text)
        assert detector._pool_size() == workers, text


def test_worker_count_is_one_inside_a_multiprocessing_child(monkeypatch):
    _with_cpus(monkeypatch, 4)
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(detector._pool_size).result(timeout=60) == 1
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert detector._pool_size() == 1


def test_worker_count_is_one_unless_workers_fork(monkeypatch):
    _with_cpus(monkeypatch, 4)
    for method in ("spawn", "forkserver"):  # set by the caller
        monkeypatch.setattr(multiprocessing, "get_start_method",
                            lambda allow_none=False, method=method: method)
        assert detector._pool_size() == 1
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: None)  # left to the default
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "fork", "forkserver"])
    assert detector._pool_size() == 1
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["fork", "spawn", "forkserver"])
    assert detector._pool_size() == 4


@settings(max_examples=200, deadline=None)
@given(blocks=st.integers(1, 300), workers=st.integers(1, 8),
       mode=st.sampled_from(SCORE_MODES), sigmas=st.integers(1, 12),
       units=st.sampled_from((1, 10, 50, 400, 3200)))
def test_runs_are_even_contiguous_and_capped(blocks, workers, mode, sigmas, units):
    # whole rounds of one run per worker, more rounds only where a run would
    # hold more KLIEP CV kernels (block, direction, sigma) than the budget's
    # units; a block that alone exceeds them runs alone
    cfg = DetectorConfig(n=10, score_mode=mode, grid=CvGrid(sigma_factors=range(1, sigmas + 1)))
    per_block = len(detector._MODE_DIRECTIONS[mode]) * sigmas
    with pytest.MonkeyPatch.context() as mp:
        _budget(mp, cfg.n, units)
        runs = detector._runs(list(range(blocks)), workers, cfg)
    assert [block for run in runs for block in run] == list(range(blocks))
    lengths = [len(run) for run in runs]
    assert min(lengths) >= max(lengths) - 1 >= 0
    assert max(lengths) * per_block <= max(units, per_block)
    assert len(runs) % workers == 0 or len(runs) == blocks  # whole rounds, or a block each
    assert len(runs) >= min(workers, blocks)
    fewer = (-(-len(runs) // workers) - 1) * workers
    if fewer:  # one round of workers fewer would break the cap
        assert -(-blocks // fewer) * per_block > units


def _sweep_peak(cfg, positions, step_at):
    """The ``tracemalloc`` peak of a sweep of ``positions`` positions, after
    a short sweep has made the first-call allocations."""
    need = minimum_length(cfg)
    change_scores(_series(seed=5, t_len=need + 5), cfg)
    series = _series(seed=5, t_len=positions + need - 1, step_at=step_at)
    tracemalloc.start()
    try:
        assert len(change_scores(series, cfg).scores) == positions
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kliep_run_memory_peak_is_bounded_by_the_run_cap(monkeypatch):
    # At n = 20, 128 blocks of 10 CV kernels fit in one run of the default
    # budget's 2,500 units; at n = 200, 6 blocks make 3 runs of its 25.  A
    # run holds at most one budget of CV kernels and the engine's buffer one
    # more, its rows counted with their vectors and the round's temporaries
    # (estimators.kliep_rows); the peaks read 2.04 and 2.40 budgets.  With a
    # buffer row counted as n x n doubles, the n = 20 sweep peaked at 2.66;
    # with caps counted in problems (400 per buffer, 3,200 per run), not in
    # bytes, the n = 200 sweep peaked at 14.
    _serial(monkeypatch)
    bound = 2.75 * estimators.BUDGET
    for n, blocks in ((20, 128), (200, 6)):
        cfg = DetectorConfig(n=n, k=3, estimator_kind="kliep", stride=1, cv_stride=1,
                             grid=CvGrid(folds=5, seed=3))
        peak = _sweep_peak(cfg, blocks, step_at=80)
        assert peak <= bound, (f"n={n}: peak {peak / 2**20:.1f} MiB, "
                               f"bound {bound / 2**20:.1f} MiB")


def test_least_squares_chunk_memory_peak_is_bounded_by_the_budget(monkeypatch):
    # RuLSIF at n = 200, stride 1, one CV block of 60 positions: chunks of the
    # budget's 25 units hold 12 positions of 2 directions, and the peak stays
    # below two budgets; with chunks of 200 positions it was 7.6.
    _serial(monkeypatch)
    cfg = DetectorConfig(n=200, k=3, estimator_kind="rulsif", stride=1, cv_stride=60,
                         grid=CvGrid(seed=3))
    peak = _sweep_peak(cfg, 60, step_at=230)
    bound = 2 * estimators.BUDGET
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


class _RecordingPool(ProcessPoolExecutor):
    started: list = []

    def __init__(self, max_workers, **kwargs):
        super().__init__(max_workers=max_workers, **kwargs)
        self.started.append(max_workers)


def test_one_worker_starts_no_pool_and_more_shut_theirs_down(monkeypatch):
    series = _series(seed=9, t_len=160, step_at=80)
    cfg = _config(stride=3, cv_stride=4)  # 31 positions in 8 blocks
    monkeypatch.setattr(detector, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    _with_cpus(monkeypatch, 1)
    serial = change_scores(series, cfg)
    _with_cpus(monkeypatch, 2)
    single_block = change_scores(series, _config(stride=3, cv_stride=100))
    assert _RecordingPool.started == []
    parallel = change_scores(series, cfg)
    assert _RecordingPool.started == [2]
    detector._close_workers()
    assert multiprocessing.active_children() == []
    assert parallel.boundaries == serial.boundaries == single_block.boundaries
    np.testing.assert_array_equal(parallel.scores, serial.scores)


def _serial_scores(series, cfg):
    with pytest.MonkeyPatch.context() as mp:
        _serial(mp)
        return change_scores(series, cfg)


def _recording_pools(monkeypatch, cpus):
    monkeypatch.setattr(detector, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    _with_cpus(monkeypatch, cpus)


def test_parallel_sweeps_share_one_pool_until_the_cpu_count_changes(monkeypatch):
    series = _series(seed=9, t_len=160, step_at=80)
    cfg = _config(stride=3, cv_stride=4)  # 8 blocks
    serial = _serial_scores(series, cfg)
    _recording_pools(monkeypatch, 2)
    first = change_scores(series, cfg)
    workers = set(multiprocessing.active_children())
    second = change_scores(_series(seed=9, t_len=160, step_at=80), cfg)
    assert _RecordingPool.started == [2]  # the second sweep reused the first's pool
    assert set(multiprocessing.active_children()) == workers and len(workers) == 2
    change_scores(series, _config(stride=3, cv_stride=100))  # one block: no pool needed
    _with_cpus(monkeypatch, 3)
    third = change_scores(series, cfg)
    assert _RecordingPool.started == [2, 3]
    assert not workers & set(multiprocessing.active_children())  # the old pool joined
    for scores in (first, second, third):
        np.testing.assert_array_equal(scores.scores, serial.scores)


def test_a_killed_worker_is_replaced_on_the_next_sweep(monkeypatch):
    series = _series(seed=4, t_len=160, step_at=70)
    cfg = _config(stride=2, cv_stride=3)
    serial = _serial_scores(series, cfg)
    _recording_pools(monkeypatch, 2)
    change_scores(series, cfg)
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([victim.sentinel], timeout=60)
    again = change_scores(series, cfg)
    assert _RecordingPool.started == [2, 2]
    assert victim.pid not in {child.pid for child in multiprocessing.active_children()}
    np.testing.assert_array_equal(again.scores, serial.scores)


_TASK_LOG = None  # a file each worker task appends its series length to
_score_task = detector._score_task


def _logging_task(values, config, blocks):
    with open(_TASK_LOG, "a") as log:
        log.write(f"{values.shape[1]}\n")
    return _score_task(values, config, blocks)


def test_a_failing_parallel_sweep_leaves_the_pool_serving_the_next(monkeypatch, tmp_path):
    # the flat stretch fails in its 24th of 50 runs; the tasks not yet
    # started are cancelled, and the next sweep runs on the same pool
    cfg = DetectorConfig(stride=5, cv_stride=2)
    good = _series(seed=2, t_len=500, step_at=250)
    serial = _serial_scores(good, cfg)
    with pytest.raises(DegenerateBandwidthError) as serial_error:
        _serial_scores(_flat_stretch_series(), cfg)
    _recording_pools(monkeypatch, 2)
    _budget(monkeypatch, cfg.n, 10)  # a run per block
    monkeypatch.setattr(sys.modules[__name__], "_TASK_LOG", str(tmp_path / "tasks"))
    monkeypatch.setattr(detector, "_score_task", _logging_task)
    with pytest.raises(DegenerateBandwidthError) as error:
        change_scores(_flat_stretch_series(), cfg)
    assert str(error.value) == str(serial_error.value)
    parallel = change_scores(good, cfg)
    assert _RecordingPool.started == [2]
    assert parallel.boundaries == serial.boundaries
    np.testing.assert_array_equal(parallel.scores, serial.scores)
    started = (tmp_path / "tasks").read_text().split()
    assert started.count("500") == 40  # every task of the good sweep's 40 blocks
    assert started.count("600") < 50  # here 29 of 50 started


def test_cli_with_two_workers_exits_and_leaves_no_process(tmp_path):
    # the pool is alive when main returns; the interpreter's exit joins it
    if detector._pool_size() < 2:
        pytest.skip("the sweep pool needs two CPUs here")
    csv = tmp_path / "series.csv"
    dataio.write_series_csv(csv, _series(seed=1, t_len=400, step_at=200))
    src = str(Path(detector.__file__).resolve().parents[1])
    run = ("import multiprocessing, sys\n"
           "from relcpd.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print(*[child.pid for child in multiprocessing.active_children()])\n"
           "sys.exit(code)\n")
    done = subprocess.run(
        [sys.executable, "-c", run, "detect", str(csv), "--out", str(tmp_path / "out"),
         "--stride", "5", "--cv-stride", "5"],
        capture_output=True, text=True, timeout=120, check=False,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])})
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.splitlines()[-1].split()]
    assert len(pids) == detector._pool_size()  # the pool's workers, alive after main
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(ESTIMATOR_KINDS),
    mode=st.sampled_from(SCORE_MODES),
    stride=st.integers(1, 12),
    cv_stride=st.integers(1, 30),
    clip=st.booleans(),
    cpus=st.integers(1, 3),
    units=st.sampled_from((10, 40, None)),
    n=st.integers(10, 12),  # 11 and 12 give folds of unequal size
    t_len=st.integers(27, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_parallel_sweep_is_bit_identical_to_serial(kind, mode, stride, cv_stride, clip,
                                                   cpus, units, n, t_len, seed):
    # short series and long blocks give fewer blocks than workers; the serial
    # sweep scores one run, or several where the drawn budget on a run's CV
    # kernels forces them, and the workers one round of runs, or as many as
    # the budget needs
    series = _series(seed=seed, t_len=t_len, step_at=t_len // 2)
    cfg = DetectorConfig(n=n, k=3, estimator_kind=kind, score_mode=mode, stride=stride,
                         cv_stride=cv_stride, clip_negative=clip, grid=CvGrid(seed=seed))
    with pytest.MonkeyPatch.context() as mp:
        _serial(mp)
        _budget(mp, n, units)
        serial = change_scores(series, cfg)
    with pytest.MonkeyPatch.context() as mp:
        _with_cpus(mp, cpus)
        _budget(mp, n, units)
        parallel = change_scores(series, cfg)
    assert parallel.boundaries == serial.boundaries
    np.testing.assert_array_equal(parallel.scores, serial.scores)


def _flat_stretch_series():
    y = np.random.default_rng(0).normal(size=600)
    y[250:420] = 0.0
    return TimeSeries(y)


def test_flat_stretch_fails_at_the_same_position_at_any_worker_count(monkeypatch):
    # the first failing block in series order raises, as in the serial sweep
    cfg = DetectorConfig(stride=1, cv_stride=1)
    messages = []
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(DegenerateBandwidthError) as info:
            change_scores(_flat_stretch_series(), cfg)
        assert type(info.value) is DegenerateBandwidthError
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("(at position t=222, boundary 272)")


def test_kliep_zero_denominator_kernel_fails_at_the_same_position_at_any_worker_count(
        monkeypatch):
    # a spike of 100 puts centers so far from every denominator sample that
    # their mean denominator kernel underflows to 0: the KLIEP objective is
    # unbounded, and the block's CV or final fits raise before the ascent
    y = np.random.default_rng(0).normal(size=600)
    y[300] = 100.0
    cfg = DetectorConfig(estimator_kind="kliep", stride=5, cv_stride=5)
    messages = []
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(DegenerateBandwidthError) as info:
            change_scores(TimeSeries(y), cfg)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "mean denominator kernel value underflows to 0" in messages[0]
    assert messages[0].endswith("(at position t=276, boundary 326)")


def test_earlier_final_fit_error_wins_over_a_later_cv_error_in_one_run(monkeypatch):
    # the serial sweep's run of blocks t=190..227 holds t=222, whose CV fails
    # on the flat stretch, and t=219, whose final fits are made to fail; a
    # sweep one block at a time reaches t=219's final fits first
    _serial(monkeypatch)
    chunk_terms = detector._chunk_terms

    def failing_at_219(windows, chunks, config, alpha):
        if any(chunk.start == 219 for chunk, _ in chunks):
            raise NumericError("final fit failed at t=219")
        return chunk_terms(windows, chunks, config, alpha)

    monkeypatch.setattr(detector, "_chunk_terms", failing_at_219)
    with pytest.raises(NumericError, match="t=219"):
        change_scores(_flat_stretch_series(), DetectorConfig(stride=1, cv_stride=1))

