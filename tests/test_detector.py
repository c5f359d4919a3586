import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcpd import detector, estimators, model_selection, seeding
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
from relcpd.estimators import ESTIMATOR_KINDS, STACK
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
    "mode, stride, cv_stride, n, stack",
    [
        # 12 blocks: runs of 8 and 4
        pytest.param("symmetric", 5, 2, 20, STACK, id="symmetric-5-2"),
        # 3 blocks in one run, its 234 final fits in one stack
        pytest.param("symmetric", 1, 50, 20, STACK, id="symmetric-1-50"),
        # runs of 2 blocks and 1, final fits in stacks of 100 across chunks
        pytest.param("symmetric", 1, 50, 20, 100, id="symmetric-1-50-stack100"),
        # 39 blocks: runs of 16, 16 and 7
        pytest.param("forward", 3, 1, 20, STACK, id="forward-3-1"),
        # unequal folds; 19 blocks: runs of 16 and 3
        pytest.param("backward", 2, 3, 22, STACK, id="backward-2-3-n22"),
        # unequal folds; 10 blocks: runs of 3, 3, 3 and 1
        pytest.param("symmetric", 4, 3, 22, 150, id="symmetric-4-3-n22-stack150"),
    ],
)
def test_kliep_block_fits_match_per_position_loop(monkeypatch, mode, stride, cv_stride, n,
                                                  stack):
    # a run's CV problems are fitted as stacks, one per training size, and
    # its final fits as stacks of up to the cap that cut across chunks and
    # CV refreshes
    monkeypatch.setattr(detector, "_worker_count", lambda tasks: 1)  # runs of many blocks
    monkeypatch.setattr(detector, "STACK", stack)
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
    monkeypatch.setattr(detector, "_worker_count", lambda blocks: 1)  # calls counted here
    series = _series(seed=9, t_len=160, step_at=80)
    cfg = _config(estimator_kind="rulsif", stride=1, cv_stride=24)
    expected = change_scores(series, cfg).scores
    potrf, chunk_terms = estimators.dpotrf, detector._chunk_terms
    systems = []
    in_chunk = [False]  # CV's factorizations are neither recorded nor failed

    def flagged_chunk_terms(*args):
        in_chunk[0] = True
        try:
            return chunk_terms(*args)
        finally:
            in_chunk[0] = False

    def failing_third_potrf(a, **kwargs):
        factor, info = potrf(a, **kwargs)
        if not in_chunk[0]:
            return factor, info
        systems.append(a.copy())
        return factor, 1 if len(systems) == 3 else info

    monkeypatch.setattr(detector, "_chunk_terms", flagged_chunk_terms)
    monkeypatch.setattr(estimators, "dpotrf", failing_third_potrf)
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

    monkeypatch.setattr(estimators, "dpotrf",
                        lambda a, **kwargs: (a, 1) if in_chunk[0] else potrf(a, **kwargs))
    with pytest.raises(SingularSystemError):
        change_scores(series, cfg)


@pytest.mark.parametrize("stride, stack", [
    pytest.param(stride, STACK, id=str(stride)) for stride in (1, 7, 30, 45)
] + [pytest.param(1, 60, id="1-stack60"), pytest.param(7, 30, id="7-stack30")])
def test_chunk_span_and_stack_stay_bounded(monkeypatch, stride, stack):
    # the band kernel spans at most 4n windows at any stride, and every stack
    # of fits, CV or final, KLIEP or least squares, holds at most STACK
    # problems
    monkeypatch.setattr(detector, "_worker_count", lambda tasks: 1)  # calls counted here
    monkeypatch.setattr(detector, "STACK", stack)
    monkeypatch.setattr(model_selection, "STACK", stack)
    spans, stacks, cv_stacks, solves = [], [], [], []
    kernels, solve = detector.gaussian_kernels, detector._solve_spd

    def recording_kernels(samples, centers, sigmas):
        spans.append(len(samples))
        return kernels(samples, centers, sigmas)

    def recording(ascent, sizes):
        def recording_ascent(k_num, b_vec):
            sizes.append(len(k_num))
            return ascent(k_num, b_vec)
        return recording_ascent

    def recording_solve(h_mat, lam, rhs):
        solves.append(len(h_mat))
        return solve(h_mat, lam, rhs)

    monkeypatch.setattr(detector, "gaussian_kernels", recording_kernels)
    monkeypatch.setattr(detector, "kliep_ascent", recording(detector.kliep_ascent, stacks))
    monkeypatch.setattr(model_selection, "kliep_ascent",
                        recording(model_selection.kliep_ascent, cv_stacks))
    monkeypatch.setattr(detector, "_solve_spd", recording_solve)
    series = _series(seed=9, t_len=160, step_at=80)
    cfg = _config(estimator_kind="kliep", stride=stride, cv_stride=100)
    positions = len(change_scores(series, cfg).scores)
    per_chunk = min(1 + 2 * cfg.n // stride, stack // 2)
    blocks = [min(cfg.cv_stride, positions - b) for b in range(0, positions, cfg.cv_stride)]
    chunks = sum(-(-size // per_chunk) for size in blocks)
    assert len(spans) == chunks  # one band kernel per chunk
    assert max(spans) == (per_chunk - 1) * stride + 2 * cfg.n <= 4 * cfg.n
    assert sum(stacks) == 2 * positions  # each final fit once
    assert sum(cv_stacks) == 2 * len(blocks) * cfg.grid.folds * len(cfg.grid.sigma_factors)
    assert max(stacks + cv_stacks) <= stack
    if stack == STACK:  # every fit of the sweep's one run in one stack
        assert len(stacks) == len(cv_stacks) == 1

    # least squares solves each chunk's fits as one stack per direction
    spans.clear()
    change_scores(series, _config(estimator_kind="ulsif", stride=stride, cv_stride=100))
    assert len(spans) == chunks and len(solves) == 2 * chunks
    chunk_stacks = [fwd + bwd for fwd, bwd in zip(solves[::2], solves[1::2])]
    assert sum(chunk_stacks) == 2 * positions  # each final fit once
    assert max(chunk_stacks) <= stack


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
    assert [detector._worker_count(b) for b in (1, 2, 3, 4, 500)] == [1, 2, 3, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # where it is missing
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert [detector._worker_count(b) for b in (1, 4, 500)] == [1, 4, 5]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert detector._worker_count(500) == 1


def test_worker_count_is_capped_by_the_cgroup_cpu_quota(monkeypatch, tmp_path):
    _with_cpus(monkeypatch, 4)
    cpu_max = tmp_path / "cpu.max"
    monkeypatch.setattr(detector, "CPU_MAX", str(cpu_max))
    assert detector._worker_count(500) == 4  # no file: no quota
    for text, workers in (("150000 100000\n", 2), ("50000 100000\n", 1),
                          ("200000 100000\n", 2), ("800000 100000\n", 4),
                          ("max 100000\n", 4)):
        cpu_max.write_text(text)
        assert detector._worker_count(500) == workers, text
    cpu_max.write_text("150000 100000\n")
    assert detector._worker_count(1) == 1


def test_worker_count_is_one_inside_a_multiprocessing_child(monkeypatch):
    _with_cpus(monkeypatch, 4)
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(detector._worker_count, 500).result(timeout=60) == 1
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert detector._worker_count(500) == 1


def test_worker_count_is_one_unless_workers_fork(monkeypatch):
    _with_cpus(monkeypatch, 4)
    for method in ("spawn", "forkserver"):  # set by the caller
        monkeypatch.setattr(multiprocessing, "get_start_method",
                            lambda allow_none=False, method=method: method)
        assert detector._worker_count(500) == 1
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: None)  # left to the default
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "fork", "forkserver"])
    assert detector._worker_count(500) == 1
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["fork", "spawn", "forkserver"])
    assert detector._worker_count(500) == 4


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
    assert multiprocessing.active_children() == []  # workers joined on return
    assert parallel.boundaries == serial.boundaries == single_block.boundaries
    np.testing.assert_array_equal(parallel.scores, serial.scores)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(ESTIMATOR_KINDS),
    mode=st.sampled_from(SCORE_MODES),
    stride=st.integers(1, 12),
    cv_stride=st.integers(1, 30),
    clip=st.booleans(),
    cpus=st.integers(1, 3),
    n=st.integers(10, 12),  # 11 and 12 give folds of unequal size
    t_len=st.integers(27, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_parallel_sweep_is_bit_identical_to_serial(kind, mode, stride, cv_stride, clip,
                                                   cpus, n, t_len, seed):
    # short series and long blocks give fewer blocks than workers; the serial
    # sweep scores runs of up to 8 or 16 blocks, the workers mostly one block each
    series = _series(seed=seed, t_len=t_len, step_at=t_len // 2)
    cfg = DetectorConfig(n=n, k=3, estimator_kind=kind, score_mode=mode, stride=stride,
                         cv_stride=cv_stride, clip_negative=clip, grid=CvGrid(seed=seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "_worker_count", lambda blocks: 1)
        serial = change_scores(series, cfg)
    with pytest.MonkeyPatch.context() as mp:
        _with_cpus(mp, cpus)
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


def test_earlier_final_fit_error_wins_over_a_later_cv_error_in_one_run(monkeypatch):
    # the serial sweep's run of blocks t=217..224 holds t=222, whose CV fails
    # on the flat stretch, and t=219, whose final fits are made to fail; a
    # sweep one block at a time reaches t=219's final fits first
    monkeypatch.setattr(detector, "_worker_count", lambda tasks: 1)
    chunk_terms = detector._chunk_terms

    def failing_at_219(windows, chunks, config, alpha):
        if any(chunk.start == 219 for chunk, _ in chunks):
            raise NumericError("final fit failed at t=219")
        return chunk_terms(windows, chunks, config, alpha)

    monkeypatch.setattr(detector, "_chunk_terms", failing_at_219)
    with pytest.raises(NumericError, match="t=219"):
        change_scores(_flat_stretch_series(), DetectorConfig(stride=1, cv_stride=1))

