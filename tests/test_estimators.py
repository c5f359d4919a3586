import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcpd import detector, estimators
from relcpd.embedding import TimeSeries, build_windows, segment_pair
from relcpd.errors import DegenerateBandwidthError, DimensionMismatchError, ParameterError
from relcpd.kernel import DesignMatrices, design_matrices, median_distance
from relcpd.model_selection import CvGrid, cv_select
from relcpd.seeding import mix_seed
from relcpd.synthgen import SynthSpec, generate
from relcpd.estimators import (
    LOG_FLOOR,
    RatioModel,
    _simplex_project,
    _solve_spd,
    gram_system,
    kl_estimate,
    kliep_ascent,
    kliep_fit,
    pe_alpha_estimate,
    rulsif_fit,
    ulsif_fit,
)

from oracles import (
    breakpoint_project_loop,
    gaussian_kl,
    gaussian_pdf,
    kliep_em_objective,
    kliep_fit_loop,
    kliep_gradient,
    kliep_objective,
    true_pe_alpha,
)


def _design(rng, n=20, dim=3, shift=0.5, sigma=None):
    num = rng.normal(0.0, 1.0, (n, dim))
    den = rng.normal(shift, 1.0, (n, dim))
    if sigma is None:
        sigma = median_distance(np.vstack([num, den]))
    return design_matrices(num, den, num, sigma), num, den


def _unit_design(value=1.0):
    k = np.array([[value]])
    return DesignMatrices(k_num=k, k_den=k, centers=np.zeros((1, 1)), sigma=1.0)


class TestRatioEval:
    def test_zero_weights(self):
        model = RatioModel(np.zeros((3, 2)), np.zeros(3), sigma=1.0, alpha=0.0)
        assert model.evaluate(np.array([4.0, -1.0]))[0] == 0.0

    def test_single_center_at_point(self):
        model = RatioModel(np.array([[1.0, 2.0]]), np.array([2.0]), 1.0, 0.0)
        assert model.evaluate(np.array([1.0, 2.0]))[0] == 2.0

    def test_two_centers_at_sigma_distance(self):
        sigma = 1.5
        centers = np.array([[sigma, 0.0], [-sigma, 0.0]])
        model = RatioModel(centers, np.ones(2), sigma, 0.0)
        expected = 2.0 * math.exp(-0.5)
        assert model.evaluate(np.zeros(2))[0] == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self):
        model = RatioModel(np.zeros((2, 3)), np.zeros(2), 1.0, 0.0)
        with pytest.raises(DimensionMismatchError):
            model.evaluate(np.zeros(2))


class TestUlsif:
    def test_unit_system(self):
        model, diag = ulsif_fit(_unit_design(), lam=0.0)
        assert model.theta.tolist() == [1.0]
        assert diag.iterations == 0 and diag.converged

    def test_unit_system_regularized(self):
        model, _ = ulsif_fit(_unit_design(), lam=1.0)
        # (1 + 1) theta = 1, up to Cholesky round-off
        assert model.theta[0] == pytest.approx(0.5, rel=1e-14)

    def test_deterministic(self):
        d, _, _ = _design(np.random.default_rng(0))
        t1 = ulsif_fit(d, 0.1)[0].theta
        t2 = ulsif_fit(d, 0.1)[0].theta
        np.testing.assert_array_equal(t1, t2)

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        for lam in (1e-3, 1e-1, 1e1):
            d, _, _ = _design(rng, n=50, dim=5)
            model, _ = ulsif_fit(d, lam)
            h_mat = d.k_den.T @ d.k_den / d.k_den.shape[0]
            h_vec = d.k_num.mean(axis=0)
            residual = (h_mat + lam * np.eye(50)) @ model.theta - h_vec
            bound = 1e-8 * max(1.0, np.abs(h_vec).max())
            assert np.abs(residual).max() <= bound

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            ulsif_fit(_unit_design(), lam=-0.5)


class TestRulsif:
    def test_alpha_zero_reduction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d, _, _ = _design(rng)
            tu = ulsif_fit(d, 0.05)[0].theta
            tr = rulsif_fit(d, 0.05, alpha=0.0)[0].theta
            rel = np.abs(tr - tu).max() / max(np.abs(tu).max(), 1e-300)
            assert rel <= 1e-12

    def test_unit_system_mixed(self):
        model, _ = rulsif_fit(_unit_design(), lam=0.0, alpha=0.5)
        assert model.theta.tolist() == [1.0]  # H = 0.5 + 0.5 = 1

    def test_gram_matrix_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        d, _, _ = _design(rng, n=8)
        alpha = 0.3
        n = 8
        expected = np.zeros((n, n))
        for l in range(n):
            for lp in range(n):
                expected[l, lp] = (
                    alpha * np.mean(d.k_num[:, l] * d.k_num[:, lp])
                    + (1 - alpha) * np.mean(d.k_den[:, l] * d.k_den[:, lp])
                )
        h_mat = alpha * (d.k_num.T @ d.k_num) / n + (1 - alpha) * (
            d.k_den.T @ d.k_den
        ) / n
        np.testing.assert_allclose(h_mat, expected, rtol=1e-12)
        # and the fit built on it solves the system
        model, _ = rulsif_fit(d, 0.01, alpha)
        h_vec = d.k_num.mean(axis=0)
        residual = (expected + 0.01 * np.eye(n)) @ model.theta - h_vec
        assert np.abs(residual).max() <= 1e-8

    def test_alpha_validation(self):
        d = _unit_design()
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                rulsif_fit(d, 0.1, alpha=bad)


class TestKliep:
    def test_fully_constrained_unit(self):
        model, diag = kliep_fit(_unit_design())
        assert model.theta.tolist() == [1.0]
        assert diag.objective_value == 0.0
        assert diag.converged

    def test_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            d, _, _ = _design(rng, n=30, dim=4)
            model, _ = kliep_fit(d)
            assert np.all(model.theta >= 0.0)
            b = d.k_den.mean(axis=0)
            assert abs(b @ model.theta - 1.0) <= 1e-6

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(5)
        d, _, _ = _design(rng, n=40, dim=6, shift=1.0)
        trace = []
        kliep_fit(d, trace=trace)
        assert len(trace) >= 2
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_same_set_ratio_near_one(self):
        # the fitted ratio of a set against itself hovers around 1
        worst_q90 = 0.0
        worst_max = 0.0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(50, 10))
            d = design_matrices(x, x, x, median_distance(x))
            model, _ = kliep_fit(d)
            dev = np.abs(d.k_den @ model.theta - 1.0)
            worst_q90 = max(worst_q90, float(np.quantile(dev, 0.9)))
            worst_max = max(worst_max, float(dev.max()))
        assert worst_q90 <= 0.15
        assert worst_max <= 0.30

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        d, _, _ = _design(rng, n=15, dim=3)
        b = d.k_den.mean(axis=0)
        for _ in range(4):
            theta = np.abs(rng.normal(size=15))
            theta /= b @ theta
            grad = kliep_gradient(d, theta)
            fd = np.zeros(15)
            h = 1e-5
            for i in range(15):
                up = theta.copy()
                up[i] += h
                dn = theta.copy()
                dn[i] -= h
                fd[i] = (kliep_objective(d, up) - kliep_objective(d, dn)) / (2 * h)
            rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
            assert rel <= 1e-4


def _band_views(n=20, stride=3):
    """(k_num, k_den) stacks of both directions of a detector chunk: strided
    views into one band kernel each."""
    series = generate(SynthSpec(dataset_id=2, length=400, seed=4))
    sigma = median_distance(build_windows(series, 5).vectors[: 2 * n])
    selections = {0: (sigma, 0.1), 1: (1.3 * sigma, 0.1)}
    config = detector.DetectorConfig(n=n, k=5)
    return detector._chunk_kernels(series.values, range(1, 40, stride), selections, config)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["contiguous", "fold gathers", "band views"])
def test_gram_matrix_is_exactly_symmetric(kind, alpha):
    # _solve_spd solves on the transpose of H + lam I, so H must equal its
    # transpose bit for bit
    rng = np.random.default_rng(7)
    if kind == "contiguous":
        stacks = [(rng.random((4, 30, 25)), rng.random((4, 30, 25)))]
    elif kind == "fold gathers":  # (sigma, fold, training sample, center)
        k_num, k_den = rng.random((2, 5, 53, 53))
        folds = np.stack([rng.permutation(53)[:42] for _ in range(5)])
        stacks = [(k_num[:, folds], k_den[:, folds]), (k_num[0, folds[0]], k_den[0, folds[0]])]
    else:
        stacks = _band_views()
    for k_num, k_den in stacks:
        h_mat, _ = gram_system(k_num, k_den, alpha)
        np.testing.assert_array_equal(h_mat, h_mat.swapaxes(-1, -2))


def test_solve_leaves_its_arguments_unmodified_and_retries_one_system_alone(monkeypatch):
    rng = np.random.default_rng(5)
    k_den = rng.random((4, 30, 12))
    h_mat = k_den.swapaxes(-1, -2) @ k_den / 30
    h_mat[1] = 1.0  # rank one: its second pivot is exactly 0 at lam = 1e-300
    lam = np.array([0.1, 1e-300, 1.0, 1e-300])
    rhs = rng.random(12)  # broadcast to every system
    arguments = [h_mat.copy(), lam.copy(), rhs.copy()]
    posv, calls = estimators.dposv, []

    def counted_posv(a, b, **kwargs):
        calls.append(a.copy())
        return posv(a, b, **kwargs)

    monkeypatch.setattr(estimators, "dposv", counted_posv)
    theta = _solve_spd(h_mat, lam, rhs)
    assert len(calls) == 5  # one solve per system, plus the retry of system 1
    # the retry is rebuilt from its own H, then lam, then 1e-10 trace(H) / 12
    retried = h_mat[1].copy()
    retried[np.diag_indices(12)] += 1e-300
    np.testing.assert_array_equal(calls[1], retried)
    retried[np.diag_indices(12)] += 1e-10
    np.testing.assert_array_equal(calls[2], retried)
    for i in range(4):
        np.testing.assert_array_equal(theta[i], _solve_spd(h_mat[i], lam[i], rhs))
    for got, before in zip((h_mat, lam, rhs), arguments):
        np.testing.assert_array_equal(got, before)


def _kliep_problems(seed, count, samples=40, centers=50, dim=4):
    """Numerator and denominator kernels of ``count`` KLIEP problems shaped
    like one CV fold: ``samples`` training rows against ``centers`` centers,
    shifted Gaussian sets and bandwidths spread around the median distance."""
    rng = np.random.default_rng(seed)
    k_nums, k_dens = [], []
    for p in range(count):
        num = rng.normal(0.0, 1.0, (centers, dim))
        den = rng.normal(rng.uniform(-1, 1), rng.uniform(0.7, 1.5), (centers, dim))
        sigma = (0.6 + 0.2 * (p % 5)) * median_distance(np.vstack([num, den]))
        d = design_matrices(num[:samples], den[:samples], num, sigma)
        k_nums.append(d.k_num)
        k_dens.append(d.k_den)
    return k_nums, k_dens


def _assert_ascent_matches_loop(k_nums, k_dens, max_iters=500):
    """Runs one lockstep stream and checks every problem against the loop
    oracle; returns the oracle's (theta, objective, iterations, converged)."""
    traces = [[] for _ in k_nums]
    theta, objective, iterations, converged, _ = kliep_ascent(
        zip(k_nums, [k.mean(axis=0) for k in k_dens]),
        len(k_nums),
        max_iters=max_iters,
        traces=traces,
    )
    wants = []
    for p, (k_num, k_den) in enumerate(zip(k_nums, k_dens)):
        trace = []
        want = kliep_fit_loop(k_num, k_den, max_iters=max_iters, trace=trace)
        assert (iterations[p], converged[p]) == want[2:]
        np.testing.assert_allclose(theta[p], want[0], rtol=0, atol=1e-10)
        assert abs(objective[p] - want[1]) <= 1e-12
        assert len(traces[p]) == len(trace)
        np.testing.assert_allclose(traces[p], trace, rtol=0, atol=1e-12)
        wants.append(want)
    return wants


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 9),
       stop=st.sampled_from(((1e-3, 4), (1e-3, 30), (1e-3, 500),
                             (-np.inf, 4), (-np.inf, 30))),
       flat=st.booleans(), certified=st.booleans(),
       tiny=st.lists(st.floats(1e-14, 1e-4), max_size=3), data=st.data())
def test_ascent_result_does_not_depend_on_the_stack(
    seed, count, stop, flat, certified, tiny, data
):
    # a problem's (theta, objective, iterations, converged, gap) is
    # bit-identical whether it is fitted alone, in a stream of other problems
    # or in a permuted stream, so callers may order their streams as they
    # like; problems leave the buffer out of order (certified at the start,
    # or, at tolerance -inf, when no step passes), and the buffer is
    # compacted around them
    tolerance, max_iters = stop
    k_nums, k_dens = _kliep_problems(seed, count, samples=20, centers=25, dim=3)
    for p, b_l in enumerate(tiny):  # a center far from every denominator sample
        k_dens[p % count][:, p] = b_l
    if flat:  # no step ascends from the start of this problem
        k_nums.append(np.ones((20, 25)))
        k_dens.append(np.ones((20, 25)))
    if certified:  # every kernel row is b: a gradient of 1 everywhere, gap 0
        k_nums.append(np.tile(k_dens[0].mean(axis=0), (20, 1)))
        k_dens.append(k_dens[0])
    k_num = np.stack(k_nums)
    b_vec = np.stack([k.mean(axis=0) for k in k_dens])
    order = np.array(data.draw(st.permutations(range(len(k_num)))))

    def ascent(rows):
        return kliep_ascent(zip(k_num[rows], b_vec[rows]), len(rows), tolerance, max_iters)

    stacked, permuted = ascent(np.arange(len(k_num))), ascent(order)
    for p in range(len(k_num)):
        at = int(np.flatnonzero(order == p)[0])
        for in_stack, in_permuted, alone in zip(stacked, permuted, ascent([p])):
            np.testing.assert_array_equal(in_stack[p], alone[0])
            np.testing.assert_array_equal(in_permuted[at], alone[0])


def _mixed_stream(count):
    """(k_num, b) of ``count`` small KLIEP problems: by index mod 4, drawn
    ones, ones certified at their start (every kernel row is b, so the
    gradient is 1 everywhere), ones with two tiny b_l, and flat ones (every
    feasible point has the same objective)."""
    k_nums, k_dens = _kliep_problems(14, count, samples=20, centers=25, dim=3)
    for p in range(count):
        if p % 4 == 1:
            k_nums[p] = np.tile(k_dens[p].mean(axis=0), (20, 1))
        elif p % 4 == 2:
            k_dens[p][:, [3, 11]] = (1e-9, 1e-13)
        elif p % 4 == 3:
            k_nums[p], k_dens[p] = np.ones((20, 25)), np.ones((20, 25))
    return k_nums, [k.mean(axis=0) for k in k_dens]


@pytest.mark.parametrize("count", [1, 6, 7, 8, 20, 50])
def test_stream_fits_equal_one_problem_fits(monkeypatch, count):
    # with a budget of seven buffer rows of 20 samples at 25 centers, a
    # buffer of at most 7 rows, refilled as problems finish,
    # each problem of a stream, in stream order or permuted, gets the
    # (theta, objective, iterations, converged, gap) and the trace of its
    # one-problem fit, bit for bit: converged, certified at the start, cut
    # by max_iters, and, at tolerance -inf, ended where no step passes; the
    # caller's arrays stay as they were
    monkeypatch.setattr(estimators, "BUDGET", 7 * 8 * (20 + estimators._ROW_VECTORS) * 25)
    k_nums, b_vecs = _mixed_stream(count)
    k_before, b_before = [k.copy() for k in k_nums], [b.copy() for b in b_vecs]
    try_steps, buffers = estimators._try_steps, []

    def recording_try_steps(stack, *args):
        buffers.append(len(stack.base))  # the rows of the buffer stack is a view of
        return try_steps(stack, *args)

    monkeypatch.setattr(estimators, "_try_steps", recording_try_steps)
    permuted = np.random.default_rng(count).permutation(count)
    for tolerance, max_iters in ((1e-3, 500), (1e-3, 6), (-np.inf, 30)):
        alone = []
        for k_num, b_vec in zip(k_nums, b_vecs):
            trace = []
            fit = kliep_ascent([(k_num, b_vec)], 1, tolerance, max_iters, [trace])
            alone.append(([part[0] for part in fit], trace))
        for order in (np.arange(count), permuted):
            traces = [[] for _ in range(count)]
            buffers.clear()
            got = kliep_ascent(((k_nums[p], b_vecs[p]) for p in order), count,
                               tolerance, max_iters, traces)
            assert set(buffers) == {min(7, count)}
            for at, p in enumerate(order):
                for part, want in zip(got, alone[p][0]):
                    np.testing.assert_array_equal(part[at], want)
                assert traces[at] == alone[p][1]
        exits = set(zip(got[2].tolist(), got[3].tolist()))
        if tolerance == -np.inf:  # no step passes before the cap
            assert any(it < max_iters and not c for it, c in exits)
        elif count > 1:
            assert (1, True) in exits  # certified at the start
        if max_iters == 6:
            assert (6, False) in exits  # cut by max_iters
    for array, before in zip(k_nums + b_vecs, k_before + b_before):
        np.testing.assert_array_equal(array, before)


def test_stream_count_must_match_the_stream():
    # ``count`` sizes the buffer and the results, so a stream that yields
    # fewer or more problems than it says is an error, as is an empty one
    k_nums, b_vecs = _mixed_stream(3)
    with pytest.raises(ParameterError, match="of 4 problems ended after 3"):
        kliep_ascent(zip(k_nums, b_vecs), 4)
    with pytest.raises(ParameterError, match="of 2 problems yielded more"):
        kliep_ascent(zip(k_nums, b_vecs), 2)
    with pytest.raises(ParameterError, match="at least one problem"):
        kliep_ascent([], 0)


class TestKliepAscent:
    def test_mixed_stack_matches_loop(self):
        k_nums, k_dens = _kliep_problems(11, 12)
        # a flat problem: every feasible theta has the same objective, so
        # no step ascends from the start
        k_nums.append(np.ones((40, 50)))
        k_dens.append(np.ones((40, 50)))
        wants = _assert_ascent_matches_loop(k_nums, k_dens)
        iterations = [want[2] for want in wants]
        assert len(set(iterations[:-1])) >= 4  # problems leave the stack apart
        assert iterations[-1] == 1 and wants[-1][3]
        assert np.array_equal(wants[-1][0], np.full(50, 1.0 / 50.0))  # never moved

    def test_max_iters_cuts_slow_problems(self):
        k_nums, k_dens = _kliep_problems(12, 10)
        wants = _assert_ascent_matches_loop(k_nums, k_dens, max_iters=11)
        assert {want[3] for want in wants} == {True, False}
        assert all(want[2] == 11 for want in wants if not want[3])

    def test_single_problem_fit_matches_loop(self):
        (k_num,), (k_den,) = _kliep_problems(13, 1)
        trace, want_trace = [], []
        want = kliep_fit_loop(k_num, k_den, trace=want_trace)
        design = DesignMatrices(
            k_num=k_num, k_den=k_den, centers=np.zeros((50, 4)), sigma=1.0
        )
        model, diag = kliep_fit(design, trace=trace)
        assert diag.objective_value == pytest.approx(want[1], rel=0, abs=1e-12)
        assert (diag.iterations, diag.converged) == want[2:]
        np.testing.assert_allclose(model.theta, want[0], rtol=0, atol=1e-10)
        assert len(trace) == len(want_trace)
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)

    def test_narrow_bandwidth_fit_reaches_the_optimum(self):
        # an ascent in theta with the projection onto {theta >= 0,
        # b.theta = 1} stalls on this problem: 1.03499 after 500 iterations
        _, diag = kliep_fit(_narrow_bandwidth_design())
        assert diag.objective_value == pytest.approx(1.32266, abs=0.01)

    def test_fit_leaves_the_design_unchanged(self):
        # the ascent scales its stack in place; kliep_fit hands it a copy
        d, _, _ = _design(np.random.default_rng(7), n=30, dim=4)
        k_num, k_den = d.k_num.copy(), d.k_den.copy()
        kliep_fit(d)
        assert np.array_equal(d.k_num, k_num) and np.array_equal(d.k_den, k_den)

    def test_gap_bounds_the_distance_to_the_em_optimum_on_the_narrow_problem(self):
        design = _narrow_bandwidth_design()
        _, diag = kliep_fit(design)
        f_em = kliep_em_objective(design.k_num, design.k_den, iterations=20000)
        assert f_em == pytest.approx(1.32266, abs=1e-4)
        assert diag.gap >= -1e-12  # both up to rounding
        assert diag.gap >= f_em - diag.objective_value - 1e-12

    def test_least_squares_fits_report_no_gap(self):
        d, _, _ = _design(np.random.default_rng(8))
        assert rulsif_fit(d, 0.1, 0.1)[1].gap == 0.0
        assert ulsif_fit(d, 0.1)[1].gap == 0.0


def _narrow_bandwidth_design():
    """kliep-cv benchmark seed 4206, series 2 (generator 2, copy 0): the
    backward final fit at t=1821, with sigma = 0.6 x the median distance of
    the t=1801 pair, the point its CV block selected.  An EM ascent in
    mixture weights reaches 1.32266."""
    series = generate(SynthSpec(dataset_id=2, length=2000, seed=mix_seed(4206, 1, 2, 0)))
    windows = build_windows(series, 10)
    cv_pair = segment_pair(windows, 1801, 50)
    sigma = 0.6 * median_distance(np.vstack([cv_pair.reference, cv_pair.test]))
    pair = segment_pair(windows, 1821, 50)
    return design_matrices(pair.test, pair.reference, pair.test, sigma)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_iters=st.sampled_from((4, 30, 500)))
def test_gap_bounds_the_distance_to_the_em_optimum(seed, max_iters):
    # the certificate holds at any feasible point, so also for fits cut
    # short by the iteration cap
    (k_num,), (k_den,) = _kliep_problems(seed, 1, samples=20, centers=25, dim=3)
    design = DesignMatrices(k_num=k_num, k_den=k_den, centers=np.zeros((25, 3)), sigma=1.0)
    _, diag = kliep_fit(design, max_iters=max_iters)
    f_em = kliep_em_objective(k_num, k_den, iterations=2000)
    assert diag.gap >= -1e-12  # both up to rounding
    assert diag.gap >= f_em - diag.objective_value - 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6),
       tiny=st.lists(st.floats(1e-14, 1e-4), max_size=3),
       max_iters=st.sampled_from((3, 30, 500)))
def test_converged_fits_are_certified(seed, count, tiny, max_iters):
    # a stream of drawn problems, some with a center far from every
    # denominator sample, so that its mean denominator kernel b_l is tiny
    k_nums, k_dens = _kliep_problems(seed, count, samples=20, centers=25, dim=3)
    for p, b_l in enumerate(tiny):
        k_dens[p % count][:, p] = b_l
    b_vec = np.stack([k.mean(axis=0) for k in k_dens])
    tolerance = 1e-3
    _, objective, iterations, converged, gap = kliep_ascent(
        zip(k_nums, b_vec), count, tolerance, max_iters)
    for p, (k_num, k_den) in enumerate(zip(k_nums, k_dens)):
        design = DesignMatrices(k_num=k_num, k_den=k_den, centers=np.zeros((25, 3)),
                                sigma=1.0)
        _, diag = kliep_fit(design, tolerance, max_iters)
        assert (diag.objective_value, diag.iterations, diag.converged, diag.gap) == (
            objective[p], iterations[p], converged[p], gap[p])
        if diag.converged:  # both up to rounding
            assert -1e-12 <= diag.gap <= tolerance + 1e-12
        f_em = kliep_em_objective(k_num, k_den, iterations=2000)
        assert f_em - diag.objective_value <= diag.gap + 1e-12
        # never below the uniform theta, the start of EM
        f_start = kliep_em_objective(k_num, k_den, iterations=0)
        assert diag.objective_value >= f_start - 1e-12


@pytest.mark.parametrize("tolerance, max_iters", [(1e-3, 500), (1e-3, 2), (-np.inf, 30)])
def test_returned_gap_is_the_gap_at_theta(tolerance, max_iters):
    # the ascent's gap, taken where a problem leaves the stack, is log max_l
    # (grad_theta f)_l / b_l at the returned theta: for converged, flat (at
    # tolerance -inf, no step passes) and max_iters-cut problems; before the
    # cap, every iteration but the last accepted a step
    k_nums, k_dens = _kliep_problems(15, 6, samples=20, centers=25, dim=3)
    k_nums.append(np.ones((20, 25)))
    k_dens.append(np.ones((20, 25)))
    b_vec = np.stack([k.mean(axis=0) for k in k_dens])
    traces = [[] for _ in k_nums]
    theta, _, iterations, converged, gap = kliep_ascent(
        zip(k_nums, b_vec), len(k_nums), tolerance, max_iters, traces)
    for p, (k_num, k_den) in enumerate(zip(k_nums, k_dens)):
        design = DesignMatrices(k_num=k_num, k_den=k_den, centers=np.zeros((25, 3)),
                                sigma=1.0)
        want = np.log(np.max(kliep_gradient(design, theta[p]) / b_vec[p]))
        assert abs(gap[p] - want) <= 1e-12
        if iterations[p] < max_iters:  # the start, then one step per iteration
            assert len(traces[p]) == iterations[p]
    if max_iters == 500:
        assert converged.all()
    elif max_iters == 2:
        assert not converged[:-1].any() and set(iterations[:-1]) == {2}
    else:  # the flat problem ends where no step passes, before the cap
        assert iterations[-1] < max_iters and not converged.any()


def test_fit_cut_by_max_iters_is_not_converged():
    (k_num,), (k_den,) = _kliep_problems(12, 1)
    design = DesignMatrices(k_num=k_num, k_den=k_den, centers=np.zeros((50, 4)), sigma=1.0)
    assert kliep_fit(design)[1].converged
    _, diag = kliep_fit(design, max_iters=2)
    assert (diag.iterations, diag.converged) == (2, False)
    assert diag.gap > 1e-3


@pytest.mark.parametrize("spike, b_min", [(20.0, 1e-12), (70.0, 1e-148)])
def test_spike_fit_reaches_the_em_optimum(spike, b_min):
    # a center whose mean denominator kernel is 5e-13 (2e-149 at 70): no
    # halving of a first step of 1.0 passes the Armijo test at 20 (the fit
    # ends at -0.353), and from w = b / sum(b) none of 1 / max grad passes at
    # 70 (it ends at -0.425); from uniform weights both fits get there
    y = np.random.default_rng(0).normal(size=600)
    y[300] = spike
    windows = build_windows(TimeSeries(y), 10)
    cv_pair = segment_pair(windows, 276, 50)
    sigma = 0.6 * median_distance(np.vstack([cv_pair.reference, cv_pair.test]))
    assert sigma == pytest.approx(2.619, abs=1e-3)
    pair = segment_pair(windows, 281, 50)
    design = design_matrices(pair.reference, pair.test, pair.reference, sigma)
    assert design.k_den.mean(axis=0).min() < b_min
    _, diag = kliep_fit(design)
    f_em = kliep_em_objective(design.k_num, design.k_den, iterations=2000)
    assert diag.converged
    assert f_em - 1e-3 <= diag.objective_value <= f_em + 1e-12


@pytest.mark.parametrize("b_l", [0.0, 1e-310])
def test_zero_mean_denominator_kernel_raises(b_l):
    # with b_l = 0, theta_l is free under b.theta = 1 and the objective is
    # unbounded; a subnormal b_l would overflow k_num / b
    (k_num,), (k_den,) = _kliep_problems(14, 1)
    b_vec = k_den.mean(axis=0)
    b_vec[3] = b_l
    with pytest.raises(DegenerateBandwidthError, match="underflows to 0"):
        kliep_ascent([(k_num, b_vec)], 1)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=60),
       scale=st.sampled_from((1e-3, 1.0, 1e3)))
def test_simplex_projection_is_the_kkt_point_on_the_simplex(values, scale):
    v = np.array(values) * scale
    x = _simplex_project(v[None])[0]
    # a row's projection does not depend on the other rows of a stack
    np.testing.assert_array_equal(_simplex_project(np.stack([-v, v]))[1], x)
    assert abs(x.sum() - 1.0) <= 1e-12
    assert np.all(x >= 0.0)
    # KKT: x = v - tau where x > 0, and v <= tau where x = 0
    tol = 1e-12 * max(1.0, float(np.abs(v).max()))
    positive = x > 0.0
    tau = float(np.mean(v[positive] - x[positive]))
    np.testing.assert_allclose(x[positive], v[positive] - tau, rtol=0, atol=tol)
    assert np.all(v[~positive] <= tau + tol)
    # the projection onto {x >= 0, b.x = 1} with b = 1
    np.testing.assert_allclose(x, breakpoint_project_loop(v, np.ones_like(v)),
                               rtol=0, atol=1e-12)


class TestDivergenceEstimates:
    def test_pe_of_constant_one_model(self):
        center = np.array([[0.5, -0.5]])
        model = RatioModel(center, np.array([1.0]), 1.0, alpha=0.3)
        # evaluating exactly at the center makes g = 1 everywhere it is asked
        assert pe_alpha_estimate(model, center, center) == pytest.approx(0.0)

    def test_pe_of_zero_model(self):
        center = np.array([[0.0]])
        model = RatioModel(center, np.array([0.0]), 1.0, alpha=0.2)
        assert pe_alpha_estimate(model, center, center) == -0.5

    def test_pe_sample_count_mismatch(self):
        center = np.array([[0.0]])
        model = RatioModel(center, np.array([1.0]), 1.0, alpha=0.0)
        with pytest.raises(ParameterError):
            pe_alpha_estimate(model, np.zeros((2, 1)), np.zeros((1, 1)))

    def test_pe_tracks_separation(self):
        # single-seed sanity: the estimate grows with the true divergence and
        # stays on its scale; the quadrature-oracle agreement at the full
        # 20-seed protocol lives in the acceptance suite
        alpha = 0.1
        rng = np.random.default_rng(1234)
        estimates = {}
        for shift in (0.0, 0.5, 2.0):
            num = rng.normal(0.0, 1.0, (200, 1))
            den = rng.normal(shift, 1.0, (200, 1))
            sel = cv_select(num, den, CvGrid(seed=17), "rulsif", alpha)
            d = design_matrices(num, den, num, sel.best_sigma)
            model, _ = rulsif_fit(d, sel.best_lambda, alpha)
            estimates[shift] = pe_alpha_estimate(model, num, den, design=d)
        assert abs(estimates[0.0]) < 0.1
        assert estimates[0.0] < estimates[0.5] < estimates[2.0]
        p = lambda y: gaussian_pdf(y, 0.0, 1.0)
        q = lambda y: gaussian_pdf(y, 2.0, 1.0)
        truth_far = true_pe_alpha(p, q, alpha)
        assert 0.3 * truth_far <= estimates[2.0] <= 2.0 * truth_far

    def test_kl_of_constant_models(self):
        center = np.array([[1.0]])
        one = RatioModel(center, np.array([1.0]), 1.0, 0.0)
        assert kl_estimate(one, center) == 0.0
        e_model = RatioModel(center, np.array([math.e]), 1.0, 0.0)
        assert kl_estimate(e_model, center) == pytest.approx(1.0, rel=1e-15)

    def test_kl_floor_prevents_inf(self):
        center = np.array([[0.0]])
        model = RatioModel(center, np.array([0.0]), 1.0, 0.0)
        assert kl_estimate(model, center) == pytest.approx(math.log(LOG_FLOOR))

    def test_kl_against_closed_form(self):
        truth = gaussian_kl(0.0, 1.0)  # 0.5 for unit-variance Gaussians
        estimates = []
        for seed in range(7):
            rng = np.random.default_rng(200 + seed)
            num = rng.normal(0.0, 1.0, (200, 1))
            den = rng.normal(1.0, 1.0, (200, 1))
            sel = cv_select(num, den, CvGrid(seed=seed), "kliep")
            d = design_matrices(num, den, num, sel.best_sigma)
            model, _ = kliep_fit(d)
            estimates.append(kl_estimate(model, num, design=d))
        median = float(np.median(estimates))
        assert abs(median - truth) <= 0.40 * truth


def test_null_pe_self_consistency():
    # a sample set against itself stays within [-0.1, 0.1]
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        x = rng.normal(size=(50, 2))
        d = design_matrices(x, x, x, median_distance(x))
        model, _ = rulsif_fit(d, 0.1, 0.0)
        pe = pe_alpha_estimate(model, x, x, design=d)
        assert -0.1 <= pe <= 0.1
