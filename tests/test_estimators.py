import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcpd.embedding import build_windows, segment_pair
from relcpd.errors import DimensionMismatchError, ParameterError
from relcpd.kernel import DesignMatrices, design_matrices, median_distance
from relcpd.model_selection import CvGrid, cv_select
from relcpd.seeding import mix_seed
from relcpd.synthgen import SynthSpec, generate
from relcpd.estimators import (
    LOG_FLOOR,
    RatioModel,
    kl_estimate,
    kliep_ascent,
    kliep_fit,
    kliep_gradient,
    kliep_objective,
    pe_alpha_estimate,
    rulsif_fit,
    ulsif_fit,
)

from oracles import gaussian_pdf, gaussian_kl, kliep_fit_loop, true_pe_alpha


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
    """Runs one lockstep stack and checks every problem against the loop
    oracle; returns the oracle's (theta, objective, iterations, converged)."""
    traces = [[] for _ in k_nums]
    theta, objective, iterations, converged = kliep_ascent(
        np.stack(k_nums),
        np.stack([k.mean(axis=0) for k in k_dens]),
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
       max_iters=st.sampled_from((4, 30, 500)), flat=st.booleans(), data=st.data())
def test_ascent_result_does_not_depend_on_the_stack(seed, count, max_iters, flat, data):
    # a problem's (theta, objective, iterations, converged) is bit-identical
    # whether it is fitted alone, in a stack of other problems or in a
    # permuted stack, so callers may pack problems into stacks as they like
    k_nums, k_dens = _kliep_problems(seed, count, samples=20, centers=25, dim=3)
    if flat:  # no step ascends from the start of this problem
        k_nums.append(np.ones((20, 25)))
        k_dens.append(np.ones((20, 25)))
    k_num = np.stack(k_nums)
    b_vec = np.stack([k.mean(axis=0) for k in k_dens])
    order = np.array(data.draw(st.permutations(range(len(k_num)))))

    def ascent(rows):  # indexing copies k_num, which the ascent overwrites
        return kliep_ascent(k_num[rows], b_vec[rows], max_iters=max_iters)

    stacked, permuted = ascent(np.arange(len(k_num))), ascent(order)
    for p in range(len(k_num)):
        at = int(np.flatnonzero(order == p)[0])
        for in_stack, in_permuted, alone in zip(stacked, permuted, ascent([p])):
            np.testing.assert_array_equal(in_stack[p], alone[0])
            np.testing.assert_array_equal(in_permuted[at], alone[0])


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

    @pytest.mark.xfail(strict=True, reason="the ascent stalls far below the optimum "
                       "on this narrow-bandwidth problem")
    def test_narrow_bandwidth_fit_reaches_the_optimum(self):
        # kliep-cv benchmark seed 4206, series 2 (generator 2, copy 0): the
        # backward final fit at t=1821, with sigma = 0.6 x the median distance
        # of the t=1801 pair, the point its CV block selected.  An EM ascent in
        # mixture weights reaches 1.32266; this ascent stops at its
        # 500-iteration cap at 1.03499.
        series = generate(SynthSpec(dataset_id=2, length=2000, seed=mix_seed(4206, 1, 2, 0)))
        windows = build_windows(series, 10)
        cv_pair = segment_pair(windows, 1801, 50)
        sigma = 0.6 * median_distance(np.vstack([cv_pair.reference, cv_pair.test]))
        pair = segment_pair(windows, 1821, 50)
        design = design_matrices(pair.test, pair.reference, pair.test, sigma)
        _, diag = kliep_fit(design)
        assert diag.objective_value == pytest.approx(1.32266, abs=0.01)


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
