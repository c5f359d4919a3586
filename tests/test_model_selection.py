import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcpd import estimators, kernel, model_selection, seeding
from relcpd.embedding import build_windows, segment_pair
from relcpd.errors import (
    DegenerateBandwidthError,
    DimensionMismatchError,
    ParameterError,
    SingularSystemError,
)
from relcpd.estimators import _solve_spd, gram_system, pe_terms
from relcpd.kernel import gaussian_kernels, median_distance
from relcpd.model_selection import (
    DEFAULT_LAMBDAS,
    DEFAULT_SIGMA_FACTORS,
    CvGrid,
    cv_problem,
    cv_select,
    cv_select_many,
)
from relcpd.synthgen import SynthSpec, generate

from oracles import kliep_cv_loop, least_squares_cv_loop, median_pairwise_distance


def _samples(seed=0, n=30, dim=2, shift=0.4):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, (n, dim)), rng.normal(shift, 1, (n, dim))


def test_grid_defaults_and_validation():
    grid = CvGrid()
    assert grid.sigma_factors == DEFAULT_SIGMA_FACTORS
    assert grid.lambdas == DEFAULT_LAMBDAS
    assert grid.folds == 5
    with pytest.raises(ParameterError):
        CvGrid(sigma_factors=())
    with pytest.raises(ParameterError):
        CvGrid(lambdas=(0.0, 0.1))
    with pytest.raises(ParameterError):
        CvGrid(sigma_factors=(-1.0,))
    with pytest.raises(ParameterError):
        CvGrid(folds=1)


def test_non_integral_folds_and_seed_rejected():
    # these used to run truncated, as (folds, seed) = (3, 1)
    for name, value in (("folds", 3.9), ("seed", 1.7), ("folds", 3.0)):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            CvGrid(**{name: value})
    grid = CvGrid(folds=np.int64(3), seed=np.uint64(2**63))
    assert (grid.folds, grid.seed) == (3, 2**63)
    assert type(grid.folds) is type(grid.seed) is int


def test_singleton_grid_returns_the_pair():
    num, den = _samples()
    grid = CvGrid(sigma_factors=(0.8,), lambdas=(0.01,), seed=5)
    res = cv_select(num, den, grid, "rulsif", 0.1)
    d_med = median_distance(np.vstack([num, den]))
    assert res.best_sigma == 0.8 * d_med
    assert res.best_lambda == 0.01
    assert len(res.score_table) == 1


def test_deterministic_result():
    num, den = _samples(seed=3)
    grid = CvGrid(seed=42)
    a = cv_select(num, den, grid, "ulsif")
    b = cv_select(num, den, grid, "ulsif")
    assert a.best_sigma == b.best_sigma
    assert a.best_lambda == b.best_lambda
    assert a.score_table == b.score_table


def test_table_exhaustive_and_from_grid():
    num, den = _samples(seed=1)
    grid = CvGrid(sigma_factors=(0.7, 1.0), lambdas=(0.01, 0.1, 1.0), seed=9)
    for kind, alpha in (("ulsif", 0.0), ("rulsif", 0.1), ("kliep", 0.0)):
        res = cv_select(num, den, grid, kind, alpha)
        assert len(res.score_table) == 2 * 3
        sigmas = {s for s, _ in res.score_table}
        lambdas = {l for _, l in res.score_table}
        assert res.best_sigma in sigmas
        assert res.best_lambda in lambdas
        best = res.score_table[(res.best_sigma, res.best_lambda)]
        values = res.score_table.values()
        if kind == "kliep":
            assert best == max(values)
        else:
            assert best == min(values)


def test_kliep_ignores_lambda_axis():
    num, den = _samples(seed=2)
    grid = CvGrid(sigma_factors=(0.8, 1.2), lambdas=(0.01, 10.0), seed=1)
    res = cv_select(num, den, grid, "kliep")
    for sigma in {s for s, _ in res.score_table}:
        column = {res.score_table[(sigma, l)] for l in (0.01, 10.0)}
        assert len(column) == 1  # repeated across the ignored axis


def test_null_data_prefers_strong_regularization():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        num = rng.normal(size=(50, 1))
        den = rng.normal(size=(50, 1))
        res = cv_select(num, den, CvGrid(seed=seed), "rulsif", 0.1)
        hits += res.best_lambda >= 1e-2
    assert hits >= 12  # at least 60% of 20 runs


def test_fold_count_validation():
    num, den = _samples(n=4)
    with pytest.raises(ParameterError):
        cv_select(num, den, CvGrid(folds=5), "ulsif")


def test_degenerate_bandwidth_propagates():
    x = np.ones((10, 2))
    with pytest.raises(DegenerateBandwidthError):
        cv_select(x, x, CvGrid(folds=2), "ulsif")


def test_unknown_estimator_kind():
    num, den = _samples()
    with pytest.raises(ParameterError):
        cv_select(num, den, CvGrid(), "bogus")


@pytest.mark.parametrize("kind", ["rulsif", "ulsif", "kliep"])
@pytest.mark.parametrize("alpha", [float("nan"), 1.0, -0.5, float("inf")])
def test_alpha_outside_unit_interval_rejected(kind, alpha):
    # rulsif_fit's rule, 0 <= alpha < 1, for every estimator kind, before any fit
    num, den = _samples()
    with pytest.raises(ParameterError, match="alpha"):
        cv_select(num, den, CvGrid(), kind, alpha)
    with pytest.raises(ParameterError, match="alpha"):
        model_selection.cv_select_many([cv_problem(num, den, 0)], CvGrid(), kind, alpha)


@pytest.mark.parametrize("kind", ["rulsif", "kliep"])
def test_sample_dimensions_must_match(kind):
    num, _ = _samples(dim=2)
    _, den = _samples(dim=3)
    with pytest.raises(DimensionMismatchError):
        cv_select(num, den, CvGrid(), kind, 0.1)
    with pytest.raises(DimensionMismatchError):  # in a later problem too
        model_selection.cv_select_many([cv_problem(num, num, 0), cv_problem(num, den, 1)],
                                       CvGrid(), kind)


@pytest.mark.parametrize("kind", ["rulsif", "kliep"])
def test_many_problems_equal_one_call_each(kind, monkeypatch):
    # 30 and 31 numerator samples give training folds of 24 rows against 30
    # and 31 centers: the KLIEP problems of one size but two shapes.  The
    # default budget's 1,040 units of 31 x 31 doubles (1,111 of 30 x 30), 10
    # and 1 cut the KLIEP problems, 5 sigma kernels each, into groups of all
    # 3, of 2 and 1, and of 1.
    grid = CvGrid(seed=4)
    problems = [(*_samples(seed=seed, n=n), seed) for seed, n in ((0, 30), (1, 31), (2, 30))]
    alone = [cv_select(num, den, dataclasses.replace(grid, seed=seed), kind, 0.1)
             for num, den, seed in problems]
    scores, groups = model_selection._kliep_cv_scores, []

    def recording_scores(cases):
        groups.append([len(k_num) for k_num, _, _ in cases])
        return scores(cases)

    monkeypatch.setattr(model_selection, "_kliep_cv_scores", recording_scores)
    for units, sizes in ((None, [3]), (10, [2, 1]), (1, [1, 1, 1])):
        if units is not None:
            monkeypatch.setattr(estimators, "BUDGET", units * 8 * 31 * 31)
        groups.clear()
        results = cv_select_many([cv_problem(*p) for p in problems], grid, kind, 0.1)
        for res, want in zip(results, alone, strict=True):
            assert (res.best_sigma, res.best_lambda) == (want.best_sigma, want.best_lambda)
            assert res.score_table == want.score_table
        # a full last group leaves an empty call after it
        assert [len(group) for group in groups if group] == (sizes if kind == "kliep" else [])
        most = max(estimators.budget_units(31), len(grid.sigma_factors))
        assert all(sum(group) <= most for group in groups)
    assert model_selection.cv_select_many([], grid, kind) == []


def test_tie_break_prefers_larger_sigma_then_lambda():
    # constant-score table (forced by degenerate criterion equality) is hard
    # to induce exactly; instead verify the rule on a synthetic table by
    # re-running selection logic through cv_select with a singleton sigma and
    # duplicated lambda values collapsing to one entry
    num, den = _samples(seed=8)
    grid = CvGrid(sigma_factors=(1.0, 1.0), lambdas=(0.1, 0.1), seed=0)
    res = cv_select(num, den, grid, "ulsif")
    assert len(res.score_table) == 1  # duplicates deduped at grid construction
    # kliep: scores repeat across lambda, so the tie-break must pick the
    # largest lambda
    grid2 = CvGrid(sigma_factors=(0.9,), lambdas=(0.01, 1.0, 10.0), seed=0)
    res2 = cv_select(num, den, grid2, "kliep")
    assert res2.best_lambda == 10.0


def _assert_matches_loop_oracle(num, den, grid, alpha):
    kind = "ulsif" if alpha == 0.0 else "rulsif"
    res = cv_select(num, den, grid, kind, alpha)
    table, best = least_squares_cv_loop(
        num, den, grid.sigma_factors, grid.lambdas, grid.folds, grid.seed, alpha
    )
    assert list(res.score_table) == list(table)
    assert (res.best_sigma, res.best_lambda) == best
    got = np.array(list(res.score_table.values()))
    want = np.array(list(table.values()))
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)
    return res


@pytest.mark.parametrize("dataset_id", [1, 2, 3, 4])
def test_least_squares_grid_matches_loop_oracle(dataset_id):
    series = generate(SynthSpec(dataset_id=dataset_id, length=1000, seed=31))
    windows = build_windows(series, 10)
    for t in (1, 356, 842):
        pair = segment_pair(windows, t, 50)
        for direction, (num, den) in enumerate(
            ((pair.reference, pair.test), (pair.test, pair.reference))
        ):
            grid = CvGrid(seed=seeding.mix_seed(17, t, direction))
            for alpha in (0.1, 0.0):
                _assert_matches_loop_oracle(num, den, grid, alpha)


def test_singular_fold_falls_back_to_jittered_solve():
    rng = np.random.default_rng(0)
    num = np.repeat(rng.normal(size=(10, 3)), 5, axis=0)  # duplicate centers
    den = rng.normal(size=(50, 3))
    grid = CvGrid(lambdas=(1e-300, 1.0), seed=4)
    res = _assert_matches_loop_oracle(num, den, grid, 0.1)
    assert res.best_lambda == 1.0


def test_failed_factorization_is_retried_with_jitter_for_that_cv_system_alone(monkeypatch):
    num, den = _samples(seed=6)
    grid = CvGrid(seed=11)
    expected = cv_select(num, den, grid, "rulsif", 0.1).score_table
    posv = estimators.dposv
    systems = []

    def failing_twenty_eighth_posv(a, b, **kwargs):
        systems.append(a.copy())
        factor, x, info = posv(a, b, **kwargs)
        return factor, x, 1 if len(systems) == 28 else info

    monkeypatch.setattr(estimators, "dposv", failing_twenty_eighth_posv)
    got = cv_select(num, den, grid, "rulsif", 0.1).score_table
    # one factorization per (sigma, fold, lambda), plus the one retry; the
    # twenty-eighth system is (sigma 1, lambda 2) of the first fold
    assert len(systems) == grid.folds * len(expected) + 1
    jitter = systems[28] - systems[27]
    np.testing.assert_array_equal(jitter, np.diag(np.diag(jitter)))
    width = len(num)
    own_trace = np.trace(systems[27]) - width * grid.lambdas[2]  # trace of its H
    np.testing.assert_allclose(np.diag(jitter), 1e-10 * own_trace / width, rtol=1e-3)
    moved = list(expected)[7]
    assert moved == (sorted({s for s, _ in expected})[1], grid.lambdas[2])
    assert got[moved] != expected[moved]
    assert got[moved] == pytest.approx(expected[moved], rel=1e-6)
    assert {k: v for k, v in got.items() if k != moved} == {
        k: v for k, v in expected.items() if k != moved
    }

    monkeypatch.setattr(estimators, "dposv", lambda a, b, **kwargs: (a, b, 1))
    with pytest.raises(SingularSystemError):
        cv_select(num, den, grid, "rulsif", 0.1)


def _per_fold_scores(num, den, grid, alpha):
    """The least-squares CV table as a loop over folds computes it: one
    ``gram_system`` and one ``_solve_spd`` call per fold, the fold criteria
    summed as they come."""
    d_med = median_distance(np.vstack([num, den]))
    sigmas = [f * d_med for f in grid.sigma_factors]
    rng = seeding.rng_from(grid.seed)
    num_folds = model_selection._fold_blocks(len(num), grid.folds, rng)
    folds = zip(num_folds, model_selection._fold_blocks(len(den), grid.folds, rng))
    k_num, k_den = gaussian_kernels(num, num, sigmas), gaussian_kernels(den, num, sigmas)
    scores = np.zeros((len(sigmas), len(grid.lambdas)))
    for (num_tr, num_ho), (den_tr, den_ho) in folds:
        h_mat, h_vec = gram_system(k_num[:, num_tr], k_den[:, den_tr], alpha)
        theta = _solve_spd(h_mat[:, None], grid.lambdas, h_vec[:, None])
        g_num = theta @ k_num[:, num_ho].swapaxes(-1, -2)
        g_den = theta @ k_den[:, den_ho].swapaxes(-1, -2)
        scores -= pe_terms(g_num, g_den, alpha) + 0.5
    scores /= grid.folds
    return scores


@pytest.mark.parametrize("alpha", [0.0, 0.1])
@pytest.mark.parametrize("n", [50, 52, 53])
def test_fold_stacked_cv_equals_the_per_fold_loop(monkeypatch, n, alpha):
    # 5 folds of 52 or 53 samples have unequal sizes (3 of one, 2 of the
    # other), so their systems are solved in one stack per size, or in
    # stacks of at most two folds' 25 (sigma, lambda) systems where the
    # budget holds 60 arrays of n x n doubles
    series = generate(SynthSpec(dataset_id=1, length=600, seed=n))
    windows = build_windows(series, 10)
    problems = []
    for t in (1, 151, 301):
        pair = segment_pair(windows, t, n)
        problems += [(pair.reference, pair.test, seeding.mix_seed(29, t, 0)),
                     (pair.test, pair.reference, seeding.mix_seed(29, t, 1))]
    kind = "rulsif" if alpha else "ulsif"
    expected = [_per_fold_scores(num, den, CvGrid(seed=seed), alpha)
                for num, den, seed in problems]
    solve, stacks = model_selection._solve_spd, []

    def recording_solve(h_mat, lam, rhs):
        stacks.append(h_mat.shape[0] * h_mat.shape[1] * len(lam))  # (sigma, fold, lambda)
        return solve(h_mat, lam, rhs)

    monkeypatch.setattr(model_selection, "_solve_spd", recording_solve)
    for units, largest in ((None, 125 if n == 50 else 75), (60, 50)):
        if units is not None:
            monkeypatch.setattr(estimators, "BUDGET", units * 8 * n * n)
        stacks.clear()
        many = cv_select_many([cv_problem(*p) for p in problems], CvGrid(), kind, alpha)
        for (num, den, seed), res_many, want in zip(problems, many, expected):
            for res in (cv_select(num, den, CvGrid(seed=seed), kind, alpha), res_many):
                table = np.array(list(res.score_table.values())).reshape(want.shape)
                np.testing.assert_array_equal(table, want)
        assert max(stacks) == largest


@settings(max_examples=60, deadline=None)
@given(
    sigmas=st.integers(1, 3),
    lambdas=st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=4),
    width=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_broadcast_solve_equals_one_system_solves(sigmas, lambdas, width, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(sigmas, width + 2, width))
    h_mat = a.swapaxes(-1, -2) @ a / (width + 2)
    h_vec = rng.normal(size=(sigmas, width))
    theta = _solve_spd(h_mat[:, None], lambdas, h_vec[:, None])
    assert theta.shape == (sigmas, len(lambdas), width)
    for s in range(sigmas):
        for l, lam in enumerate(lambdas):
            one = _solve_spd(h_mat[s], lam, h_vec[s])
            np.testing.assert_array_equal(theta[s, l], one)
            system = h_mat[s] + lam * np.eye(width)
            residual = np.linalg.norm(system @ one - h_vec[s])
            assert residual <= 1e-12 * np.linalg.norm(system) * np.linalg.norm(one)


@pytest.mark.parametrize("n", [50, 52, 53])
def test_kliep_grid_matches_loop_oracle(n):
    # 5 folds of 52 or 53 samples have unequal training sizes, so the
    # lockstep ascent runs one stack per training size
    series = generate(SynthSpec(dataset_id=2, length=800, seed=n))
    windows = build_windows(series, 10)
    for t in (1, 301):
        pair = segment_pair(windows, t, n)
        for direction, (num, den) in enumerate(
            ((pair.reference, pair.test), (pair.test, pair.reference))
        ):
            grid = CvGrid(seed=seeding.mix_seed(23, t, direction))
            res = cv_select(num, den, grid, "kliep")
            scores, best = kliep_cv_loop(
                num, den, grid.sigma_factors, grid.folds, grid.seed
            )
            assert list(res.score_table) == [
                (sigma, lam) for sigma in scores for lam in grid.lambdas
            ]
            assert res.best_sigma == best
            assert res.best_lambda == max(grid.lambdas)
            got = np.array([res.score_table[(s, grid.lambdas[0])] for s in scores])
            np.testing.assert_allclose(got, list(scores.values()), rtol=1e-10, atol=0)


def test_kliep_cv_kernels_match_elementwise_formula(monkeypatch):
    # kliep_cv_loop takes its kernels from the same cdist call as the
    # package, so the grid test above compares folds, fits and held-out
    # scores on equal inputs; this checks those inputs on their own
    series = generate(SynthSpec(dataset_id=2, length=800, seed=52))
    pair = segment_pair(build_windows(series, 10), 1, 52)
    num, den = pair.reference, pair.test
    grid = CvGrid(seed=seeding.mix_seed(23, 1, 0))
    recorded = []
    scores = model_selection._kliep_cv_scores

    def recording_scores(cases):
        recorded.extend(cases)
        return scores(cases)

    monkeypatch.setattr(model_selection, "_kliep_cv_scores", recording_scores)
    cv_select(num, den, grid, "kliep")
    (k_num, b_vecs, folds), = recorded
    d_med = median_pairwise_distance(np.vstack([num, den]))
    for s, factor in enumerate(grid.sigma_factors):
        sigma = factor * d_med

        def kernel(x):
            sq = ((x[:, None, :] - num[None, :, :]) ** 2).sum(axis=-1)
            return np.exp(-sq / (2.0 * sigma**2))

        np.testing.assert_allclose(k_num[s], kernel(num), rtol=1e-12, atol=0)
        k_den = kernel(den)
        for f, (_, (den_tr, _)) in enumerate(folds):
            np.testing.assert_allclose(
                b_vecs[f][s], k_den[den_tr].mean(axis=0), rtol=1e-12, atol=0
            )


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((11, 12)), extra=st.integers(0, 1), dim=st.sampled_from((1, 3, 10)),
       kind=st.sampled_from(("rulsif", "kliep")), ties=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_one_distance_matrix_per_block_gives_the_separate_kernels(
        n, extra, dim, kind, ties, seed):
    # a block's two directions, (a, b) then (b, a), take their median and
    # their four kernel blocks from one pooled distance matrix of [a; b];
    # each equals median_distance and gaussian_kernels of its own sets, and
    # each result that of cv_select, which pools (b, a) as [b; a], bit for
    # bit.  2n + extra pooled samples give odd (n = 11, 2n + 1 = 25) and even
    # pair counts, ties put equal distances at the middle order statistics,
    # and n = 11 and 12 give folds of unequal size
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, dim)), rng.normal(0.5, 1.5, size=(n + extra, dim))
    if ties:
        a, b = np.round(a), np.round(b)
    d_med = median_distance(np.vstack([a, b]))
    grid = CvGrid(sigma_factors=(0.5, 1.0, 1.7), lambdas=(0.1, 1.0), seed=seed)
    sigmas = [f * d_med for f in grid.sigma_factors]
    sqdist, a_rows, b_rows, _ = cv_problem(a, b, seed)
    kernels, medians = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_selection, "kernels_of",
                   lambda sq, s: kernels.append(kernel.kernels_of(sq, s)) or kernels[-1])
        mp.setattr(model_selection, "pooled_median",
                   lambda sq: medians.append(1) or kernel.pooled_median(sq))
        problems = [(sqdist, a_rows, b_rows, seed), (sqdist, b_rows, a_rows, seed + 1)]
        results = cv_select_many(problems, grid, kind, 0.1)
    assert len(medians) == 1
    for result in results:  # factor 1.0 gives the median itself
        assert sorted({sigma for sigma, _ in result.score_table}) == sigmas
    want = [(a, a), (b, a), (b, b), (a, b)]  # (samples, centers) of k_num, k_den per direction
    assert len(kernels) == len(want)
    for got, (samples, centers) in zip(kernels, want):
        np.testing.assert_array_equal(got, gaussian_kernels(samples, centers, sigmas))
    for (num, den, fold_seed), result in zip(((a, b, seed), (b, a, seed + 1)), results):
        alone = cv_select(num, den, dataclasses.replace(grid, seed=fold_seed), kind, 0.1)
        assert result == alone and result.score_table == alone.score_table


def test_zero_median_block_raises_the_median_distance_error():
    # 21 of 24 pooled samples identical: 210 of the 276 pairs are at distance 0
    x = np.zeros((12, 2))
    y = np.zeros((12, 2))
    x[:3] = [[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]
    with pytest.raises(DegenerateBandwidthError) as want:
        median_distance(np.vstack([x, y]))
    assert str(want.value) == "median pairwise distance is zero (samples nearly all identical)"
    for kind in ("ulsif", "kliep"):
        with pytest.raises(DegenerateBandwidthError) as got:
            cv_select_many([cv_problem(x, y, 0), cv_problem(y, x, 1)], CvGrid(), kind)
        assert str(got.value) == str(want.value)


def test_least_squares_cv_memory_peak_is_bounded_by_the_budget():
    # 10 sigmas x 10 lambdas x 10 folds make 1,000 systems per problem; the
    # budget holds 277 arrays of 60 x 60 doubles, so stacks of 2 folds' 200
    # systems, and the peak is about the one copy of a stack's systems that
    # _solve_spd makes, at most one budget (the stack's H and the kernels
    # take less than half as much again)
    rng = np.random.default_rng(7)
    centers = 60
    num, den = rng.normal(size=(centers, 20)), rng.normal(0.3, 1.0, size=(centers, 20))
    grid = CvGrid(sigma_factors=tuple(0.5 + 0.1 * i for i in range(10)),
                  lambdas=tuple(10.0 ** (i / 2 - 3) for i in range(10)), folds=10, seed=3)
    cv_select(num, den, grid, "rulsif", 0.1)  # first-call allocations of numpy/scipy
    tracemalloc.start()
    try:
        cv_select(num, den, grid, "rulsif", 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 1.5 * estimators.BUDGET
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_kliep_grid_memory_peak():
    # the (sigma, fold) stack of training kernels is the largest array
    # (25 x 40 x 50 doubles, 0.4 MB); the ascent's temporaries stay small
    num, den = _samples(seed=5, n=50, dim=10)
    grid = CvGrid(seed=3)
    cv_select(num, den, grid, "kliep")  # first-call allocations of numpy/scipy
    tracemalloc.start()
    try:
        cv_select(num, den, grid, "kliep")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"peak {peak / 1024:.0f} KiB"
