"""Fast tests of the benchmark's independent output checker."""

import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

import perfcheck as pc


def test_mix_seed_is_splitmix64():
    # first output of splitmix64 seeded with 0
    assert pc.mix_seed(0, 0) == 0xE220A8397B1DCDAF
    assert pc.mix_seed(5, 1, 2) == pc.mix_seed(pc.mix_seed(5, 1), 2)


@pytest.mark.parametrize("length,n,k,stride", [(5000, 50, 10, 5), (5000, 50, 10, 1), (120, 7, 3, 4)])
def test_position_count_matches_enumeration(length, n, k, stride):
    # position t is valid while its last window t + 2n - 1 starts inside the series
    valid = [t for t in range(1, length + 1, stride) if t + 2 * n - 1 <= length - k + 1]
    assert pc.position_count(length, n, k, stride) == len(valid)


def test_window_vectors_stack_time_major():
    values = np.arange(12.0).reshape(2, 6)
    windows = pc.window_vectors(values, 3)
    assert windows.shape == (4, 6)
    assert list(windows[1]) == [1.0, 7.0, 2.0, 8.0, 3.0, 9.0]


def test_median_distance_over_all_pairs():
    samples = np.array([[0.0], [1.0], [3.0], [7.0]])
    dists = sorted(abs(a - b) for a, b in itertools.combinations([0, 1, 3, 7], 2))
    assert pc.median_distance(samples) == 0.5 * (dists[2] + dists[3])


def test_ls_term_wide_kernel_closed_form():
    # a very wide kernel makes every Gram entry 1: theta = 1/(n + lam) and
    # g = n/(n + lam) everywhere, so PE_alpha = -(1 - g)^2 / 2 for any alpha
    rng = np.random.default_rng(0)
    num, den = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    g = 8 / (8 + 0.5)
    for alpha in (0.0, 0.1):
        assert pc.ls_term(num, den, 1e6, 0.5, alpha) == pytest.approx(-((1 - g) ** 2) / 2, abs=1e-9)


def test_kliep_bounds_bracket_an_independent_optimum():
    rng = np.random.default_rng(1)
    num, den = rng.normal(size=(12, 2)), rng.normal(0.7, 1.0, size=(12, 2))
    sigma = 1.0
    a = pc.gram(num, num, sigma)
    b = pc.gram(den, num, sigma).mean(axis=0)
    res = minimize(
        lambda th: -np.mean(np.log(a @ th)), np.full(12, 1 / b.sum()),
        jac=lambda th: -a.T @ (1 / (a @ th)) / 12, method="SLSQP",
        bounds=[(0, None)] * 12, constraints=[{"type": "eq", "fun": lambda th: b @ th - 1}],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    start, lower, upper = pc.kliep_bounds(num, den, sigma)
    assert start <= lower <= -res.fun + 1e-9
    assert -res.fun <= upper + 1e-9
    assert upper - lower < 1e-4


def test_peaks_plateau_and_spacing():
    bounds = list(range(100, 100 + 10 * 9, 10))
    scores = [0.0, 2.0, 2.0, 1.0, 3.0, 1.0, 0.5, 4.0, 0.0]
    # 110 rises into a plateau (kept at its first index); 140 is 30 after it;
    # 170 is 30 after 140
    assert pc.peaks(bounds, scores) == [(110, 2.0), (140, 3.0), (170, 4.0)]
    assert pc.peaks(bounds, scores, spacing=40) == [(110, 2.0), (170, 4.0)]


def test_brute_force_auc_hand_case():
    alarms = [(100, 3.0), (150, 2.0), (205, 1.0)]
    # points (0,0) (0,.5) (.5,.5) (1/3,1) (1,1)
    expected = 0.25 - 0.125 + 2 / 3
    assert pc.brute_force_auc(alarms, [100, 200]) == pytest.approx(expected, abs=1e-15)
    assert pc.brute_force_auc([], [100]) == 0.0


def _reference_sweep(values, n, k, stride, cv_stride, alpha, select):
    """Scores as the detector documents them, built from the checker's own
    pieces, for feeding check_scores consistent input."""
    windows = pc.window_vectors(values, k)
    count = pc.position_count(values.shape[1], n, k, stride)
    chosen, scores = {}, []
    for idx in range(count):
        t = 1 + idx * stride
        segs = (windows[t - 1 : t - 1 + n], windows[t - 1 + n : t - 1 + 2 * n])
        total = 0.0
        for direction in (0, 1):
            num, den = segs if direction == 0 else segs[::-1]
            if idx % cv_stride == 0:
                chosen[direction] = select(num, den, pc.mix_seed(7, t, direction))
            total += max(pc.ls_term(num, den, *chosen[direction], alpha), 0.0)
        scores.append(total)
    return [1 + i * stride + n for i in range(count)], np.array(scores)


def _select(num, den, seed):
    return 1.2 * pc.median_distance(np.vstack([num, den])), 0.1


@pytest.fixture(scope="module")
def small_run():
    values = np.random.default_rng(3).normal(size=(1, 80))
    values[:, 40:] += 2.0
    boundaries, scores = _reference_sweep(values, 6, 3, 2, 3, 0.1, _select)
    return values, boundaries, scores


def _check(values, boundaries, scores, select=_select):
    return pc.check_scores(
        values, boundaries, scores, n=6, k=3, stride=2, cv_stride=3, kind="rulsif",
        alpha=0.1, sigma_factors=(0.6, 1.2), lambdas=(0.1, 1.0), master=7,
        select=select, rng=np.random.default_rng(0))


def test_check_scores_accepts_consistent_and_rejects_perturbed(small_run):
    values, boundaries, scores = small_run
    assert _check(values, boundaries, scores) == []
    assert _check(values, boundaries, scores + 1e-6)
    assert _check(values, boundaries[:-1], scores[:-1])
    off_grid = lambda num, den, seed: (0.9 * pc.median_distance(np.vstack([num, den])), 0.1)
    assert any("off the grid" in e for e in _check(values, boundaries, scores, off_grid))


def test_check_alarms(small_run):
    _, boundaries, scores = small_run
    alarms = pc.peaks(boundaries, scores)
    truths = [41]
    auc = pc.brute_force_auc(alarms, truths)
    assert pc.check_alarms(boundaries, scores, alarms, truths, auc) == []
    assert pc.check_alarms(boundaries, scores, alarms[1:], truths, auc)
    assert pc.check_alarms(boundaries, scores, alarms, truths, auc + 1e-9)
