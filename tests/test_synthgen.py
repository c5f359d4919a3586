import math
from pathlib import Path

import numpy as np
import pytest

from relcpd.dataio import write_series_csv
from relcpd.errors import ParameterError
from relcpd.seeding import rng_from
from relcpd.synthgen import (
    SynthSpec,
    box_muller_normals,
    changing_frequency_schedule,
    gen_dataset1,
    gen_dataset3,
    generate,
    jumping_mean_schedule,
    scaling_variance_schedule,
    switching_covariance_schedule,
)

from oracles import ar2_mean_gain, simulate_ar2_long_run_mean

GOLDEN = Path(__file__).parent / "golden"


def test_spec_validation():
    with pytest.raises(ParameterError):
        SynthSpec(5)
    with pytest.raises(ParameterError):
        SynthSpec(1, length=150, segment_len=100)
    with pytest.raises(ParameterError):
        SynthSpec(1, length=0)


@pytest.mark.parametrize("field, value", [
    ("dataset_id", 1.0), ("length", 600.0), ("segment_len", 100.5), ("seed", 1.9),
])
def test_non_integral_spec_fields_rejected(field, value):
    # these used to run truncated: seed 1.9 as seed 1
    fields = dict(dataset_id=1, length=600, segment_len=100, seed=1)
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        SynthSpec(**{**fields, field: value})
    spec = SynthSpec(**{**fields, field: np.int64(fields[field])})
    assert type(getattr(spec, field)) is int


def test_jumping_mean_prefix():
    mu = jumping_mean_schedule(50)
    assert mu[0] == 0.0
    assert mu[1] == 0.125
    assert mu[2] == 0.3125
    assert mu[3] == 0.5625


def test_scaling_variance_values():
    sd = scaling_variance_schedule(50)
    assert sd[0] == 1.0
    assert sd[1] == pytest.approx(math.log(math.e + 0.5))  # ~1.16824
    assert sd[46] == 1.0
    assert sd[47] == pytest.approx(math.log(math.e + 12.0))  # ~2.68923


def test_switching_covariance_values():
    rho = switching_covariance_schedule(50)
    assert rho[1] == pytest.approx(0.8)
    assert rho[2] == pytest.approx(-0.802)
    assert np.all(np.abs(rho) < 1.0)  # covariance stays positive definite
    assert np.all(np.diff(np.abs(rho)) > 0)  # later changes dominate


def test_changing_frequency_values():
    omega = changing_frequency_schedule(50)
    assert omega[0] == 1.0
    assert omega[1] == pytest.approx(math.log(math.e + 1.0))  # ~1.31326
    growth = omega[1:] / omega[:-1]
    assert np.all(np.diff(growth) > 0)  # growth factors increase with N


def test_schedules_monotone_dominance():
    # jump sizes N/16 grow with the block index
    mu = jumping_mean_schedule(50)
    jumps = np.diff(mu)
    assert np.all(np.diff(jumps) > 0)


def test_ar2_noise_free_stays_zero():
    # zero noise keeps the recursion at zero
    series = gen_dataset1(SynthSpec(1, length=400, segment_len=100, seed=0))
    # reconstruct: the generator is AR(2) driven by mu + 1.5 z; with z and mu
    # removed the dynamics are zero from y(1)=y(2)=0
    from relcpd.synthgen import _ar2

    y = _ar2(np.zeros(10))
    assert np.all(y == 0.0)


def test_ar2_matches_hand_recursion():
    from relcpd.synthgen import _ar2

    rng = np.random.default_rng(0)
    noise = rng.normal(size=50)
    y = _ar2(noise)
    assert y[0] == 0.0 and y[1] == 0.0
    for t in range(2, 50):
        assert y[t] == pytest.approx(
            0.6 * y[t - 1] - 0.5 * y[t - 2] + noise[t], rel=1e-15
        )


def test_block_mean_gain_against_simulation_oracle():
    # long-run oracle for the AR(2) gain of the noise mean
    gain = ar2_mean_gain()
    sim = simulate_ar2_long_run_mean(mu=1.0, steps=200_000, seed=1)
    assert sim == pytest.approx(gain, abs=0.02)

    # block-mean differences across 20 seeded runs track (mu_N - mu_{N-1}) * gain
    n_blk = 30
    mu = jumping_mean_schedule(50)
    predicted = (mu[n_blk - 1] - mu[n_blk - 2]) * gain
    diffs = []
    for seed in range(20):
        series = gen_dataset1(SynthSpec(1, seed=seed))
        v = series.values[0]
        b_cur = v[(n_blk - 1) * 100 : n_blk * 100].mean()
        b_prev = v[(n_blk - 2) * 100 : (n_blk - 1) * 100].mean()
        diffs.append(b_cur - b_prev)
    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert abs(diffs.mean() - predicted) <= 3 * se


def test_dataset3_block_correlation():
    series = gen_dataset3(SynthSpec(3, length=20000, segment_len=10000, seed=0))
    block2 = series.values[:, 10000:]
    rho = switching_covariance_schedule(2)[1]  # +0.8
    emp = np.corrcoef(block2[0], block2[1])[0, 1]
    assert emp == pytest.approx(rho, abs=0.02)


def test_dataset4_composition():
    spec = SynthSpec(4, length=500, segment_len=100, seed=9)
    series = generate(spec)
    omega = changing_frequency_schedule(5)
    blocks = np.repeat(np.arange(1, 6), 100)
    t = np.arange(1, 501, dtype=float)
    signal = np.sin(omega[blocks - 1] * t)
    assert np.max(np.abs(signal)) <= 1.0
    z = box_muller_normals(rng_from(9), 500)
    np.testing.assert_allclose(series.values[0], signal + 0.8 * z, rtol=0, atol=1e-12)


def test_change_points_placement():
    for ds in (1, 2, 3, 4):
        series = generate(SynthSpec(ds, seed=0))
        assert series.change_points == tuple(range(101, 5000, 100))
        assert len(series.change_points) == 49


def test_determinism_bitwise():
    for ds in (1, 2, 3, 4):
        a = generate(SynthSpec(ds, seed=123))
        b = generate(SynthSpec(ds, seed=123))
        np.testing.assert_array_equal(a.values, b.values)


def test_dataset_shapes():
    assert generate(SynthSpec(3, seed=0)).values.shape == (2, 5000)
    for ds in (1, 2, 4):
        assert generate(SynthSpec(ds, seed=0)).values.shape == (1, 5000)


def test_box_muller_moments():
    z = box_muller_normals(rng_from(7), 100_000)
    assert z.mean() == pytest.approx(0.0, abs=0.02)
    assert z.std() == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("ds", [1, 2, 3, 4])
def test_golden_files(tmp_path, ds):
    series = generate(SynthSpec(ds, seed=0))
    out = tmp_path / "series.csv"
    write_series_csv(out, series)
    assert out.read_bytes() == (GOLDEN / f"dataset{ds}_seed0.csv").read_bytes()
