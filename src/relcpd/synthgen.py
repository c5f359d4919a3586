"""Seeded generators for the four synthetic change-point benchmarks.

Each series is built from equal-length blocks; a distribution parameter
changes at every block boundary, with later changes made more pronounced
than earlier ones.  Ground-truth change points sit at the first index of
each new block.

Randomness: uniform draws come from a PCG64 generator and are mapped to
Gaussians by the Box-Muller transform (pairs r*cos(phi), r*sin(phi),
interleaved).  Golden-file tests pin this exact stream layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .embedding import TimeSeries
from .errors import ParameterError, integer

DATASET_IDS = (1, 2, 3, 4)


@dataclass(frozen=True)
class SynthSpec:
    """One benchmark series: generator ``dataset_id`` (1-4), ``length``
    points in blocks of ``segment_len`` (a divisor of ``length``), drawn
    from ``seed``.  Invalid values raise ``ParameterError``."""

    dataset_id: int
    length: int = 5000
    segment_len: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dataset_id", "length", "segment_len", "seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if self.dataset_id not in DATASET_IDS:
            raise ParameterError(f"dataset id must be one of {DATASET_IDS}")
        if self.segment_len < 1 or self.length < 1:
            raise ParameterError("length and segment_len must be positive")
        if self.length % self.segment_len != 0:
            raise ParameterError(
                f"length {self.length} is not a multiple of "
                f"segment_len {self.segment_len}"
            )


def box_muller_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normals from uniform pairs via the Box-Muller transform."""
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], so log is finite
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def _block_index(spec: SynthSpec) -> np.ndarray:
    """1-based block number N for every time step."""
    blocks = spec.length // spec.segment_len
    return np.repeat(np.arange(1, blocks + 1), spec.segment_len)


def _change_points(spec: SynthSpec) -> tuple[int, ...]:
    blocks = spec.length // spec.segment_len
    return tuple(spec.segment_len * b + 1 for b in range(1, blocks))


def _ar2(noise: np.ndarray) -> np.ndarray:
    """y(t) = 0.6 y(t-1) - 0.5 y(t-2) + e(t), with y(1) = y(2) = 0."""
    y = np.zeros(noise.shape[0])
    for t in range(2, noise.shape[0]):
        y[t] = 0.6 * y[t - 1] - 0.5 * y[t - 2] + noise[t]
    return y


def jumping_mean_schedule(blocks: int) -> np.ndarray:
    """Noise means: mu_1 = 0, mu_N = mu_{N-1} + N/16."""
    mu = np.zeros(blocks)
    for n_blk in range(2, blocks + 1):
        mu[n_blk - 1] = mu[n_blk - 2] + n_blk / 16.0
    return mu


def scaling_variance_schedule(blocks: int) -> np.ndarray:
    """Noise stds: 1 on odd blocks, ln(e + N/4) on even blocks."""
    n_blk = np.arange(1, blocks + 1)
    return np.where(n_blk % 2 == 1, 1.0, np.log(math.e + n_blk / 4.0))


def switching_covariance_schedule(blocks: int) -> np.ndarray:
    """Off-diagonal correlations: -(4/5 + (N-2)/500) on odd blocks,
    +(4/5 + (N-2)/500) on even blocks."""
    n_blk = np.arange(1, blocks + 1)
    magnitude = 0.8 + (n_blk - 2) / 500.0
    return np.where(n_blk % 2 == 1, -magnitude, magnitude)


def changing_frequency_schedule(blocks: int) -> np.ndarray:
    """Frequencies: omega_1 = 1, omega_N = omega_{N-1} * ln(e + N/2)."""
    omega = np.zeros(blocks)
    omega[0] = 1.0
    for n_blk in range(2, blocks + 1):
        omega[n_blk - 1] = omega[n_blk - 2] * math.log(math.e + n_blk / 2.0)
    return omega


def gen_dataset1(spec: SynthSpec) -> TimeSeries:
    """Jumping mean: AR(2) driven by noise with std 1.5 and block-wise
    jumping mean."""
    if spec.dataset_id != 1:
        raise ParameterError(f"expected dataset 1, got {spec.dataset_id}")
    blocks = _block_index(spec)
    mu = jumping_mean_schedule(spec.length // spec.segment_len)
    rng = seeding.rng_from(spec.seed)
    z = box_muller_normals(rng, spec.length)
    noise = mu[blocks - 1] + 1.5 * z  # first two draws unused by the recursion
    return TimeSeries(
        _ar2(noise), change_points=_change_points(spec), name="dataset1"
    )


def gen_dataset2(spec: SynthSpec) -> TimeSeries:
    """Scaling variance: the same AR(2), zero-mean noise with block-wise std."""
    if spec.dataset_id != 2:
        raise ParameterError(f"expected dataset 2, got {spec.dataset_id}")
    blocks = _block_index(spec)
    sd = scaling_variance_schedule(spec.length // spec.segment_len)
    rng = seeding.rng_from(spec.seed)
    z = box_muller_normals(rng, spec.length)
    noise = sd[blocks - 1] * z
    return TimeSeries(
        _ar2(noise), change_points=_change_points(spec), name="dataset2"
    )


def gen_dataset3(spec: SynthSpec) -> TimeSeries:
    """Switching covariance: 2-D i.i.d. origin-centered normals with
    block-wise correlation of alternating sign."""
    if spec.dataset_id != 3:
        raise ParameterError(f"expected dataset 3, got {spec.dataset_id}")
    blocks = _block_index(spec)
    rho_blocks = switching_covariance_schedule(spec.length // spec.segment_len)
    if np.any(np.abs(rho_blocks) >= 1.0):
        raise ParameterError(
            "correlation schedule leaves the positive-definite range; "
            "reduce the number of blocks"
        )
    rho = rho_blocks[blocks - 1]
    rng = seeding.rng_from(spec.seed)
    z = box_muller_normals(rng, 2 * spec.length).reshape(spec.length, 2)
    # Cholesky factor of [[1, rho], [rho, 1]] applied to the i.i.d. pair
    first = z[:, 0]
    second = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
    return TimeSeries(
        np.vstack([first, second]),
        change_points=_change_points(spec),
        name="dataset3",
    )


def gen_dataset4(spec: SynthSpec) -> TimeSeries:
    """Changing frequency: sin(omega_N t) plus noise with std 0.8."""
    if spec.dataset_id != 4:
        raise ParameterError(f"expected dataset 4, got {spec.dataset_id}")
    blocks = _block_index(spec)
    omega = changing_frequency_schedule(spec.length // spec.segment_len)
    rng = seeding.rng_from(spec.seed)
    z = box_muller_normals(rng, spec.length)
    t = np.arange(1, spec.length + 1, dtype=np.float64)
    values = np.sin(omega[blocks - 1] * t) + 0.8 * z
    return TimeSeries(values, change_points=_change_points(spec), name="dataset4")


_GENERATORS = {1: gen_dataset1, 2: gen_dataset2, 3: gen_dataset3, 4: gen_dataset4}


def generate(spec: SynthSpec) -> TimeSeries:
    """Dispatch to the generator for ``spec.dataset_id``."""
    return _GENERATORS[spec.dataset_id](spec)
