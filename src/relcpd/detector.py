"""Sliding-window change-point scoring.

For each position t the detector forms two consecutive n-window segments,
fits one ratio model per direction, and emits the divergence estimate at
the boundary t + n.  The symmetric score is the sum of both directions.

Direction naming: the forward mode takes its numerator samples from the
earlier segment (the one starting at t) and its denominator samples from
the later one; the backward mode swaps the roles.  The symmetric score is
invariant to the naming.

Hyper-parameters are re-selected by cross-validation every ``cv_stride``
positions; in between, the last selection is reused.  CV seeds derive from
the master seed via ``seeding.mix_seed(master, t, direction)``, so any
evaluation order (serial or parallel over positions) yields identical
output.

KLIEP final fits are stacked: the positions and directions that share one
CV selection are fitted by one ``kliep_ascent`` call, at most KLIEP_STACK
problems at a time, and each term is the fit's final objective (the
formula of ``kl_estimate``).  Least-squares fits stay one per position.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import seeding
from .embedding import TimeSeries, build_windows, segment_pair
from .errors import (
    DegenerateBandwidthError,
    InsufficientDataError,
    NumericError,
    ParameterError,
)
from .estimators import (
    ESTIMATOR_KINDS,
    KLIEP,
    RULSIF,
    ULSIF,
    kl_estimate,  # noqa: F401 -- kept importable from here for tracing wrappers
    kliep_ascent,
    kliep_fit,  # noqa: F401
    pe_alpha_estimate,
    rulsif_fit,
    ulsif_fit,
)
from .kernel import design_matrices
from .model_selection import CvGrid, cv_select

SYMMETRIC = "symmetric"
FORWARD = "forward"
BACKWARD = "backward"
SCORE_MODES = (SYMMETRIC, FORWARD, BACKWARD)

_FWD = 0
_BWD = 1
_MODE_DIRECTIONS = {SYMMETRIC: (_FWD, _BWD), FORWARD: (_FWD,), BACKWARD: (_BWD,)}

# most KLIEP final fits (positions x directions) fitted as one stack
KLIEP_STACK = 25


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
        if int(self.n) < 2:
            raise ParameterError(f"segment sample count must be >= 2, got {self.n}")
        if int(self.k) < 1:
            raise ParameterError(f"window length must be >= 1, got {self.k}")
        if not 0.0 <= float(self.alpha) < 1.0:
            raise ParameterError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.estimator_kind not in ESTIMATOR_KINDS:
            raise ParameterError(f"unknown estimator kind {self.estimator_kind!r}")
        if self.score_mode not in SCORE_MODES:
            raise ParameterError(f"unknown score mode {self.score_mode!r}")
        if int(self.stride) < 1 or int(self.cv_stride) < 1:
            raise ParameterError("stride and cv_stride must be >= 1")
        if int(self.n) < self.grid.folds:
            raise ParameterError(
                f"segment sample count n={self.n} is smaller than the CV fold "
                f"count {self.grid.folds}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "stride", int(self.stride))
        object.__setattr__(self, "cv_stride", int(self.cv_stride))


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


def _kliep_terms(designs: list) -> np.ndarray:
    """KL terms of a block of designs from one ``kliep_ascent`` stack: each
    fit's final objective mean_i log g(Y_i), the formula of ``kl_estimate``."""
    _, objective, _, _ = kliep_ascent(
        np.stack([d.k_num for d in designs]),
        np.stack([d.k_den.mean(axis=0) for d in designs]),
    )
    return objective


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
    n = config.n
    master = config.grid.seed
    alpha = config.alpha if config.estimator_kind == RULSIF else 0.0
    directions = _MODE_DIRECTIONS[config.score_mode]

    selections: dict[int, tuple[float, float]] = {}
    boundaries: list[int] = []
    scores: list[float] = []
    block: list = []  # KLIEP designs awaiting one stacked fit
    t_last = t_len - 2 * n - config.k + 2
    starts = range(1, t_last + 1, config.stride)
    for idx, t in enumerate(starts):
        pair = segment_pair(windows, t, n)
        by_direction = {
            _FWD: (pair.reference, pair.test),
            _BWD: (pair.test, pair.reference),
        }
        if idx % config.cv_stride == 0:
            for direction in directions:
                num, den = by_direction[direction]
                grid = replace(config.grid, seed=seeding.mix_seed(master, t, direction))
                try:
                    sel = cv_select(num, den, grid, config.estimator_kind, alpha)
                except DegenerateBandwidthError as exc:
                    raise DegenerateBandwidthError(
                        f"{exc} (at position t={t}, boundary {pair.boundary})"
                    ) from exc
                selections[direction] = (sel.best_sigma, sel.best_lambda)
        boundaries.append(pair.boundary)
        if config.estimator_kind == KLIEP:
            for direction in directions:
                num, den = by_direction[direction]
                block.append(design_matrices(num, den, num, selections[direction][0]))
            if (
                (idx + 1) % config.cv_stride == 0
                or len(block) + len(directions) > KLIEP_STACK
                or idx + 1 == len(starts)
            ):
                terms = _kliep_terms(block).reshape(-1, len(directions))
                if config.clip_negative:
                    terms = np.maximum(terms, 0.0)
                scores.extend(sum(row, 0.0) for row in terms.tolist())
                block = []
            continue
        score = 0.0
        for direction in directions:
            num, den = by_direction[direction]
            sigma, lam = selections[direction]
            design = design_matrices(num, den, num, sigma)
            if config.estimator_kind == ULSIF:
                model, _ = ulsif_fit(design, lam)
            else:
                model, _ = rulsif_fit(design, lam, alpha)
            term = pe_alpha_estimate(model, num, den, design=design)
            if config.clip_negative:
                term = max(term, 0.0)
            score += term
        scores.append(score)

    arr = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite change score produced")
    arr.setflags(write=False)
    return ScoreSeries(boundaries=tuple(boundaries), scores=arr)
