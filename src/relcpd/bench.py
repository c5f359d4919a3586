"""Benchmark harness: run the full pipeline over (dataset, estimator, run)
cells and report AUC mean/std per cell.

Every cell run is a pure function of the master seed: the series seed and
the detection seed derive from (master, dataset, run) via the documented
mixing function, so serial and parallel execution produce identical
reports.  Failed runs mark their whole cell as failed; other cells continue.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

from . import seeding
from .detector import DetectorConfig, _close_workers, change_scores
from .errors import ChangePointError, ParameterError, integer
from .estimators import KLIEP, lapack_dposv
from .evaluation import MATCH_WINDOW, MIN_ALARM_SPACING
from .evaluation import find_peaks, roc_curve, summarize_runs
from .synthgen import DATASET_IDS, SynthSpec, generate

SCHEMA_VERSION = 1

# tags folded into the master seed (see seeding.mix_seed)
_SERIES_TAG = 1
_DETECT_TAG = 2

_CONVENTIONS = {
    "score_alignment": "boundary t+n",
    "alarm_dedup_min_spacing": MIN_ALARM_SPACING,
    "match_window": MATCH_WINDOW,
    "time_indexing": "1-based",
}


def run_one(
    dataset_id: int,
    run_index: int,
    master_seed: int,
    length: int,
    segment_len: int,
    config: DetectorConfig,
) -> float:
    """AUC of one seeded pipeline run; ``config`` is the run's own detector
    setting, its grid seed included."""
    series = generate(
        SynthSpec(
            dataset_id=dataset_id,
            length=length,
            segment_len=segment_len,
            seed=seeding.mix_seed(master_seed, _SERIES_TAG, dataset_id, run_index),
        )
    )
    scores = change_scores(series, config)
    alarms = find_peaks(scores)
    curve = roc_curve(alarms, series.change_points, len(series.change_points))
    return curve.auc


def _task(args: tuple) -> tuple:
    dataset_id, run_index, _, _, _, config = args
    try:
        auc, error = run_one(*args), None
    except ChangePointError as exc:
        auc, error = None, f"{exc.category}: {exc}"
    return dataset_id, config.estimator_kind, run_index, auc, error


def run_bench(
    datasets,
    estimators,
    runs: int,
    seed: int,
    length: int = 5000,
    segment_len: int = 100,
    config: DetectorConfig = DetectorConfig(),
    jobs: int = 1,
) -> dict:
    """Run all cells and assemble the versioned report object.

    ``config`` is the template of every run: run r of (dataset d, estimator
    e) uses it with estimator e and the grid seed mixed from (seed, d, r).
    Every run's config, the dataset ids, ``runs``, ``jobs``, ``seed``,
    ``length`` and ``segment_len`` are checked before the first sweep; each
    of these must be an integer.  With ``jobs`` > 1 the cells run on that many
    worker processes and each sweep runs inside its worker; the detector's
    sweep pool, if an earlier sweep left one, is joined before they fork,
    and LAPACK is loaded before they fork where any estimator is least
    squares, so the workers inherit it (see ``estimators``).  With ``jobs`` =
    1 they run here, one after another, and each sweep spreads its CV blocks
    over the CPUs (see ``detector``).
    """
    runs, jobs, seed = integer("runs", runs), integer("jobs", jobs), integer("seed", seed)
    length, segment_len = integer("length", length), integer("segment_len", segment_len)
    if runs < 1 or jobs < 1:
        raise ParameterError(f"runs and jobs must be >= 1, got {runs} and {jobs}")
    # each cell once
    datasets = list(dict.fromkeys(integer("dataset id", d) for d in datasets))
    if not set(datasets) <= set(DATASET_IDS):
        raise ParameterError(f"dataset ids must be among {DATASET_IDS}, got {datasets}")
    estimators = list(dict.fromkeys(estimators))
    tasks = []
    for d, e, r in itertools.product(datasets, estimators, range(runs)):
        grid = replace(config.grid, seed=seeding.mix_seed(seed, _DETECT_TAG, d, r))
        run_config = replace(config, estimator_kind=e, grid=grid)
        tasks.append((d, r, seed, length, segment_len, run_config))
    if jobs > 1 and len(tasks) > 1:
        _close_workers()  # fork the cells from a process with no pool threads
        if any(e != KLIEP for e in estimators):
            lapack_dposv()  # loaded once here and inherited by every cell worker
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_task, tasks))
    else:
        outcomes = [_task(t) for t in tasks]

    by_cell: dict[tuple[int, str], dict[int, tuple]] = {}
    for dataset_id, estimator, run_index, auc, error in outcomes:
        by_cell.setdefault((dataset_id, estimator), {})[run_index] = (auc, error)

    cells = []
    for dataset_id in sorted(datasets):
        for estimator in sorted(estimators):
            cell_runs = by_cell[(dataset_id, estimator)]
            errors = [
                (r, err) for r, (_, err) in sorted(cell_runs.items()) if err
            ]
            if errors:
                cells.append(
                    {
                        "dataset": dataset_id,
                        "estimator": estimator,
                        "status": "failed",
                        "error": errors[0][1],
                        "failed_run": errors[0][0],
                    }
                )
                continue
            aucs = [cell_runs[r][0] for r in sorted(cell_runs)]
            mean, std = summarize_runs(aucs)
            cells.append(
                {
                    "dataset": dataset_id,
                    "estimator": estimator,
                    "status": "ok",
                    "runs": len(aucs),
                    "auc_mean": mean,
                    "auc_std": std,
                    "per_run": [
                        {"run": r, "auc": cell_runs[r][0]} for r in sorted(cell_runs)
                    ],
                }
            )

    detector = asdict(config)
    del detector["estimator_kind"]
    grid = detector.pop("grid")
    del grid["seed"]
    return {
        "schema": SCHEMA_VERSION,
        "config": {
            "datasets": sorted(datasets),
            "estimators": sorted(estimators),
            "runs": runs,
            "seed": seed,
            "length": length,
            "segment_len": segment_len,
            "detector": detector,
            "grid": grid,
            "conventions": _CONVENTIONS,
        },
        "cells": cells,
    }


def format_table(report: dict) -> str:
    """Plain-text dataset x estimator table of AUC mean(std)."""
    estimators = report["config"]["estimators"]
    by_key = {(c["dataset"], c["estimator"]): c for c in report["cells"]}
    header = ["dataset"] + list(estimators)
    lines = []
    for dataset_id in report["config"]["datasets"]:
        row = [str(dataset_id)]
        for estimator in estimators:
            cell = by_key[(dataset_id, estimator)]
            if cell["status"] == "ok":
                row.append(f"{cell['auc_mean']:.3f}({cell['auc_std']:.3f})")
            else:
                row.append("failed")
        lines.append(row)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in lines))
        for i in range(len(header))
    ]
    def fmt_row(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    return "\n".join([fmt_row(header)] + [fmt_row(r) for r in lines]) + "\n"
