"""Compare change-point scores and CV tables between two checkouts of this
repository.

Runs a fixed list of sweeps in each checkout -- every estimator on datasets
1-4, two fixed-seed 2000-point series each, with the benchmark's detector
setting (n=50, k=10, stride 5, cv_stride 5), uLSIF on one series per
dataset at the ``ulsif-dense-cli`` setting (stride 1, cv_stride 500), and,
at n=200, every estimator on one 1000-point series of dataset 1 at stride 5,
cv_stride 5 and RuLSIF on it at stride 1, cv_stride 50, where the memory
budget cuts runs of 2 blocks, KLIEP buffers of 23-28 problems, CV stacks of
one fold and final-fit chunks of 12 positions; at the benchmark's setting,
RuLSIF forward-only and backward-only on one dataset-2 series, and RuLSIF
on a 3-dimensional series, dataset 3's two rows stacked on dataset 1's row,
at k=4 with standardization -- and the CV grid (RuLSIF at alpha 0.1, uLSIF,
KLIEP) on a fixed list of segment pairs of one series per dataset, at n=50
and n=53 (folds of unequal size, and for KLIEP two training shapes).  It
prints, per sweep, the sha256 of the scores in each checkout (its first 16
hex digits), the largest |score difference| and both AUCs, and per CV set
the same for its score tables, all pairs' in order.  Each child scores
every sweep setting twice, the second pass on the worker pool the first one
left warm, and the tool prints per checkout how many second passes differ
from the first.  Like ``diff``, it exits 1 when any digest differs, between
the checkouts or between two passes, and 0 when all are equal.

    python3 tools/score_diff.py <checkout A> <checkout B>

Each checkout's sweeps run in a child process that imports the package from
that checkout's ``src``.  A checkout whose ``model_selection`` has no
``cv_problem`` takes the CV problems as (numerator, denominator, seed)
sample sets.  Not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

# the same score digest as the benchmark's (perfbench/perfcheck.py)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from perfcheck import score_digest  # noqa: E402

ESTIMATORS = ("rulsif", "ulsif", "kliep")
DATASETS = (1, 2, 3, 4)
SERIES = (1, 2)
LENGTH = 2000
MASTER_SEED = 12012
DETECTOR = {"n": 50, "k": 10, "stride": 5, "cv_stride": 5}
DENSE = {"n": 50, "k": 10, "stride": 1, "cv_stride": 500}
# sweep kinds: (series length, detector setting)
SWEEPS = {"sweep": (LENGTH, DETECTOR), "dense": (LENGTH, DENSE),
          "large": (1000, {**DETECTOR, "n": 200}),
          "large dense": (1000, {"n": 200, "k": 10, "stride": 1, "cv_stride": 50}),
          "forward": (LENGTH, {**DETECTOR, "score_mode": "forward"}),
          "backward": (LENGTH, {**DETECTOR, "score_mode": "backward"}),
          "3-d": (LENGTH, {**DETECTOR, "k": 4, "standardize": True})}
# CV sets: (estimator, alpha), segment lengths and pair starts
CV_KINDS = (("rulsif", 0.1), ("ulsif", 0.0), ("kliep", 0.0))
CV_LENGTHS = (50, 53)
CV_STARTS = range(1, 1850, 96)


def settings() -> list[tuple]:
    """(label, what, estimator, dataset, series or segment length) per digest."""
    sweeps = [(f"{e} ds{d} series {s}", "sweep", e, d, s)
              for e in ESTIMATORS for d in DATASETS for s in SERIES]
    dense = [(f"ulsif dense ds{d} series 1", "dense", "ulsif", d, 1) for d in DATASETS]
    large = [(f"{e} n200 ds1 series 1", "large", e, 1, 1) for e in ESTIMATORS]
    large.append(("rulsif n200 dense ds1", "large dense", "rulsif", 1, 1))
    modes = [(f"rulsif {mode} ds2", mode, "rulsif", 2, 1) for mode in ("forward", "backward")]
    modes.append(("rulsif 3-d k4 ds3+ds1", "3-d", "rulsif", 3, 1))
    cv = [(f"cv {e} ds{d} n{n}", "cv", e, d, n)
          for e, _ in CV_KINDS for d in DATASETS for n in CV_LENGTHS]
    return sweeps + dense + large + modes + cv


def sweep_all(checkout: str) -> None:
    """Child process: one JSON line per setting with its values (scores or
    CV tables) and, for sweeps, the AUC; then one line with the labels of
    the sweeps whose second pass gives other scores than the first."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from relcpd import (CvGrid, DetectorConfig, SynthSpec, TimeSeries, change_scores,
                        find_peaks, generate, roc_curve)
    from relcpd import model_selection
    from relcpd.embedding import build_windows, segment_pair
    from relcpd.seeding import mix_seed

    cv_problem = getattr(model_selection, "cv_problem", lambda *problem: problem)

    sweeps = []  # (label, series, config, digest of the first pass)
    for label, what, estimator, dataset, index in settings():
        series_index = index if what == "sweep" else 1
        length, detector = SWEEPS.get(what, (LENGTH, DETECTOR))
        series = generate(SynthSpec(dataset_id=dataset, length=length,
                                    seed=mix_seed(MASTER_SEED, 1, dataset, series_index)))
        if what == "3-d":
            below = generate(SynthSpec(dataset_id=1, length=length,
                                       seed=mix_seed(MASTER_SEED, 1, 1, series_index)))
            series = TimeSeries(np.vstack([series.values, below.values]),
                                change_points=series.change_points)
        grid = CvGrid(seed=mix_seed(MASTER_SEED, 2, dataset, series_index))
        if what == "cv":
            windows = build_windows(series, DETECTOR["k"])
            problems = []
            for t in CV_STARTS:
                pair = segment_pair(windows, t, index)
                problems += [cv_problem(pair.reference, pair.test, mix_seed(grid.seed, t, 0)),
                             cv_problem(pair.test, pair.reference, mix_seed(grid.seed, t, 1))]
            results = model_selection.cv_select_many(problems, grid, estimator,
                                                     dict(CV_KINDS)[estimator])
            values = [v for res in results for v in res.score_table.values()]
            print(json.dumps({"values": values, "auc": None}), flush=True)
            continue
        config = DetectorConfig(**detector, estimator_kind=estimator, grid=grid)
        scores = change_scores(series, config)
        sweeps.append((label, series, config, score_digest(scores.scores)))
        curve = roc_curve(find_peaks(scores), series.change_points, len(series.change_points))
        print(json.dumps({"values": [float(v) for v in scores.scores], "auc": curve.auc}),
              flush=True)
    differ = [label for label, series, config, digest in sweeps
              if score_digest(change_scores(series, config).scores) != digest]
    print(json.dumps({"second_pass_differs": differ, "sweeps": len(sweeps)}), flush=True)


def run_checkout(checkout: str) -> tuple[list[dict], dict]:
    """Each setting's line of the child's output, and its second-pass line."""
    out = subprocess.run([sys.executable, __file__, "--sweep", checkout],
                         check=True, capture_output=True, text=True).stdout
    *lines, second_pass = [json.loads(line) for line in out.splitlines()]
    return lines, second_pass


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b", nargs="?")
    parser.add_argument("--sweep", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.sweep:
        sweep_all(args.checkout_a)
        return
    if args.checkout_b is None:
        parser.error("two checkouts are needed")
    (side_a, second_a), (side_b, second_b) = (run_checkout(args.checkout_a),
                                              run_checkout(args.checkout_b))
    print(f"{'setting':<26} {'sha256 A':<16} {'sha256 B':<16} {'max |d|':>9} "
          f"{'AUC A':>6} {'AUC B':>6}")
    worst, differing = {}, 0
    for (label, what, estimator, *_), a, b in zip(settings(), side_a, side_b):
        values_a, values_b = np.array(a["values"]), np.array(b["values"])
        diff = float(np.max(np.abs(values_a - values_b)))
        key = f"{estimator} CV tables" if what == "cv" else f"{estimator} scores"
        worst[key] = max(worst.get(key, 0.0), diff)
        digest_a, digest_b = score_digest(values_a), score_digest(values_b)
        differing += digest_a != digest_b
        aucs = "" if a["auc"] is None else f" {a['auc']:6.3f} {b['auc']:6.3f}"
        print(f"{label:<26} {digest_a[:16]} {digest_b[:16]} {diff:9.2e}{aucs}")
    for key, diff in worst.items():
        print(f"largest |d| {key}: {diff:.3e}")
    for side, second in (("A", second_a), ("B", second_b)):
        print(f"second pass {side}: {len(second['second_pass_differs'])} of "
              f"{second['sweeps']} sweeps differ from the first"
              + "".join(f"\n  {label}" for label in second["second_pass_differs"]))
    print(f"{differing} of {len(settings())} digests differ")
    if differing or second_a["second_pass_differs"] or second_b["second_pass_differs"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
