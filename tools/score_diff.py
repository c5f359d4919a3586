"""Compare change-point scores between two checkouts of this repository.

Runs a fixed list of sweeps in each checkout -- every estimator on datasets
1-4, two fixed-seed 2000-point series each, with the benchmark's detector
setting (n=50, k=10, stride 5, cv_stride 5) -- and prints, per sweep, the
sha256 of the scores in each checkout (its first 16 hex digits), the largest
|score difference| and both AUCs.  Like ``diff``, it exits 1 when any
digest differs and 0 when all are equal.

    python3 tools/score_diff.py <checkout A> <checkout B>

Each checkout's sweeps run in a child process that imports the package from
that checkout's ``src``.  Not a test; pytest does not collect it.
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


def settings() -> list[tuple[str, int, int]]:
    return [(e, d, s) for e in ESTIMATORS for d in DATASETS for s in SERIES]


def sweep_all(checkout: str) -> None:
    """Child process: one JSON line per setting with its scores and AUC."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from relcpd import (CvGrid, DetectorConfig, SynthSpec, change_scores, find_peaks,
                        generate, roc_curve)
    from relcpd.seeding import mix_seed

    for estimator, dataset, series_index in settings():
        series = generate(SynthSpec(dataset_id=dataset, length=LENGTH,
                                    seed=mix_seed(MASTER_SEED, 1, dataset, series_index)))
        config = DetectorConfig(**DETECTOR, estimator_kind=estimator,
                                grid=CvGrid(seed=mix_seed(MASTER_SEED, 2, dataset, series_index)))
        scores = change_scores(series, config)
        curve = roc_curve(find_peaks(scores), series.change_points, len(series.change_points))
        print(json.dumps({"scores": [float(v) for v in scores.scores], "auc": curve.auc}),
              flush=True)


def run_checkout(checkout: str) -> list[dict]:
    out = subprocess.run([sys.executable, __file__, "--sweep", checkout],
                         check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


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
    side_a, side_b = run_checkout(args.checkout_a), run_checkout(args.checkout_b)
    print(f"{'setting':<22} {'sha256 A':<16} {'sha256 B':<16} {'max |d|':>9} "
          f"{'AUC A':>6} {'AUC B':>6}")
    worst, differing = {}, 0
    for (estimator, dataset, series_index), a, b in zip(settings(), side_a, side_b):
        scores_a, scores_b = np.array(a["scores"]), np.array(b["scores"])
        diff = float(np.max(np.abs(scores_a - scores_b)))
        worst[estimator] = max(worst.get(estimator, 0.0), diff)
        digest_a, digest_b = score_digest(scores_a), score_digest(scores_b)
        differing += digest_a != digest_b
        setting = f"{estimator} ds{dataset} series {series_index}"
        print(f"{setting:<22} {digest_a[:16]} {digest_b[:16]} {diff:9.2e} "
              f"{a['auc']:6.3f} {b['auc']:6.3f}")
    for estimator, diff in worst.items():
        print(f"largest |d| {estimator}: {diff:.3e}")
    print(f"{differing} of {len(settings())} digests differ")
    if differing:
        sys.exit(1)


if __name__ == "__main__":
    main()
