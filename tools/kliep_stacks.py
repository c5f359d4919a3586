"""Measure the KLIEP ascent on the streams that fixed sweeps send it.

Runs one fixed-seed 2000-point KLIEP sweep of each generator (datasets 1-4)
with the benchmark's detector setting (n=50, k=10, stride 5, cv_stride 5) in
one process, and records every stream of problems that CV and the final
fits send ``estimators.kliep_ascent``, tagged CV or final by the module that
called it.  For each checkout and each kind of stream (CV, final) it prints:

* the time spent in ``kliep_ascent`` (counting included; it varied by about
  25% between processes on one 2-core machine, so compare the counts first),
  the stream count and the problem count;
* problem-iterations (summed over problems) and their median;
* the rounds (calls of ``estimators._try_steps``), the mean rows (problems,
  each trying one candidate step) per round, and the tail rounds, those
  after the stream ran dry, when no new problem can take a finished one's
  row, with their time and mean rows (a round's time runs from the previous
  round's candidates to its own, and the stream's last stretch, after its
  last candidates, counts as tail);
* the fits not reported converged;
* the certified gap log max_l (grad_theta f)_l / b_l at the returned theta,
  as the ascent returns it, its median, 99th percentile and maximum;
* the shortfall f_EM - f against EM_UPDATES multiplicative EM updates on
  every EM_EVERY-th problem (a lower bound on the true shortfall).

    python3 tools/kliep_stacks.py <checkout> [<checkout> ...] [--seed 3]

Each checkout runs in a child process that imports the package from its
``src``, which must have the streaming ``kliep_ascent(problems, count)``.
CV streams are the same in every checkout; final-fit streams follow the
bandwidths CV selects, so they can differ where the fits do.  Not a test;
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

DATASETS = (1, 2, 3, 4)
LENGTH = 2000
DETECTOR = {"n": 50, "k": 10, "stride": 5, "cv_stride": 5}
EM_UPDATES = 2000
EM_EVERY = 10
FLOOR = 1e-12


def em_objectives(k_num: np.ndarray, b_vec: np.ndarray, updates: int) -> np.ndarray:
    """KLIEP objectives after ``updates`` EM updates of the mixture weights
    w = b * theta from w = b / sum(b), for a stack of problems."""
    comp = k_num / b_vec[:, None, :]
    w = b_vec / b_vec.sum(axis=1, keepdims=True)
    for _ in range(updates):
        g = (comp @ w[..., None])[..., 0]
        w = w * (comp.swapaxes(1, 2) @ (1.0 / g)[..., None])[..., 0] / comp.shape[1]
        w /= w.sum(axis=1, keepdims=True)
    g = (comp @ w[..., None])[..., 0]
    return np.log(np.maximum(g, FLOOR)).mean(axis=1)


def measure(checkout: str, seed: int) -> dict:
    """Child process: sweep, record every stream, return the per-kind totals."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from relcpd import (CvGrid, DetectorConfig, SynthSpec, change_scores, detector,
                        estimators, generate, model_selection)
    from relcpd.seeding import mix_seed

    stats = {kind: {"time_s": 0.0, "streams": 0, "problems": 0, "problem_iterations": 0,
                    "rounds": 0, "rows": 0, "tail_rounds": 0, "tail_rows": 0,
                    "tail_s": 0.0, "nonconverged": 0,
                    "iterations": [], "gaps": [], "shortfalls": []}
             for kind in ("cv", "final")}
    current = []  # the stream running: [kind, problems taken, count, round start]
    try_steps = estimators._try_steps

    def counting_try_steps(stack, w, grad, objective, steps):
        kind, taken, count, round_start = current[-1]
        now = time.perf_counter()
        s = stats[kind]
        s["rounds"] += 1
        s["rows"] += len(stack)
        if taken == count:
            s["tail_rounds"] += 1
            s["tail_rows"] += len(stack)
            s["tail_s"] += now - round_start
        current[-1][3] = now
        return try_steps(stack, w, grad, objective, steps)

    def recording(kind, ascent):
        def wrapper(problems, count, *args, **kwargs):
            s = stats[kind]
            first = s["problems"]  # stream indices within the kind
            picked = []  # copies of every EM_EVERY-th problem, for EM

            def counted():
                for problem in problems:
                    if (first + current[-1][1]) % EM_EVERY == 0:
                        picked.append((np.array(problem[0]), np.array(problem[1])))
                    current[-1][1] += 1
                    yield problem

            start = time.perf_counter()
            current.append([kind, 0, count, start])
            try:
                out = ascent(counted(), count, *args, **kwargs)
            finally:
                round_start = current.pop()[3]
            end = time.perf_counter()
            s["time_s"] += end - start
            s["tail_s"] += end - round_start  # the last gradients, after the last round
            theta, objective, iterations, converged, gap = out
            s["streams"] += 1
            s["problems"] += len(theta)
            s["problem_iterations"] += int(iterations.sum())
            s["nonconverged"] += int((~converged).sum())
            s["gaps"] += gap.tolist()
            s["iterations"] += iterations.tolist()
            if picked:
                k_num, b_vec = (np.stack(part) for part in zip(*picked))
                f_em = em_objectives(k_num, b_vec, EM_UPDATES)
                s["shortfalls"] += (f_em - objective[-first % EM_EVERY :: EM_EVERY]).tolist()
            return out
        return wrapper

    estimators._try_steps = counting_try_steps
    model_selection.kliep_ascent = recording("cv", model_selection.kliep_ascent)
    detector.kliep_ascent = recording("final", detector.kliep_ascent)
    detector._pool_size = lambda: 1  # every stream in this process
    start = time.perf_counter()
    for dataset in DATASETS:
        series = generate(SynthSpec(dataset_id=dataset, length=LENGTH,
                                    seed=mix_seed(seed, 1, dataset)))
        config = DetectorConfig(**DETECTOR, estimator_kind="kliep",
                                grid=CvGrid(seed=mix_seed(seed, 2, dataset)))
        change_scores(series, config)
    sweep_s = time.perf_counter() - start
    summary = {}
    for kind, s in stats.items():
        gaps, shortfalls = np.array(s.pop("gaps")), np.array(s.pop("shortfalls"))
        s.update(iterations_median=float(np.median(s.pop("iterations"))),
                 rows_per_round=s.pop("rows") / max(1, s["rounds"]),
                 tail_rows_per_round=s.pop("tail_rows") / max(1, s["tail_rounds"]),
                 gap_median=float(np.median(gaps)), gap_p99=float(np.quantile(gaps, 0.99)),
                 gap_max=float(gaps.max()), em_problems=int(shortfalls.size),
                 shortfall_max=float(shortfalls.max()),
                 shortfalls_above_1e3=int((shortfalls > 1e-3).sum()))
        summary[kind] = s
    summary["sweep_s"] = sweep_s
    return summary


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+")
    parser.add_argument("--seed", type=int, default=3, help="series and CV seed (default 3)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.checkouts[0], args.seed)))
        return
    print(f"{'checkout':<24} {'kind':<6} {'time s':>7} {'streams':>7} {'problems':>8} "
          f"{'prob-it':>8} {'it med':>6} {'rounds':>6} {'rows/rd':>7} {'tail rd':>7} "
          f"{'tail s':>6} {'rows/tr':>7} "
          f"{'unconv':>6} {'gap med':>8} {'gap p99':>8} {'gap max':>8} "
          f"{'short max':>9} {'>1e-3':>5}")
    for checkout in args.checkouts:
        out = subprocess.run(
            [sys.executable, __file__, checkout, "--child", "--seed", str(args.seed)],
            check=True, capture_output=True, text=True).stdout
        summary = json.loads(out)
        for kind in ("cv", "final"):
            s = summary[kind]
            print(f"{Path(checkout).name[-24:]:<24} {kind:<6} {s['time_s']:7.2f} "
                  f"{s['streams']:7d} {s['problems']:8d} {s['problem_iterations']:8d} "
                  f"{s['iterations_median']:6.0f} {s['rounds']:6d} "
                  f"{s['rows_per_round']:7.1f} {s['tail_rounds']:7d} {s['tail_s']:6.2f} "
                  f"{s['tail_rows_per_round']:7.1f} "
                  f"{s['nonconverged']:6d} {s['gap_median']:8.1e} {s['gap_p99']:8.1e} "
                  f"{s['gap_max']:8.1e} {s['shortfall_max']:9.1e} "
                  f"{s['shortfalls_above_1e3']:5d}")
        print(f"{Path(checkout).name[-24:]:<24} sweeps {summary['sweep_s']:7.2f} s "
              f"(recording included)")


if __name__ == "__main__":
    main()
