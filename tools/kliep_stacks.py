"""Measure the KLIEP ascent on the stacks that fixed sweeps send it.

Runs one fixed-seed 2000-point KLIEP sweep of each generator (datasets 1-4)
with the benchmark's detector setting (n=50, k=10, stride 5, cv_stride 5) in
one process, and records every ``kliep_ascent`` stack that
``estimators.kliep_stacks`` fits, tagged CV or final by the module that
called it.  For each checkout and each kind of stack (CV, final) it prints:

* the time spent in ``kliep_ascent`` (counting included; it varied by about
  25% between processes on one 2-core machine, so compare the counts first)
  and the problem count;
* problem-iterations (summed over problems) and lockstep iterations (the
  longest problem of each stack, summed over stacks);
* the candidate steps tried, the backtracking rounds (calls of
  ``estimators._try_steps``) and the kernel rows they gathered: a round
  passed the indices of pending problems gathers their rows unless they are
  the whole stack, and a round passed none spans the whole stack;
* the fits not reported converged;
* the certified gap log max_l (grad_theta f)_l / b_l at the returned theta,
  as the ascent returns it, its median, 99th percentile and maximum;
* the shortfall f_EM - f against EM_UPDATES multiplicative EM updates on
  every EM_EVERY-th problem (a lower bound on the true shortfall).

    python3 tools/kliep_stacks.py <checkout> [<checkout> ...] [--seed 3]

Each checkout runs in a child process that imports the package from its
``src``, which must have ``estimators.kliep_stacks`` and a ``kliep_ascent``
that returns the gap.  CV stacks are the same in every checkout; final-fit
stacks follow the bandwidths CV selects, so they can differ where the fits
do.  Not a test; pytest does not collect it.
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
    """Child process: sweep, record every stack, return the per-kind totals."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from relcpd import (CvGrid, DetectorConfig, SynthSpec, change_scores, detector,
                        estimators, generate, model_selection)
    from relcpd.seeding import mix_seed

    stats = {kind: {"time_s": 0.0, "stacks": 0, "problems": 0, "problem_iterations": 0,
                    "lockstep_iterations": 0, "candidates": 0, "rounds": 0,
                    "rows_gathered": 0, "nonconverged": 0,
                    "iterations": [], "gaps": [], "shortfalls": []} for kind in ("cv", "final")}
    current = []
    try_steps = estimators._try_steps

    def counting_try_steps(stack, w, grad, objective, steps, *pending):
        s = stats[current[-1]]
        s["candidates"] += int(steps.size)
        s["rounds"] += 1
        if pending and pending[0].size < len(stack):
            s["rows_gathered"] += int(pending[0].size)
        return try_steps(stack, w, grad, objective, steps, *pending)

    def tagging(kind, kliep_stacks):
        def wrapper(problems, count):
            current.append(kind)
            try:
                return kliep_stacks(problems, count)
            finally:
                current.pop()
        return wrapper

    def recording(ascent):
        def wrapper(k_num, b_vec, *args, **kwargs):
            k_orig, b_orig = k_num.copy(), b_vec.copy()
            start = time.perf_counter()
            out = ascent(k_num, b_vec, *args, **kwargs)
            elapsed = time.perf_counter() - start
            theta, objective, iterations, converged, gap = out
            s = stats[current[-1]]
            s["time_s"] += elapsed
            s["stacks"] += 1
            s["problems"] += len(theta)
            s["problem_iterations"] += int(iterations.sum())
            s["lockstep_iterations"] += int(iterations.max())
            s["nonconverged"] += int((~converged).sum())
            s["gaps"] += gap.tolist()
            s["iterations"] += iterations.tolist()
            index = s["problems"] - len(theta) + np.arange(len(theta))  # within the kind
            picked = np.flatnonzero(index % EM_EVERY == 0)
            if picked.size:
                f_em = em_objectives(k_orig[picked], b_orig[picked], EM_UPDATES)
                s["shortfalls"] += (f_em - objective[picked]).tolist()
            return out
        return wrapper

    estimators._try_steps = counting_try_steps
    estimators.kliep_ascent = recording(estimators.kliep_ascent)
    model_selection.kliep_stacks = tagging("cv", model_selection.kliep_stacks)
    detector.kliep_stacks = tagging("final", detector.kliep_stacks)
    detector._worker_count = lambda tasks: 1  # every stack in this process
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
    print(f"{'checkout':<24} {'stacks':<6} {'time s':>7} {'problems':>8} {'prob-it':>8} "
          f"{'it med':>6} {'lockstep':>8} {'cands':>8} {'rounds':>6} {'gathered':>8} "
          f"{'unconv':>6} {'gap med':>8} "
          f"{'gap p99':>8} {'gap max':>8} {'short max':>9} {'>1e-3':>5}")
    for checkout in args.checkouts:
        out = subprocess.run(
            [sys.executable, __file__, checkout, "--child", "--seed", str(args.seed)],
            check=True, capture_output=True, text=True).stdout
        summary = json.loads(out)
        for kind in ("cv", "final"):
            s = summary[kind]
            print(f"{Path(checkout).name[-24:]:<24} {kind:<6} {s['time_s']:7.2f} "
                  f"{s['problems']:8d} {s['problem_iterations']:8d} "
                  f"{s['iterations_median']:6.0f} "
                  f"{s['lockstep_iterations']:8d} {s['candidates']:8d} "
                  f"{s['rounds']:6d} {s['rows_gathered']:8d} "
                  f"{s['nonconverged']:6d} {s['gap_median']:8.1e} {s['gap_p99']:8.1e} "
                  f"{s['gap_max']:8.1e} {s['shortfall_max']:9.1e} "
                  f"{s['shortfalls_above_1e3']:5d}")
        print(f"{Path(checkout).name[-24:]:<24} sweeps {summary['sweep_s']:7.2f} s "
              f"(recording included)")


if __name__ == "__main__":
    main()
