"""Per-layer spans for the traced run.

The tracer replaces public ``relcpd`` functions at the names their callers
look up (``relcpd.detector.cv_select``, ``relcpd.model_selection.kliep_fit``,
...) with wrappers that time each call.  Nothing under ``src/`` changes, and
the originals are put back by ``restore``.  A span's self time is its
duration minus the durations of the spans opened inside it, so the self
times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        # name -> [inclusive seconds, self seconds, calls]
        self.spans: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, seconds covered by child spans]
        self._patches: list[tuple] = []

    def call(self, name: str, fn, *args, after=None, **kwargs):
        """Run ``fn`` inside a span; ``after(args, result, seconds)`` may
        record counts taken from the arguments or the result."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            entry = self.spans[name]
            entry[0] += dur
            entry[1] += dur - frame[1]
            entry[2] += 1
            if self._stack:
                self._stack[-1][1] += dur
        if after is not None:
            after(args, out, dur)
        return out

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, after=after, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def count_calls(self, module, attr: str, name: str) -> None:
        """Count calls without a span, for calls too cheap to time."""
        original = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def cv_flops(num, den, grid, kind: str) -> float:
    """Arithmetic in ``cv_select``'s own code (KLIEP fits and the median
    distance are spans of their own): a multiply-add counts 2, an exp 1, a
    Cholesky factorisation n^3/3 and its two triangular solves 2 n^2."""
    m_num, dim = np.shape(num)
    m_den = np.shape(den)[0]
    c = m_num  # centers are the numerator samples
    hold_num = [len(b) for b in np.array_split(np.arange(m_num), grid.folds)]
    hold_den = [len(b) for b in np.array_split(np.arange(m_den), grid.folds)]
    flops = 3.0 * dim * c * (m_num + m_den)
    per_sigma = 2.0 * c * (m_num + m_den)
    for h_num, h_den in zip(hold_num, hold_den):
        if kind == "kliep":
            per_sigma += 2.0 * h_num * c + h_num
            continue
        per_sigma += 2.0 * c * c * ((m_num - h_num) + (m_den - h_den)) + 4.0 * c * c
        per_sigma += len(grid.lambdas) * (
            c**3 / 3.0 + 2.0 * c * c + 2.0 * c * (h_num + h_den) + 3.0 * (h_num + h_den)
        )
    return flops + len(grid.sigma_factors) * per_sigma


def install(tracer: Tracer, relcpd) -> None:
    """Wrap every layer boundary the timed phase crosses."""
    det, ms, est = relcpd.detector, relcpd.model_selection, relcpd.estimators
    counts = tracer.counts

    def on_cv(args, out, dur):
        counts["cv_flops"] += cv_flops(args[0], args[1], args[2], args[3])

    def on_kliep(args, out, dur):
        counts["estimators.kliep_fit.calls"] += 1
        counts["estimators.kliep_fit.s"] += dur
        counts["estimators.kliep_fit.iterations"] += out[1].iterations
        counts["estimators.kliep_fit.nonconverged"] += not out[1].converged

    def on_scores(args, out, dur):
        counts["detector.positions"] += len(out.scores)

    def on_peaks(args, out, dur):
        counts["evaluation.alarms"] += len(out.times)

    def on_write(args, out, dur):
        counts["dataio.bytes_written"] += os.path.getsize(args[0])

    tracer.wrap(det, "build_windows", "embedding.build_windows")
    tracer.wrap(det, "segment_pair", "embedding.segment_pair")
    tracer.wrap(det, "cv_select", "model_selection.cv_select", on_cv)
    tracer.wrap(ms, "median_distance", "kernel.median_distance")
    tracer.wrap(ms, "kliep_fit", "estimators.kliep_fit", on_kliep)
    tracer.wrap(det, "design_matrices", "kernel.design_matrices")
    tracer.wrap(det, "ulsif_fit", "estimators.fit")
    tracer.wrap(det, "rulsif_fit", "estimators.fit")
    tracer.wrap(det, "kliep_fit", "estimators.fit", on_kliep)
    tracer.wrap(det, "pe_alpha_estimate", "estimators.divergence")
    tracer.wrap(det, "kl_estimate", "estimators.divergence")
    tracer.count_calls(est, "cho_factor", "estimators.cholesky.calls")
    # the benchmark calls the package-level names, the CLI its own imports
    for module in (relcpd, relcpd.cli):
        tracer.wrap(module, "change_scores", "detector.change_scores", on_scores)
        tracer.wrap(module, "find_peaks", "evaluation.find_peaks", on_peaks)
        tracer.wrap(module, "roc_curve", "evaluation.roc_curve")
    tracer.wrap(relcpd.cli, "main", "cli.main")
    tracer.wrap(relcpd.dataio, "ingest_csv", "dataio.ingest_csv")
    for attr in ("write_scores_csv", "write_alarms_csv", "write_roc_csv", "write_json_report"):
        tracer.wrap(relcpd.dataio, attr, "dataio.write", on_write)


# (name, unit): the per-layer metrics, each per round of the workload
LAYER_METRICS = (
    ("model_selection.cv_select.calls", "count"),
    ("model_selection.cv_select.self_s", "s"),
    ("model_selection.cv_select.ms_per_call", "ms"),
    ("model_selection.cv_select.gflops_per_s", "GFLOP/s"),
    ("estimators.fit.calls", "count"),
    ("estimators.fit.s", "s"),
    ("estimators.kliep_fit.calls", "count"),
    ("estimators.kliep_fit.s", "s"),
    ("estimators.kliep_fit.iterations", "count"),
    ("estimators.kliep_fit.nonconverged", "count"),
    ("estimators.cholesky.calls", "count"),
    ("estimators.divergence.calls", "count"),
    ("estimators.divergence.s", "s"),
    ("kernel.design_matrices.calls", "count"),
    ("kernel.design_matrices.s", "s"),
    ("kernel.median_distance.calls", "count"),
    ("kernel.median_distance.s", "s"),
    ("embedding.build_windows.s", "s"),
    ("embedding.segment_pair.calls", "count"),
    ("embedding.segment_pair.s", "s"),
    ("detector.positions", "count"),
    ("detector.change_scores.s", "s"),
    ("detector.self_s", "s"),
    ("evaluation.find_peaks.s", "s"),
    ("evaluation.roc_curve.s", "s"),
    ("evaluation.alarms", "count"),
    ("dataio.ingest_csv.s", "s"),
    ("dataio.write.s", "s"),
    ("dataio.bytes_written", "bytes"),
    ("cli.main.self_s", "s"),
    ("synthgen.generate.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def layer_values(tracer: Tracer, rounds: int, generate_s: float, overhead_s: float) -> dict:
    """Per-round values of LAYER_METRICS from the spans of ``rounds`` traced
    rounds, whose root span is ``timed``."""
    spans, counts = tracer.spans, tracer.counts

    def incl(name):
        return spans[name][0] if name in spans else 0.0

    def self_s(name):
        return spans[name][1] if name in spans else 0.0

    def calls(name):
        return spans[name][2] if name in spans else 0

    cv_calls = calls("model_selection.cv_select")
    cv_self = self_s("model_selection.cv_select")
    raw = {
        "model_selection.cv_select.calls": cv_calls,
        "model_selection.cv_select.self_s": cv_self,
        "estimators.fit.calls": calls("estimators.fit"),
        "estimators.fit.s": incl("estimators.fit"),
        "estimators.divergence.calls": calls("estimators.divergence"),
        "estimators.divergence.s": incl("estimators.divergence"),
        "kernel.design_matrices.calls": calls("kernel.design_matrices"),
        "kernel.design_matrices.s": incl("kernel.design_matrices"),
        "kernel.median_distance.calls": calls("kernel.median_distance"),
        "kernel.median_distance.s": incl("kernel.median_distance"),
        "embedding.build_windows.s": incl("embedding.build_windows"),
        "embedding.segment_pair.calls": calls("embedding.segment_pair"),
        "embedding.segment_pair.s": incl("embedding.segment_pair"),
        "detector.change_scores.s": incl("detector.change_scores"),
        "detector.self_s": self_s("detector.change_scores"),
        "evaluation.find_peaks.s": incl("evaluation.find_peaks"),
        "evaluation.roc_curve.s": incl("evaluation.roc_curve"),
        "dataio.ingest_csv.s": incl("dataio.ingest_csv"),
        "dataio.write.s": incl("dataio.write"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.unattributed_s": self_s("timed"),
    }
    for name in (
        "estimators.kliep_fit.calls", "estimators.kliep_fit.s",
        "estimators.kliep_fit.iterations", "estimators.kliep_fit.nonconverged",
        "estimators.cholesky.calls", "detector.positions", "evaluation.alarms",
        "dataio.bytes_written",
    ):
        raw[name] = counts.get(name, 0)
    out = {name: value / rounds for name, value in raw.items()}
    out["model_selection.cv_select.ms_per_call"] = (
        1e3 * incl("model_selection.cv_select") / cv_calls if cv_calls else 0.0
    )
    out["model_selection.cv_select.gflops_per_s"] = (
        counts.get("cv_flops", 0.0) / cv_self / 1e9 if cv_self > 0 else 0.0
    )
    out["synthgen.generate.s"] = generate_s
    out["trace.overhead_s"] = overhead_s
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS}


def span_table(tracer: Tracer, rounds: int) -> dict:
    """Inclusive seconds, self seconds and calls per span, per round."""
    return {
        name: {"inclusive_s": v[0] / rounds, "self_s": v[1] / rounds, "calls": v[2] / rounds}
        for name, v in sorted(tracer.spans.items())
    }
