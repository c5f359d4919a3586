"""Sweep benchmark for relcpd.

    python3 perfbench/run.py --workload rulsif-cv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Builds nothing: it puts the checkout's ``src`` on the import path and drives
the public ``relcpd`` API.  Each run sets up the workload's series, then
times whole rounds (every series once per round) until the next round would
end past ``--seconds``; at least one round always runs.  Untraced rounds
interleave a calibration loop that rescales the rate to a fixed machine
speed.  The outputs of the first round are checked by ``perfcheck``, and
every round must reproduce the first one's score digests.  The last line of standard output is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics (from
a separate, traced process) with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The per-call matrices are 50 x 50; BLAS threads only add synchronisation
# and noise there, so the benchmark runs single-threaded unless told otherwise.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# numpy and the modules that use it are imported inside functions, after
# set-up has imported relcpd, so that set-up time includes the numpy and
# scipy imports a fresh process pays for relcpd.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SIGMA_FACTORS = (0.6, 0.8, 1.0, 1.2, 1.4)
LAMBDAS = (1e-3, 1e-2, 1e-1, 1e0, 1e1)
N, K = 50, 10
SETUP_REPEATS = 3
# share of a traced round that spans may leave unattributed
TRACE_MARGIN = 0.01
# calibrate() repeats its loop this often; positions_per_s is expressed in
# seconds of a machine on which one call takes CALIBRATION_REF_S (calls took
# 0.07-0.11 s on the machine the README describes, as its load varied)
CALIBRATION_REPS = 450
CALIBRATION_REF_S = 0.1
WARMUP_LENGTH = 150

WORKLOADS = {
    # paper setting and ROADMAP baseline; CV dominates
    "rulsif-cv": dict(kind="rulsif", alpha=0.1, length=5000, per_dataset=1,
                      stride=5, cv_stride=5, cli=False),
    # projected-gradient ascent dominates; no Cholesky solve anywhere
    "kliep-cv": dict(kind="kliep", alpha=0.0, length=2000, per_dataset=2,
                     stride=5, cv_stride=5, cli=False),
    # per-position path (final fit, design matrices, divergence) through the CLI
    "ulsif-dense-cli": dict(kind="ulsif", alpha=0.0, length=5000, per_dataset=2,
                            stride=1, cv_stride=500, cli=True),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def calibrate() -> float:
    """Seconds for a fixed numpy loop shaped like the detector's inner work:
    pairwise distances, a Gaussian kernel, a 50 x 50 Gram matrix and solve.

    The machine's speed drifts by up to +-15% over minutes, for this loop
    and the detector alike.  Untraced rounds run it before the first series
    and after each one, and ``positions_per_s`` and ``setup_s`` rescale wall
    time by the run's median call to the speed at which a call takes
    CALIBRATION_REF_S.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(50, 10)), rng.normal(size=(50, 10))
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        k = np.exp(-((x[:, None, :] - y[None, :, :]) ** 2).sum(-1) / 20.0)
        np.linalg.solve(k.T @ k / 50 + 0.1 * np.eye(50), k.mean(axis=0))
    return time.perf_counter() - start


def write_inputs(stem: Path, series) -> None:
    """The CLI's input: one CSV row per time step and a ``.truth`` sidecar."""
    with open(stem.with_suffix(".csv"), "w", encoding="utf-8", newline="\n") as fh:
        for row in series.values.T:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    stem.with_suffix(".truth").write_text(
        "".join(f"{c}\n" for c in series.change_points), encoding="utf-8")


class Workload:
    """The generated series, the detector settings and, for the CLI
    workload, the input files."""

    def __init__(self, name: str, seed: int, workdir: Path, tracer=None) -> None:
        import relcpd
        import relcpd.cli
        from perfcheck import mix_seed

        if tracer is not None:
            tracer.wrap(relcpd, "generate", "synthgen.generate")
        spec = WORKLOADS[name]
        self.name, self.seed, self.spec, self.relcpd = name, seed, spec, relcpd
        self.master = mix_seed(seed, 2) >> 1  # the CLI's --seed is a signed int
        self.series = [
            relcpd.generate(relcpd.SynthSpec(
                dataset_id=ds, length=spec["length"], seed=mix_seed(seed, 1, ds, copy)))
            for ds in (1, 2, 3, 4)
            for copy in range(spec["per_dataset"])
        ]
        if tracer is not None:
            tracer.restore()
        self.config = relcpd.DetectorConfig(
            n=N, k=K, alpha=spec["alpha"], estimator_kind=spec["kind"],
            stride=spec["stride"], cv_stride=spec["cv_stride"],
            grid=relcpd.CvGrid(sigma_factors=SIGMA_FACTORS, lambdas=LAMBDAS,
                               seed=self.master),
        )
        self.workdir = workdir
        if spec["cli"]:
            for i, s in enumerate(self.series):
                write_inputs(workdir / f"series{i}", s)
        self.warm_up()

    def cli_argv(self, stem: Path, out: Path) -> list[str]:
        spec = self.spec
        return [
            "detect", str(stem.with_suffix(".csv")), "--out", str(out),
            "--n", str(N), "--k", str(K), "--estimator", spec["kind"],
            "--alpha", repr(spec["alpha"]), "--stride", str(spec["stride"]),
            "--cv-stride", str(spec["cv_stride"]),
            "--sigma-factors", ",".join(map(repr, SIGMA_FACTORS)),
            "--lambdas", ",".join(map(repr, LAMBDAS)),
            "--seed", str(self.master),
        ]

    def warm_up(self) -> None:
        """One short sweep through the same path, so lazy imports and
        first-call costs land in set-up rather than in the first round."""
        relcpd = self.relcpd
        head = self.series[0]
        short = relcpd.TimeSeries(
            head.values[:, :WARMUP_LENGTH],
            change_points=tuple(c for c in head.change_points if c <= WARMUP_LENGTH),
        )
        if self.spec["cli"]:
            write_inputs(self.workdir / "warmup", short)
            self.score_cli("warmup", "warmup-out")
        else:
            self.score_library(short)

    def score_cli(self, stem: str, out: str):
        """One in-process ``relcpd detect``; its output stem stands for the
        result, None when it fails (the CLI prints the error)."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.relcpd.cli.main(self.cli_argv(self.workdir / stem, self.workdir / out))
        return self.workdir / out if code == 0 else None

    def score_library(self, series):
        """change_scores -> find_peaks -> roc_curve, None when it fails."""
        relcpd = self.relcpd
        try:
            scores = relcpd.change_scores(series, self.config)
            alarms = relcpd.find_peaks(scores)
            curve = relcpd.roc_curve(alarms, series.change_points, len(series.change_points))
        except relcpd.errors.ChangePointError as exc:
            print(f"perfbench: {exc.category}: {exc}", file=sys.stderr)
            return None
        return scores, alarms, curve

    def run_round(self, calibrations: list | None = None):
        """Score every series once; returns (raw outputs, failed operations,
        seconds spent in the scoring calls).  Given a list, calibrate() runs
        before the first series and after each one, into that list."""
        if calibrations is not None:
            calibrations.append(calibrate())
        outputs, seconds = [], 0.0
        for i, s in enumerate(self.series):
            start = time.perf_counter()
            if self.spec["cli"]:
                outputs.append(self.score_cli(f"series{i}", f"run{i}"))
            else:
                outputs.append(self.score_library(s))
            seconds += time.perf_counter() - start
            if calibrations is not None:
                calibrations.append(calibrate())
        return outputs, sum(o is None for o in outputs), seconds

    def collect(self, raw) -> dict | None:
        """One series' result in the checker's terms, outside the timed phase."""
        if raw is None:
            return None
        if self.spec["cli"]:
            return read_cli_outputs(raw)
        import perfcheck

        scores, alarms, curve = raw
        return dict(boundaries=scores.boundaries, scores=scores.scores,
                    alarms=list(zip(alarms.times, alarms.scores)), auc=curve.auc,
                    digest=perfcheck.score_digest(scores.scores))


def read_cli_outputs(out: Path) -> dict:
    """Parse the CLI's files with the benchmark's own readers."""
    import numpy as np

    digest = hashlib.sha256()
    for suffix in (".scores.csv", ".alarms.csv", ".roc.csv", ".report.json"):
        digest.update(out.with_suffix(suffix).read_bytes())
    rows = out.with_suffix(".scores.csv").read_text(encoding="utf-8").splitlines()[1:]
    boundaries = tuple(int(r.split(",")[0]) for r in rows)
    scores = np.array([float(r.split(",")[1]) for r in rows])
    alarm_rows = out.with_suffix(".alarms.csv").read_text(encoding="utf-8").splitlines()[1:]
    alarms = [(int(r.split(",")[0]), float(r.split(",")[1])) for r in alarm_rows]
    report = json.loads(out.with_suffix(".report.json").read_text(encoding="utf-8"))
    return dict(boundaries=boundaries, scores=scores, alarms=alarms,
                auc=report["per_run"][0]["auc"], report_auc=report["auc_mean"],
                digest=digest.hexdigest())


def check_outputs(work: Workload, outputs: list, rng_seed: int) -> list[str]:
    """Every independent check of perfcheck on one round's outputs."""
    import numpy as np
    import perfcheck

    relcpd, spec = work.relcpd, work.spec

    def select(num, den, fold_seed):
        grid = relcpd.CvGrid(sigma_factors=SIGMA_FACTORS, lambdas=LAMBDAS, seed=fold_seed)
        sel = relcpd.cv_select(num, den, grid, spec["kind"], spec["alpha"])
        return sel.best_sigma, sel.best_lambda

    rng = np.random.default_rng(rng_seed)
    errors = []
    for i, (s, out) in enumerate(zip(work.series, outputs)):
        if out is None:
            continue
        found = perfcheck.check_scores(
            s.values, out["boundaries"], out["scores"], n=N, k=K,
            stride=spec["stride"], cv_stride=spec["cv_stride"], kind=spec["kind"],
            alpha=spec["alpha"], sigma_factors=SIGMA_FACTORS, lambdas=LAMBDAS,
            master=work.master, select=select, rng=rng)
        found += perfcheck.check_alarms(
            out["boundaries"], out["scores"], out["alarms"], s.change_points, out["auc"])
        if "report_auc" in out and out["report_auc"] != out["auc"]:
            found.append("report auc_mean differs from its single run's auc")
        errors += [f"series {i}: {e}" for e in found]
    return errors


def source_digest() -> str:
    """Digest of the program and of the benchmark that feeds it."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "relcpd").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_digests_across_runs(work: Workload, digests: list) -> list[str]:
    """Outputs of one seed must hash the same in every process that runs it
    on the same source tree; the first process records them."""
    path = OUT / "digests" / f"{work.name}-seed{work.seed}.json"
    current = {"source": source_digest(), "series": digests}
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous["source"] == current["source"]:
            if previous["series"] != digests:
                return [f"score digests differ from an earlier run of seed {work.seed}"]
            return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(current), encoding="utf-8")
    os.replace(tmp, path)
    return []


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def timed_setup(name: str, seed: int, workdir: Path, tracer=None) -> tuple[Workload, float]:
    start = time.perf_counter()
    work = Workload(name, seed, workdir, tracer)
    return work, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        fail(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def traced_round(work: Workload, tracer):
    """One round with every layer boundary wrapped; the round is the root span."""
    import perftrace

    perftrace.install(tracer, work.relcpd)
    try:
        return tracer.call("timed", work.run_round)
    finally:
        tracer.restore()


def run_rounds(work: Workload, seconds: float, tracer=None, calibrations=None):
    """Whole rounds until the next one would end past ``seconds``.

    With a tracer, an untraced and a traced round alternate, so that their
    difference is the tracing overhead.  Returns the seconds of the untraced
    and of the traced rounds, every round's collected outputs and the failed
    operations."""
    untraced, traced, outputs, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        rounds = [work.run_round(calibrations)]
        if tracer:
            rounds.append(traced_round(work, tracer))
        for i, (raw, round_failed, round_s) in enumerate(rounds):
            (traced if i else untraced).append(round_s)
            outputs.append([work.collect(r) for r in raw])
            failed += round_failed
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) > seconds:
            return untraced, traced, outputs, failed


def one_workload(args) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tracer = setup_tracer = None
        if args.trace:
            import perftrace

            tracer, setup_tracer = perftrace.Tracer(), perftrace.Tracer()
        work, setup_s = timed_setup(args.workload, args.seed, workdir, setup_tracer)
        calibrations = None if args.trace else []
        untraced, traced, outputs, failed = run_rounds(
            work, args.seconds, tracer, calibrations)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_start = time.perf_counter()
        errors = check_outputs(work, outputs[0], args.seed)
        digests = [[o["digest"] if o else None for o in r] for r in outputs]
        if any(d != digests[0] for d in digests):
            errors.append("a round's score digests differ from the first round's")
        errors += check_digests_across_runs(work, digests[0])
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(work.series) * len(outputs)
    first = [o for o in outputs[0] if o is not None]
    auc_mean = statistics.fmean(o["auc"] for o in first) if first else float("nan")
    positions = sum(len(o["scores"]) for o in first)
    facts = machine_facts()
    if args.trace:
        import perftrace

        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = perftrace.layer_values(
            tracer, len(traced), setup_tracer.spans["synthgen.generate"][0], overhead)
        unattributed = metrics["trace.unattributed_s"]["value"] / statistics.fmean(traced)
        if unattributed > TRACE_MARGIN:
            errors.append(f"spans leave {unattributed:.2%} of the traced rounds unattributed")
        artefact = {
            "workload": args.workload, "seed": args.seed, "machine": facts,
            "check_s": check_s, "rounds_traced": len(traced), "round_s_traced": traced,
            "round_s_untraced": untraced, "unattributed_share": unattributed,
            "spans": perftrace.span_table(tracer, len(traced)),
            "metrics": metrics,
        }
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(artefact, indent=2) + "\n", encoding="utf-8")
    else:
        setup_samples = [setup_s] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        wall_rate = positions * len(untraced) / sum(untraced)
        speed = CALIBRATION_REF_S / statistics.median(calibrations)
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples) * speed, "unit": "s"},
            "positions_per_s": {"value": wall_rate / speed, "unit": "1/s"},
            "auc_mean": {"value": auc_mean, "unit": "AUC"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        artefact = {
            "workload": args.workload, "seed": args.seed, "machine": facts,
            "check_s": check_s, "setup_s_samples": setup_samples, "round_s": untraced,
            "wall_positions_per_s": wall_rate, "calibration_s": calibrations,
            "positions_per_round": positions, "series_auc": [o["auc"] for o in first],
            "metrics": metrics,
        }
        (OUT / f"result-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(artefact, indent=2) + "\n", encoding="utf-8")
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def all_workloads(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail(f"workload {name} exited {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "relcpd" / "__init__.py").is_file():
        fail(f"no relcpd sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        OUT.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            _, seconds = timed_setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(repr(seconds))
        return 0
    if args.workload == "all":
        return all_workloads(args)
    return one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
