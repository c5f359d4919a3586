"""What it costs to start relcpd in a fresh interpreter.

    python3 tools/import_cost.py [--runs 5] [checkout ...]

For each checkout (by default this one) it runs five cases, each in
``--runs`` fresh interpreters that import the package from the checkout's
``src``, the cases taking turns: ``import relcpd, relcpd.cli``, ``relcpd
--help``, ``relcpd synth`` (a 1000-point dataset-1 series), and ``relcpd
detect`` with KLIEP and with RuLSIF on that series (n=50, k=10, stride 5,
cv_stride 5, on the machine's default worker count).  Per case it prints the
median wall time from start to exit as the parent sees it, the median
``ru_maxrss`` of the interpreter itself and the largest of its reaped
worker processes (``-`` where it forked none), and the scipy modules loaded
at exit: their count and the packages one level below ``scipy``.

Not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs the case given as argv[2] (Python source) with sys.argv[3:] as its
# arguments and, at exit, writes its peak RSS, its reaped workers' peak and
# its loaded scipy modules, as JSON, to the path in argv[1].
BOOT = """
import atexit, json, resource, sys
report, case = sys.argv[1:3]
del sys.argv[1:3]

def _report():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    modules = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
    with open(report, 'w') as fh:
        json.dump([rss, workers, modules], fh)

atexit.register(_report)
exec(case)
"""

CLI = """
from relcpd.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exit:  # --help
    code = exit.code
if code:
    raise SystemExit(code)
"""

DETECT = ["--n", "50", "--k", "10", "--stride", "5", "--cv-stride", "5"]


def cases(workdir: Path) -> dict:
    """(case source, arguments) by name; ``synth`` writes the series that
    the ``detect`` cases read."""
    series = str(workdir / "series")
    return {
        "import relcpd, relcpd.cli": ("import relcpd, relcpd.cli", []),
        "relcpd --help": (CLI, ["--help"]),
        "relcpd synth": (CLI, ["synth", "--dataset", "1", "--length", "1000",
                               "--out", series]),
        "relcpd detect --estimator kliep": (
            CLI, ["detect", series + ".csv", "--out", str(workdir / "kliep"),
                  "--estimator", "kliep", *DETECT]),
        "relcpd detect --estimator rulsif": (
            CLI, ["detect", series + ".csv", "--out", str(workdir / "rulsif"),
                  "--estimator", "rulsif", *DETECT]),
    }


def run_once(checkout: Path, source: str, args: list, report: Path) -> tuple:
    """(wall seconds, own peak MB, workers' peak MB, scipy modules) of one
    fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", BOOT, str(report), source, *args],
                          env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"import_cost: {checkout}: {' '.join(args) or source} failed:\n"
                 f"{done.stderr}")
    rss, workers, modules = json.loads(report.read_text(encoding="utf-8"))
    return wall, rss / 1024.0, workers / 1024.0, modules


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    for checkout in args.checkouts:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            named = cases(workdir)
            results = {name: [] for name in named}
            for _ in range(args.runs):
                for name, (source, case_args) in named.items():
                    results[name].append(
                        run_once(checkout.resolve(), source, case_args, workdir / "report"))
        print(f"{checkout}  ({args.runs} runs each, medians)")
        print(f"  {'case':34s} {'wall s':>7s} {'RSS MB':>7s} {'workers':>8s}  scipy modules")
        for name, runs in results.items():
            wall, rss, workers = (statistics.median(r[i] for r in runs) for i in range(3))
            modules = runs[-1][3]
            packages = sorted({".".join(m.split(".")[:2]) for m in modules} - {"scipy"})
            loaded = f"{len(modules)}: {', '.join(packages)}" if modules else "none"
            print(f"  {name:34s} {wall:7.3f} {rss:7.1f} "
                  f"{f'{workers:.1f}' if workers else '-':>8s}  {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
