import os
import sys
from pathlib import Path

import pytest

# One OpenBLAS thread per process, set before numpy is imported: c07's two
# worker processes and the rest of the suite share a 2-core machine, and
# more BLAS threads than cores only add contention.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# make the shared oracle helpers importable from any test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _sweep_pool_closed_after_each_test():
    """Join the detector's sweep pool after every test, so that no worker
    forked under one test's monkeypatches serves the next test."""
    yield
    from relcpd import detector

    detector._close_workers()


_CRITERIA = {
    "test_c01": "1  analytic-solution residuals",
    "test_c02": "2  alpha=0 reduction",
    "test_c03": "3  KLIEP feasibility + ascent + gradient",
    "test_c04": "4  divergence oracle agreement",
    "test_c05": "5  null calibration",
    "test_c06a": "6a variance-switch replica: symmetric detects both",
    "test_c06b": "6b variance-switch replica: forward misses second",
    "test_c07": "7  benchmark table reproduction",
    "test_c08": "8  ROC oracle equivalence",
    "test_c09": "9  generator golden files + correlations",
    "test_c10": "10 bench determinism",
}


def pytest_terminal_summary(terminalreporter):
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = report.nodeid.split("::")[-1]
            for prefix in sorted(_CRITERIA, key=len, reverse=True):
                if name.startswith(prefix):
                    verdict = "PASS" if status == "passed" else "FAIL"
                    lines.append((status in ("failed", "error"),
                                  f"criterion {_CRITERIA[prefix]}: {verdict}"))
                    break
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(set(lines), key=lambda x: x[1]):
            terminalreporter.write_line(line)
