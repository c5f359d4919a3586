"""Compare the files that the command line writes between two checkouts of
this repository.

    python3 tools/cli_diff.py <checkout A> <checkout B>

In each checkout it runs one fixed list of ``relcpd`` commands, each in a
fresh interpreter that imports the package from the checkout's ``src``:

* ``synth`` for datasets 1-4 (1000 points, seed 7);
* ``detect`` with each estimator at stride 3, cv_stride 4 on dataset 1;
* ``detect`` with uLSIF at stride 1, cv_stride 50 on dataset 2;
* ``score`` with RuLSIF at n = 53 on dataset 3;
* ``detect`` with RuLSIF at k = 4 with ``--standardize`` on a 3-d series,
  dataset 3's two columns beside dataset 1's column, with dataset 3's truth;
* ``detect`` forward-only with uLSIF and backward-only with KLIEP on
  dataset 2;
* ``detect`` with RuLSIF at n = 200, stride 5, cv_stride 5 on dataset 1;
* ``eval`` of the n = 53 scores against dataset 3's truth;
* ``bench`` with the flags of acceptance test c10 at ``--jobs 1`` and at
  ``--jobs 2``.

It prints one line per file, with each checkout's sha256 (its first 16 hex
digits): every file the commands write, and each command's standard output
as ``<stem>.stdout``.  The commands run in a temporary directory with paths
relative to it, so the input paths that the ``eval`` report records read the
same in both checkouts, and nothing is normalized.  Like ``diff``, it exits
1 when any file differs or is missing on one side, and 0 when all are equal.
Only flags that the command line has had since its first versions are used,
so it runs against older checkouts too.  Not a test; pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# runs relcpd's command line with sys.argv[1:]; exits with its code
RUN = "import sys; from relcpd.cli import main; sys.exit(main(sys.argv[1:]))"
SYNTH = ["--length", "1000", "--seed", "7"]
SPARSE = ["--stride", "3", "--cv-stride", "4", "--seed", "3"]
C10 = ["--datasets", "1", "--estimators", "rulsif,kliep", "--runs", "2",
       "--length", "800", "--segment-len", "100", "--n", "30", "--k", "5",
       "--stride", "10", "--cv-stride", "10", "--seed", "99"]


def commands() -> list[list[str]]:
    """The command lines, in order; each writes the stem after ``--out``.
    ``3d.csv`` is built just before the command that reads it."""
    synth = [["synth", "--dataset", str(d), *SYNTH, "--out", f"ds{d}"] for d in (1, 2, 3, 4)]
    detect = [["detect", "ds1.csv", "--out", f"{e}-sparse", "--estimator", e, *SPARSE]
              for e in ("rulsif", "ulsif", "kliep")]
    detect += [
        ["detect", "ds2.csv", "--out", "ulsif-dense", "--estimator", "ulsif",
         "--stride", "1", "--cv-stride", "50"],
        ["score", "ds3.csv", "--out", "rulsif-n53", "--estimator", "rulsif",
         "--n", "53", *SPARSE],
        ["detect", "3d.csv", "--out", "rulsif-3d-k4", "--estimator", "rulsif",
         "--k", "4", "--standardize", *SPARSE],
        ["detect", "ds2.csv", "--out", "ulsif-forward", "--estimator", "ulsif",
         "--score-mode", "forward", *SPARSE],
        ["detect", "ds2.csv", "--out", "kliep-backward", "--estimator", "kliep",
         "--score-mode", "backward", *SPARSE],
        ["detect", "ds1.csv", "--out", "rulsif-n200", "--estimator", "rulsif",
         "--n", "200", "--stride", "5", "--cv-stride", "5"],
        ["eval", "rulsif-n53.scores.csv", "--truth", "ds3.truth", "--out", "eval"],
        ["bench", "--out", "c10-jobs1", "--jobs", "1", *C10],
        ["bench", "--out", "c10-jobs2", "--jobs", "2", *C10],
    ]
    return synth + detect


def write_3d(workdir: Path) -> None:
    """``3d.csv``: each row of ds3.csv followed by that row of ds1.csv, and
    ``3d.truth``, a copy of ds3.truth."""
    left = (workdir / "ds3.csv").read_text(encoding="utf-8").splitlines()
    right = (workdir / "ds1.csv").read_text(encoding="utf-8").splitlines()
    rows = [f"{a},{b}\n" for a, b in zip(left, right, strict=True)]
    (workdir / "3d.csv").write_text("".join(rows), encoding="utf-8")
    (workdir / "3d.truth").write_bytes((workdir / "ds3.truth").read_bytes())


def run_checkout(checkout: Path) -> dict[str, str]:
    """sha256 of every file that the commands leave, by name."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for argv in commands():
            if argv[1] == "3d.csv":
                write_3d(workdir)
            done = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=workdir, env=env,
                                  capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.exit(f"cli_diff: {checkout}: relcpd {' '.join(argv)} failed:\n"
                         f"{done.stderr}")
            stem = argv[argv.index("--out") + 1]
            (workdir / f"{stem}.stdout").write_text(done.stdout, encoding="utf-8")
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(workdir.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    args = parser.parse_args(argv)
    side_a, side_b = run_checkout(args.checkout_a), run_checkout(args.checkout_b)
    print(f"{'file':<30} {'sha256 A':<16} {'sha256 B':<16}")
    differ = 0
    for name in sorted(side_a.keys() | side_b.keys()):
        a, b = side_a.get(name, "missing"), side_b.get(name, "missing")
        differ += a != b
        print(f"{name:<30} {a[:16]:<16} {b[:16]:<16}{'' if a == b else '  DIFFERS'}")
    print(f"{differ} of {len(side_a.keys() | side_b.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
