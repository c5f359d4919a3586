"""Command-line entry point.

Subcommands:

* ``synth``   -- generate a benchmark series (CSV + .truth sidecar)
* ``score``   -- compute change scores for a CSV series
* ``detect``  -- ``score`` plus alarms/ROC/report when ground truth exists
* ``eval``    -- evaluate an existing scores CSV against a truth file
* ``bench``   -- AUC benchmark over (dataset, estimator, run) cells

Exit code 0 on success; on failure a single line
``error: <category>: <message>`` goes to stderr and the exit code is 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import bench, dataio
from .detector import SCORE_MODES, DetectorConfig, ScoreSeries, change_scores
from .errors import ChangePointError, ParameterError
from .estimators import ESTIMATOR_KINDS
from .evaluation import find_peaks, roc_curve
from .model_selection import CvGrid
from .synthgen import SynthSpec, generate

# the library's defaults are the flags' defaults
_DEFAULTS = DetectorConfig()


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    config, grid = _DEFAULTS, _DEFAULTS.grid
    parser.add_argument("--n", type=int, default=config.n, help="segment sample count")
    parser.add_argument("--k", type=int, default=config.k, help="window length")
    parser.add_argument("--alpha", type=float, default=config.alpha,
                        help="relative-ratio parameter (rulsif only)")
    parser.add_argument("--score-mode", choices=SCORE_MODES, default=config.score_mode)
    parser.add_argument("--stride", type=int, default=config.stride)
    parser.add_argument("--cv-stride", type=int, default=config.cv_stride,
                        help="re-run CV every this many positions")
    parser.add_argument("--no-clip", action="store_true",
                        help="keep raw (possibly negative) divergence terms")
    parser.add_argument("--standardize", action="store_true",
                        help="z-score each dimension over the whole series")
    parser.add_argument("--sigma-factors", type=_float_list,
                        default=grid.sigma_factors,
                        help="comma-separated multiples of the median distance")
    parser.add_argument("--lambdas", type=_float_list, default=grid.lambdas,
                        help="comma-separated ridge candidates")
    parser.add_argument("--folds", type=int, default=grid.folds)
    parser.add_argument("--seed", type=int, default=grid.seed)


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    grid = CvGrid(
        sigma_factors=args.sigma_factors,
        lambdas=args.lambdas,
        folds=args.folds,
        seed=args.seed,
    )
    return DetectorConfig(
        n=args.n,
        k=args.k,
        alpha=args.alpha,
        estimator_kind=args.estimator,
        score_mode=args.score_mode,
        stride=args.stride,
        cv_stride=args.cv_stride,
        clip_negative=not args.no_clip,
        standardize=args.standardize,
        grid=grid,
    )


def _config_echo(config: DetectorConfig) -> dict:
    """The report's flat echo of the detector setting that ran."""
    echo = asdict(config)
    grid = echo.pop("grid")
    echo["estimator"] = echo.pop("estimator_kind")
    return echo | grid


def _write_eval_outputs(out: Path, name: str, estimator: str,
                        alarms, truths, config: dict) -> None:
    curve = roc_curve(alarms, truths, len(truths))
    dataio.write_alarms_csv(out.with_suffix(".alarms.csv"), alarms)
    dataio.write_roc_csv(out.with_suffix(".roc.csv"), curve)
    report = {
        "schema": bench.SCHEMA_VERSION,
        "dataset": name,
        "estimator": estimator,
        "runs": 1,
        "auc_mean": curve.auc,
        "auc_std": 0.0,
        "per_run": [
            {
                "run": 0,
                "auc": curve.auc,
                "n_alarms": len(alarms.times),
                "n_cp": len(truths),
            }
        ],
        "config": config,
        "conventions": bench._CONVENTIONS,
    }
    dataio.write_json_report(out.with_suffix(".report.json"), report)
    print(f"auc {curve.auc!r}")
    print(f"wrote {out.with_suffix('.alarms.csv')}")
    print(f"wrote {out.with_suffix('.roc.csv')}")
    print(f"wrote {out.with_suffix('.report.json')}")


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        dataset_id=args.dataset,
        length=args.length,
        segment_len=args.segment_len,
        seed=args.seed,
    )
    series = generate(spec)
    out = Path(args.out)
    csv_path = out.with_suffix(".csv")
    truth_path = out.with_suffix(".truth")
    dataio.write_series_csv(csv_path, series)
    dataio.write_truth(truth_path, series.change_points)
    print(f"wrote {csv_path}")
    print(f"wrote {truth_path}")
    return 0


def _require_truths(truths, path) -> None:
    """An empty truth file is an error, not a series without truth."""
    if not truths:
        raise ParameterError(f"{path}: no change points listed")


def cmd_detect(args: argparse.Namespace) -> int:
    """``score`` and ``detect``: ``score`` stops after writing the scores."""
    series = dataio.ingest_csv(args.input)
    if args.subcommand == "detect" and series.change_points is not None:
        _require_truths(series.change_points, dataio.truth_path_for(args.input))
    config = _detector_config(args)
    scores = change_scores(series, config)
    out = Path(args.out)
    dataio.write_scores_csv(out.with_suffix(".scores.csv"), scores.boundaries,
                            scores.scores)
    print(f"wrote {out.with_suffix('.scores.csv')}")
    if args.subcommand == "score":
        return 0
    if series.change_points:
        alarms = find_peaks(scores)
        _write_eval_outputs(out, series.name, config.estimator_kind, alarms,
                            series.change_points, _config_echo(config))
    else:
        print("no truth sidecar found; wrote scores only")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    boundaries, values = dataio.read_scores_csv(args.scores)
    truths = dataio.read_truth(args.truth)
    _require_truths(truths, args.truth)
    scores = ScoreSeries(boundaries=boundaries, scores=values)
    alarms = find_peaks(scores)
    out = Path(args.out)
    _write_eval_outputs(out, Path(args.scores).stem, args.label, alarms, truths,
                        {"scores": str(args.scores), "truth": str(args.truth)})
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    report = bench.run_bench(
        datasets=args.datasets,
        estimators=args.estimators.split(","),
        runs=args.runs,
        seed=args.seed,
        length=args.length,
        segment_len=args.segment_len,
        config=_detector_config(args),
        jobs=args.jobs,
    )
    table = bench.format_table(report)
    out = Path(args.out)
    dataio.write_json_report(out.with_suffix(".json"), report)
    with open(out.with_suffix(".txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table)
    print(table, end="")
    print(f"wrote {out.with_suffix('.json')}")
    print(f"wrote {out.with_suffix('.txt')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcpd",
        description="Change-point detection by direct density-ratio estimation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_synth = sub.add_parser("synth", help="generate a benchmark series")
    p_synth.add_argument("--dataset", type=int, required=True, choices=(1, 2, 3, 4))
    p_synth.add_argument("--length", type=int, default=SynthSpec.length)
    p_synth.add_argument("--segment-len", type=int, default=SynthSpec.segment_len)
    p_synth.add_argument("--seed", type=int, default=SynthSpec.seed)
    p_synth.add_argument("--out", required=True, help="output stem")
    p_synth.set_defaults(func=cmd_synth)

    for name, help_text in (("score", "compute change scores"),
                            ("detect", "scores plus alarm evaluation")):
        p_detect = sub.add_parser(name, help=help_text)
        p_detect.add_argument("input", help="input CSV (rows=time, cols=dims)")
        p_detect.add_argument("--out", required=True, help="output stem")
        p_detect.add_argument("--estimator", choices=ESTIMATOR_KINDS,
                              default=_DEFAULTS.estimator_kind)
        _add_detector_flags(p_detect)
        p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("eval", help="evaluate an existing scores CSV")
    p_eval.add_argument("scores", help="scores CSV (boundary,score)")
    p_eval.add_argument("--truth", required=True, help="truth file")
    p_eval.add_argument("--out", required=True, help="output stem")
    p_eval.add_argument("--label", default="external",
                        help="estimator label for the report")
    p_eval.set_defaults(func=cmd_eval)

    # no abbreviations, so --estimator is not taken for --estimators
    p_bench = sub.add_parser("bench", help="AUC benchmark over datasets",
                             allow_abbrev=False)
    p_bench.add_argument("--datasets", type=_int_list, default=(1, 2, 3, 4))
    p_bench.add_argument("--estimators", default=",".join(ESTIMATOR_KINDS),
                         help="comma-separated estimator kinds")
    p_bench.add_argument("--runs", type=int, default=10)
    p_bench.add_argument("--length", type=int, default=SynthSpec.length)
    p_bench.add_argument("--segment-len", type=int, default=SynthSpec.segment_len)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    p_bench.add_argument("--out", required=True, help="output stem")
    _add_detector_flags(p_bench)
    # the config template's estimator; run_bench sets each cell's own
    p_bench.set_defaults(func=cmd_bench, estimator=_DEFAULTS.estimator_kind)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChangePointError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
