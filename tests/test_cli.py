import json
import os

import numpy as np
import pytest

from relcpd import bench, dataio
from relcpd.cli import _detector_config, build_parser, main
from relcpd.detector import DetectorConfig
from relcpd.synthgen import SynthSpec
from relcpd.errors import EmptyInputError, InvalidDataError, ParseError


class TestIngest:
    def test_single_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1\n2\n3\n")
        series = dataio.ingest_csv(p)
        assert series.d == 1 and series.length == 3
        assert series.values.tolist() == [[1.0, 2.0, 3.0]]
        assert series.name == "a"

    def test_header_detected(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        series = dataio.ingest_csv(p)
        assert series.d == 2 and series.length == 2
        assert series.values.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="row 2"):
            dataio.ingest_csv(p)

    def test_bad_cell_coordinates(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            dataio.ingest_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(EmptyInputError):
            dataio.ingest_csv(p)

    def test_truth_sidecar(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("\n".join(str(v) for v in range(1, 21)) + "\n")
        (tmp_path / "f.truth").write_text("5\n11\n")
        series = dataio.ingest_csv(p)
        assert series.change_points == (5, 11)

    def test_bad_truth_rejected(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("1\n2\n3\n")
        (tmp_path / "g.truth").write_text("3\n2\n")
        with pytest.raises(InvalidDataError):
            dataio.ingest_csv(p)


def test_flag_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["detect", "series.csv", "--out", "out"])
    assert _detector_config(args) == DetectorConfig()
    args = build_parser().parse_args(["synth", "--dataset", "1", "--out", "out"])
    spec = SynthSpec(args.dataset)
    assert (args.length, args.segment_len, args.seed) == (spec.length, spec.segment_len,
                                                          spec.seed)


class TestSynthCommand:
    def test_deterministic_outputs(self, tmp_path):
        args = ["synth", "--dataset", "1", "--seed", "7", "--length", "500",
                "--segment-len", "100"]
        assert main(args + ["--out", str(tmp_path / "x")]) == 0
        assert main(args + ["--out", str(tmp_path / "y")]) == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.truth").read_bytes() == (tmp_path / "y.truth").read_bytes()

    def test_dataset3_two_columns(self, tmp_path):
        main(["synth", "--dataset", "3", "--length", "300", "--segment-len", "100",
              "--out", str(tmp_path / "d3")])
        first = (tmp_path / "d3.csv").read_text().splitlines()[0]
        assert len(first.split(",")) == 2

    def test_truth_contents_default_run(self, tmp_path):
        main(["synth", "--dataset", "1", "--out", str(tmp_path / "full")])
        truth = dataio.read_truth(tmp_path / "full.truth")
        assert truth == tuple(range(101, 5000, 100))
        assert len(truth) == 49


def _make_input(tmp_path, seed=0, t_len=160, step_at=80):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=t_len)
    y[step_at:] += 3.0
    p = tmp_path / "series.csv"
    p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
    (tmp_path / "series.truth").write_text(f"{step_at + 1}\n")
    return p


DETECT_FLAGS = ["--n", "20", "--k", "5", "--stride", "5", "--cv-stride", "2",
                "--seed", "3"]


class TestScoreDetectEval:
    def test_score_writes_scores_csv(self, tmp_path):
        p = _make_input(tmp_path)
        assert main(["score", str(p), "--out", str(tmp_path / "out")]
                    + DETECT_FLAGS) == 0
        bounds, values = dataio.read_scores_csv(tmp_path / "out.scores.csv")
        assert len(bounds) == len(values) > 0
        assert bounds[0] == 21
        assert not (tmp_path / "out.report.json").exists()  # truth is not used

    def test_detect_full_outputs(self, tmp_path, capsys):
        p = _make_input(tmp_path)
        assert main(["detect", str(p), "--out", str(tmp_path / "out")]
                    + DETECT_FLAGS) == 0
        for suffix in (".scores.csv", ".alarms.csv", ".roc.csv", ".report.json"):
            assert (tmp_path / "out").with_suffix(suffix).exists()
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert report["schema"] == 1
        assert report["runs"] == 1
        assert 0.0 <= report["auc_mean"] <= 1.0
        assert report["per_run"][0]["n_cp"] == 1

    def test_report_echoes_the_grid_that_ran(self, tmp_path):
        p = _make_input(tmp_path)
        main(["detect", str(p), "--out", str(tmp_path / "out"), "--sigma-factors",
              "1.4,0.6,1.0,1.0", "--lambdas", "1,0.1"] + DETECT_FLAGS)
        config = json.loads((tmp_path / "out.report.json").read_text())["config"]
        assert config == {
            "n": 20, "k": 5, "alpha": 0.1, "estimator": "rulsif",
            "score_mode": "symmetric", "stride": 5, "cv_stride": 2,
            "clip_negative": True, "standardize": False,
            "sigma_factors": [0.6, 1.0, 1.4], "lambdas": [0.1, 1.0], "folds": 5,
            "seed": 3,
        }

    def test_detect_without_truth(self, tmp_path, capsys):
        p = _make_input(tmp_path)
        (tmp_path / "series.truth").unlink()
        assert main(["detect", str(p), "--out", str(tmp_path / "out")]
                    + DETECT_FLAGS) == 0
        assert (tmp_path / "out.scores.csv").exists()
        assert not (tmp_path / "out.report.json").exists()

    def test_detect_rejects_an_empty_truth_sidecar_as_eval_does(self, tmp_path, capsys):
        p = _make_input(tmp_path)
        (tmp_path / "series.truth").write_text("")
        main(["score", str(p), "--out", str(tmp_path / "s")] + DETECT_FLAGS)
        capsys.readouterr()
        expected = f"error: parameter: {tmp_path / 'series.truth'}: no change points listed\n"
        assert main(["eval", str(tmp_path / "s.scores.csv"), "--truth",
                     str(tmp_path / "series.truth"), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err == expected
        assert main(["detect", str(p), "--out", str(tmp_path / "d")] + DETECT_FLAGS) == 2
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "d.scores.csv").exists()  # rejected before the sweep

    def test_flat_stretch_error_line_is_the_same_at_any_worker_count(self, tmp_path,
                                                                      capsys, monkeypatch):
        y = np.random.default_rng(0).normal(size=600)
        y[250:420] = 0.0
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            assert main(["detect", str(p), "--out", str(tmp_path / "o")]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: degenerate-bandwidth:")
        assert errors[0].endswith("(at position t=222, boundary 272)\n")

    def test_kliep_zero_denominator_kernel_error_line(self, tmp_path, capsys, monkeypatch):
        y = np.random.default_rng(0).normal(size=600)
        y[300] = 100.0
        p = tmp_path / "spike.csv"
        p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            assert main(["detect", str(p), "--out", str(tmp_path / "o"), "--estimator",
                         "kliep", "--stride", "5", "--cv-stride", "5"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: degenerate-bandwidth: a center's mean "
                                    "denominator kernel value underflows to 0")
        assert errors[0].endswith("(at position t=276, boundary 326)\n")

    def test_alpha_zero_reduction_via_cli(self, tmp_path):
        p = _make_input(tmp_path)
        main(["detect", str(p), "--out", str(tmp_path / "r"), "--estimator",
              "rulsif", "--alpha", "0"] + DETECT_FLAGS)
        main(["detect", str(p), "--out", str(tmp_path / "u"), "--estimator",
              "ulsif"] + DETECT_FLAGS)
        _, rv = dataio.read_scores_csv(tmp_path / "r.scores.csv")
        _, uv = dataio.read_scores_csv(tmp_path / "u.scores.csv")
        np.testing.assert_allclose(rv, uv, atol=1e-10, rtol=0)

    def test_mode_sum_with_singleton_grid(self, tmp_path):
        p = _make_input(tmp_path)
        flags = DETECT_FLAGS + ["--no-clip", "--sigma-factors", "1.0",
                                "--lambdas", "0.1"]
        for mode in ("symmetric", "forward", "backward"):
            main(["detect", str(p), "--out", str(tmp_path / mode),
                  "--score-mode", mode] + flags)
        _, sym = dataio.read_scores_csv(tmp_path / "symmetric.scores.csv")
        _, fwd = dataio.read_scores_csv(tmp_path / "forward.scores.csv")
        _, bwd = dataio.read_scores_csv(tmp_path / "backward.scores.csv")
        np.testing.assert_array_equal(sym, fwd + bwd)

    def test_eval_subcommand(self, tmp_path):
        p = _make_input(tmp_path)
        main(["score", str(p), "--out", str(tmp_path / "s")] + DETECT_FLAGS)
        assert main(["eval", str(tmp_path / "s.scores.csv"), "--truth",
                     str(tmp_path / "series.truth"), "--out",
                     str(tmp_path / "e")]) == 0
        report = json.loads((tmp_path / "e.report.json").read_text())
        assert report["schema"] == 1
        assert (tmp_path / "e.roc.csv").exists()
        assert (tmp_path / "e.alarms.csv").exists()

    @pytest.mark.parametrize("scores, row, message", [
        # rows are counted as in the file, header included
        pytest.param("boundary,score\n1,0.5\n2,nan\n5,inf\n", 3,
                     "score is not finite: 'nan'", id="nan-score"),
        pytest.param("1,0.5\n2,0.1\n5,inf\n", 3, "score is not finite: 'inf'",
                     id="inf-score"),
        pytest.param("1,0.5\n2.5,0.1\n", 2, "boundary is not an integer: '2.5'",
                     id="non-integral-boundary"),
        pytest.param("1,0.5\n3,0.1\n3,0.2\n", 3, "boundaries must increase strictly",
                     id="repeated-boundary"),
        pytest.param("4,0.5\n3,0.1\n", 2, "boundaries must increase strictly",
                     id="decreasing-boundary"),
    ])
    def test_eval_rejects_a_bad_scores_file_and_writes_nothing(self, tmp_path, capsys,
                                                               scores, row, message):
        (tmp_path / "s.csv").write_text(scores)
        (tmp_path / "t.truth").write_text("2\n")
        assert main(["eval", str(tmp_path / "s.csv"), "--truth", str(tmp_path / "t.truth"),
                     "--out", str(tmp_path / "e")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: parse: {tmp_path / 's.csv'}: row {row}: ")
        assert message in captured.err
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.csv", "t.truth"]

    def test_eval_rejects_a_header_only_scores_file_as_ingest_does(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("boundary,score\n")
        (tmp_path / "t.truth").write_text("2\n")
        assert main(["eval", str(tmp_path / "s.csv"), "--truth", str(tmp_path / "t.truth"),
                     "--out", str(tmp_path / "e")]) == 2
        expected = f"error: empty-input: {tmp_path / 's.csv'}: header only, no data rows\n"
        assert capsys.readouterr().err == expected
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.csv", "t.truth"]
        with pytest.raises(EmptyInputError, match="header only, no data rows"):
            dataio.ingest_csv(tmp_path / "s.csv")

    @pytest.mark.parametrize("truth", ["100\n100\n", "0\n-5\n"])
    def test_eval_rejects_truth_that_detect_rejects(self, tmp_path, capsys, truth):
        p = _make_input(tmp_path)
        main(["score", str(p), "--out", str(tmp_path / "s")] + DETECT_FLAGS)
        (tmp_path / "bad.truth").write_text(truth)
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "s.scores.csv"), "--truth",
                     str(tmp_path / "bad.truth"), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid-data:")
        assert not (tmp_path / "e.report.json").exists()
        (tmp_path / "series.truth").write_text(truth)  # the same rule for detect
        assert main(["detect", str(p), "--out", str(tmp_path / "d")] + DETECT_FLAGS) == 2
        assert capsys.readouterr().err.startswith("error: invalid-data:")

    def test_insufficient_data_error(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        p.write_text("1\n2\n3\n")
        code = main(["detect", str(p), "--out", str(tmp_path / "o")]
                    + DETECT_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: insufficient-data:")
        assert "44" in err  # 2n + k - 1 for n=20, k=5

    def test_missing_file_error(self, tmp_path, capsys):
        code = main(["detect", str(tmp_path / "nope.csv"), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: io:")

    def test_degenerate_error_category(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        p.write_text("\n".join("1.0" for _ in range(60)) + "\n")
        code = main(["detect", str(p), "--out", str(tmp_path / "o")]
                    + DETECT_FLAGS)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: degenerate-bandwidth:")


BENCH_FLAGS = ["--datasets", "1", "--estimators", "rulsif", "--runs", "2",
               "--length", "800", "--segment-len", "100", "--n", "30", "--k", "5",
               "--stride", "10", "--cv-stride", "10", "--seed", "11"]


class TestBenchCommand:
    def test_repeat_and_parallel_identical(self, tmp_path):
        main(["bench", "--out", str(tmp_path / "a"), "--jobs", "1"] + BENCH_FLAGS)
        main(["bench", "--out", str(tmp_path / "b"), "--jobs", "1"] + BENCH_FLAGS)
        main(["bench", "--out", str(tmp_path / "c"), "--jobs", "2"] + BENCH_FLAGS)
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        assert a == (tmp_path / "c.json").read_bytes()

    def test_report_schema(self, tmp_path):
        main(["bench", "--out", str(tmp_path / "r"), "--datasets", "1,2",
              "--estimators", "rulsif,kliep", "--runs", "1", "--length", "400",
              "--segment-len", "100", "--n", "20", "--k", "5", "--stride", "10",
              "--cv-stride", "10", "--seed", "2"])
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["schema"] == 1
        cells = {(c["dataset"], c["estimator"]) for c in report["cells"]}
        assert cells == {(1, "rulsif"), (1, "kliep"), (2, "rulsif"), (2, "kliep")}
        for cell in report["cells"]:
            assert cell["status"] == "ok"
            assert cell["runs"] == 1
        assert (tmp_path / "r.txt").exists()

    def test_too_short_series_fails_every_cell_and_still_reports(self, tmp_path):
        assert main(["bench", "--out", str(tmp_path / "f"), "--datasets", "1,2",
                     "--estimators", "rulsif,kliep", "--runs", "2", "--length", "100",
                     "--n", "50", "--k", "5"]) == 0
        report = json.loads((tmp_path / "f.json").read_text())
        assert len(report["cells"]) == 4
        for cell in report["cells"]:
            assert cell["status"] == "failed"
            assert cell["failed_run"] == 0
            assert cell["error"].startswith("insufficient-data:")
        assert "failed" in (tmp_path / "f.txt").read_text()

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_rejected(self, tmp_path, capsys, runs):
        code = main(["bench", "--out", str(tmp_path / "z"), "--runs", runs]
                    + BENCH_FLAGS[:4])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: parameter:")
        assert not (tmp_path / "z.json").exists()

    def test_unknown_estimator_rejected_before_any_run(self, tmp_path, capsys,
                                                       monkeypatch):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench, "run_one", no_run)
        code = main(["bench", "--out", str(tmp_path / "u"), "--estimators",
                     "rulsif,bogus", "--runs", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: parameter:")

    @pytest.mark.parametrize("flag, value", [("--datasets", "1,5"), ("--jobs", "0"),
                                             ("--jobs", "-3"), ("--datasets", "")])
    def test_bad_dataset_or_jobs_rejected_before_any_run(self, tmp_path, capsys,
                                                         monkeypatch, flag, value):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench, "run_one", no_run)
        code = main(["bench", "--out", str(tmp_path / "v"), "--estimators", "ulsif",
                     "--runs", "1", flag, value])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: parameter:")
        assert not (tmp_path / "v.json").exists()

    def test_single_estimator_flag_not_accepted(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--out", str(tmp_path / "e"), "--estimator", "kliep"]
                 + BENCH_FLAGS)
        assert exc.value.code == 2
