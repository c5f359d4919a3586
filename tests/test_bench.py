from dataclasses import replace

import pytest

from relcpd import bench
from relcpd.detector import DetectorConfig
from relcpd.errors import ParameterError
from relcpd.model_selection import CvGrid
from relcpd.seeding import mix_seed


def test_run_bench_derives_every_run_config_from_the_template(monkeypatch):
    template = DetectorConfig(
        n=10, k=3, alpha=0.2, estimator_kind="kliep", stride=5, cv_stride=5,
        clip_negative=False,
        grid=CvGrid(sigma_factors=(1.0, 0.5), lambdas=(0.1,), folds=2, seed=77),
    )
    seen = []

    def fake_run_one(dataset_id, run_index, master_seed, length, segment_len, config):
        seen.append((dataset_id, run_index, config))
        return 0.5

    monkeypatch.setattr(bench, "run_one", fake_run_one)
    report = bench.run_bench((1, 2), ("ulsif", "rulsif"), runs=2, seed=5,
                             length=300, config=template)
    assert seen == [
        (d, r, replace(template, estimator_kind=e,
                       grid=replace(template.grid, seed=mix_seed(5, 2, d, r))))
        for d in (1, 2)
        for e in ("ulsif", "rulsif")
        for r in range(2)
    ]
    assert report["config"]["detector"] == {
        "n": 10, "k": 3, "alpha": 0.2, "score_mode": "symmetric", "stride": 5,
        "cv_stride": 5, "clip_negative": False, "standardize": False,
    }
    assert report["config"]["grid"] == {
        "sigma_factors": (0.5, 1.0), "lambdas": (0.1,), "folds": 2,
    }
    assert [c["auc_mean"] for c in report["cells"]] == [0.5] * 4


def test_duplicated_datasets_and_estimators_run_each_cell_once(monkeypatch):
    calls = []

    def fake_run_one(dataset_id, run_index, master_seed, length, segment_len, config):
        calls.append((dataset_id, config.estimator_kind, run_index))
        return 0.5

    monkeypatch.setattr(bench, "run_one", fake_run_one)
    report = bench.run_bench([1, 1, 2], ["ulsif", "ulsif"], runs=2, seed=0,
                             length=300, config=DetectorConfig(n=10, k=3))
    assert sorted(calls) == [(d, "ulsif", r) for d in (1, 2) for r in range(2)]
    assert report["config"]["datasets"] == [1, 2]
    assert report["config"]["estimators"] == ["ulsif"]
    assert [(c["dataset"], c["runs"]) for c in report["cells"]] == [(1, 2), (2, 2)]


@pytest.mark.parametrize("name, value", [
    ("runs", 1.5), ("seed", 2.7), ("jobs", 1.0), ("length", 300.0), ("segment_len", 100.5),
    ("datasets", (1, 2.0)),
])
def test_non_integral_counts_and_seeds_rejected_before_any_run(monkeypatch, name, value):
    # these used to run truncated: runs 1.5 and seed 2.7 as runs 1 and seed 2
    monkeypatch.setattr(bench, "run_one", lambda *args: pytest.fail("a run started"))
    kwargs = dict(datasets=(1,), estimators=("ulsif",), runs=1, seed=2, length=300,
                  segment_len=100, config=DetectorConfig(n=10, k=3), jobs=1)
    with pytest.raises(ParameterError, match="must be an integer"):
        bench.run_bench(**{**kwargs, name: value})
