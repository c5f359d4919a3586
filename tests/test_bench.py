import copy

from relcpd.bench import run_one


def test_run_one_leaves_the_callers_kwargs_unchanged():
    detector_kwargs = {
        "n": 10,
        "k": 3,
        "stride": 5,
        "cv_stride": 5,
        "grid_kwargs": {"sigma_factors": (1.0,), "lambdas": (0.1,), "folds": 2},
    }
    before = copy.deepcopy(detector_kwargs)
    first = run_one(1, "ulsif", 0, 5, 300, 100, detector_kwargs)
    assert detector_kwargs == before
    assert run_one(1, "ulsif", 0, 5, 300, 100, detector_kwargs) == first
