import json
import time
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from condsurv import (
    BenchConfig,
    TimeGrid,
    integrate_on_grid,
    make_model,
    mise_optimal_1d,
    region_metrics,
    relative_metrics,
    run_benchmark,
    scaling_study,
    winkler_scores,
    write_report,
)
from condsurv import benchmark
from condsurv.benchmark import BenchReport, _map_with_budget, _mise_function, _mise_optimal, report_to_dict
from condsurv.errors import SelectionFailedError
from condsurv.regions import ConfidenceRegion
from conftest import FakeClock


def mc_mise_at(model, h, g=None, *, n_samples, n, grid, seed):
    """Monte Carlo MISE at (h, g) against the model truth at x0, on the path the benchmark runs."""
    return _mise_function(model, grid, n_samples, n, seed)([(model.x0, (h, g))])[0]


class TestMcMise:
    def test_nonnegative_and_finite(self):
        model = make_model("model1", 0.2)
        grid = TimeGrid.uniform(model.t_max, 40)
        value = mc_mise_at(model, 0.3, n_samples=10, n=50, grid=grid, seed=1)
        assert 0.0 <= value < np.inf
        value2 = mc_mise_at(model, 0.3, 0.08, n_samples=10, n=50, grid=grid, seed=1)
        assert 0.0 <= value2 < np.inf

    def test_paper_scale_rmise_band(self):
        # reference study reports RMISE 0.02411 at the optimal bandwidth
        model = make_model("model1", 0.2)
        grid = TimeGrid.uniform(model.t_max, 100)
        value = mc_mise_at(model, 0.239, n_samples=100, n=400, grid=grid, seed=7)
        assert 0.015 <= np.sqrt(value) <= 0.04


class TestMiseOptimal:
    def test_finds_interior_optimum(self):
        model = make_model("model1", 0.2)
        grid = TimeGrid.uniform(model.t_max, 50)
        h, rmise = mise_optimal_1d(
            model, (0.05, 1.5), grid, n_samples=40, n=100, n_candidates=16, seed=3
        )
        assert 0.05 < h < 1.5
        assert 0.0 < rmise < 1.0

    def test_no_finite_mise_is_selection_failure(self):
        # at h ~ 1e-7 every kernel weight at x0 underflows, so no MISE is finite
        model = make_model("model1", 0.2)
        grid = TimeGrid.uniform(model.t_max, 20)
        kw = dict(n_samples=3, n=20, n_candidates=3, seed=3)
        with pytest.raises(SelectionFailedError):
            mise_optimal_1d(model, (1e-7, 2e-7), grid, **kw)
        with pytest.raises(SelectionFailedError):
            _mise_optimal(_mise_function(model, grid, 3, 20, 3), model.x0, ((1e-7, 2e-7), (0.05, 0.1)), 3)


class FakeSelection:
    def __init__(self, h, g=None):
        self.h_star = h
        self.g_star = g


class TestRelativeMetrics:
    def test_all_equal_gives_zero(self):
        sels = [FakeSelection(0.4) for _ in range(5)]
        out = relative_metrics(sels, 0.4, [0.1] * 5, 0.1)
        assert out.h_bar == 0.0
        assert out.r_bar == 0.0
        assert out.mean_h == pytest.approx(0.4)
        assert out.sd_h == 0.0

    def test_double_bandwidth(self):
        out = relative_metrics([FakeSelection(0.8)], 0.4, [0.12], 0.1)
        assert out.h_bar == pytest.approx(1.0)
        assert out.r_bar == pytest.approx(0.2)

    def test_hand_fixture_three_selections(self):
        sels = [FakeSelection(0.3), FakeSelection(0.5), FakeSelection(0.4)]
        rmise = [0.12, 0.11, 0.10]
        out = relative_metrics(sels, 0.4, rmise, 0.1)
        assert out.h_bar == pytest.approx((0.25 + 0.25 + 0.0) / 3)
        assert out.r_bar == pytest.approx((0.2 + 0.1 + 0.0) / 3)
        assert out.mean_rmise_selected == pytest.approx(0.11)

    def test_two_dimensional_euclidean_norm(self):
        sels = [FakeSelection(0.8, 0.1), FakeSelection(0.4, 0.2)]
        out = relative_metrics(sels, 0.4, [0.1, 0.1], 0.1, g_mise=0.1)
        # deviations: (1, 0) and (0, 1) give norms 1 and 1
        assert out.h_bar == pytest.approx(1.0)
        assert out.mean_g == pytest.approx(0.15)


class TestWinkler:
    def test_inside_equals_width(self):
        ws = winkler_scores([0.2, 0.3], [0.6, 0.7], [0.4, 0.5], 0.05)
        assert_allclose(ws, [0.4, 0.4])

    def test_below_lower_penalty(self):
        # truth 0.1 below the lower bound at alpha = 0.05: penalty 2/0.05 * 0.1 = 4
        ws = winkler_scores([0.5], [0.8], [0.4], 0.05)
        assert ws[0] == pytest.approx(0.3 + 4.0)

    def test_dominance(self):
        rng = np.random.default_rng(0)
        lower = rng.random(20) * 0.4
        upper = lower + rng.random(20) * 0.4
        truth = rng.random(20)
        ws = winkler_scores(lower, upper, truth, 0.1)
        assert np.all(ws >= upper - lower - 1e-15)


def _region_for(model, grid, lower, upper, level=0.95):
    return ConfidenceRegion(
        grid=grid,
        lower=np.asarray(lower, float),
        upper=np.asarray(upper, float),
        estimate=(np.asarray(lower, float) + np.asarray(upper, float)) / 2,
        method="method2",
        estimator_tag="beran",
        level=level,
        calibration=0.1,
        x0=model.x0,
    )


class TestRegionMetrics:
    def test_truth_inside_everywhere(self):
        model = make_model("model1", 0.2)
        grid = TimeGrid.uniform(model.t_max, 30)
        truth = model.true_survival(grid.points, model.x0)
        regions = [
            _region_for(model, grid, np.clip(truth - 0.1, 0, 1), np.clip(truth + 0.1, 0, 1))
            for _ in range(4)
        ]
        out = region_metrics(regions, model)
        assert out.coverage == 1.0
        assert out.pointwise_coverage == 1.0
        width_integral = integrate_on_grid(regions[0].upper - regions[0].lower, grid)
        assert out.iws == pytest.approx(width_integral)
        assert out.average_width == pytest.approx(np.mean(regions[0].upper - regions[0].lower))

    def test_partial_coverage(self):
        model = make_model("model1", 0.2)
        grid = TimeGrid.uniform(model.t_max, 10)
        truth = model.true_survival(grid.points, model.x0)
        inside = _region_for(model, grid, np.clip(truth - 0.05, 0, 1), np.clip(truth + 0.05, 0, 1))
        miss_one = _region_for(
            model, grid,
            np.concatenate([[truth[0] + 0.01], np.clip(truth[1:] - 0.05, 0, 1)]),
            np.clip(truth + 0.06, 0, 1),
        )
        out = region_metrics([inside, miss_one], model)
        assert out.coverage == 0.5
        assert out.pointwise_coverage == pytest.approx((1.0 + 0.9) / 2)


class TestRunBenchmark:
    def test_bandwidth_smoke(self, tmp_path):
        config = BenchConfig(
            model="model1", censoring=0.2, estimator="beran", mode="bandwidth",
            n=20, n_samples=1, B=1, n_grid=12, seed=5,
            strategy="grid", grid_size=6, mise_samples=4, mise_grid=5,
        )
        report = run_benchmark(config)
        assert report.samples_completed == 1
        assert not report.incomplete
        assert np.isfinite(report.h_mise)
        assert np.isfinite(report.rmise_at_optimal)
        bm = report.bandwidth_metrics
        assert np.isfinite([bm.mean_h, bm.sd_h, bm.h_bar, bm.r_bar, bm.mean_rmise_selected]).all()
        write_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["mode"] == "bandwidth"
        assert "regions" not in data
        table = (tmp_path / "bandwidth_table.csv").read_text().splitlines()
        assert table[0] == "metric,value"

    @pytest.mark.parametrize("estimator, evals, builds", [("beran", 3, 0), ("smoothed-beran", 9, 3)])
    def test_bandwidth_report_sums_the_search_counts(self, tmp_path, estimator, evals, builds):
        config = BenchConfig(
            model="model1", censoring=0.2, estimator=estimator, mode="bandwidth",
            n=20, n_samples=2, B=2, n_grid=10, seed=5,
            strategy="grid", grid_size=3, mise_samples=3, mise_grid=3,
        )
        report = run_benchmark(config)
        assert report.samples_completed == 2
        # a grid of 3 points per axis: 3 or 9 evaluations and one tensor per g, per sample
        assert report.search["objective_evals"] == 2 * evals
        assert report.search["tensor_builds"] == 2 * builds
        assert 0 <= report.search["nonfinite_evals"] <= report.search["objective_evals"]
        write_report(report, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["search"] == report.search

    def test_regions_smoke(self, tmp_path):
        config = BenchConfig(
            model="model1", censoring=0.2, estimator="beran", mode="regions",
            n=30, n_samples=2, B=5, n_grid=10, seed=6,
            bandwidth_h=0.3, alpha=0.2, keep_regions=True,
        )
        report = run_benchmark(config)
        assert report.samples_completed == 2
        metrics = report.region_metrics_by_method
        assert set(metrics) == {"method1", "method2"}
        for entry in metrics.values():
            for value in entry.values():
                assert np.isfinite(value)
        assert len(report.regions[1]) == 2
        write_report(report, tmp_path)
        table = (tmp_path / "region_table.csv").read_text().splitlines()
        assert table[0] == "metric,method1,method2"
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["bandwidth_h"] == 0.3

    def test_report_json_encodes_numpy_values(self, tmp_path):
        report = BenchReport(
            model="model1", censoring=np.float32(0.5), estimator="beran", mode="regions",
            n=np.int64(30), n_samples=2, B=5, n_grid=10, seed=6, samples_completed=2,
            incomplete=False, h_stars=np.array([0.25, 0.5]),
        )
        write_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert type(data["censoring"]) is float and data["censoring"] == 0.5
        assert type(data["n"]) is int and data["n"] == 30
        assert data["h_stars"] == [0.25, 0.5]

    def test_budget_zero_marks_incomplete(self):
        config = BenchConfig(
            model="model1", censoring=0.2, estimator="beran", mode="bandwidth",
            n=20, n_samples=3, B=1, n_grid=10, seed=5,
            strategy="grid", grid_size=4, mise_samples=3, mise_grid=4,
            budget_seconds=1e-9,  # the smallest budget accepted; it runs out in the MISE search
        )
        report = run_benchmark(config)
        assert report.incomplete
        assert report.samples_completed < 3

    def test_budget_bounds_the_ground_truth_search(self, monkeypatch):
        import condsurv.benchmark as benchmark

        evaluated = []
        original = benchmark._mean_integrated_sq

        def counted(*args):
            evaluated.append(args)
            return original(*args)

        monkeypatch.setattr(benchmark, "_mean_integrated_sq", counted)
        config = BenchConfig(
            model="model1", censoring=0.2, estimator="smoothed-beran", mode="bandwidth",
            n=20, n_samples=3, B=2, n_grid=10, seed=5, strategy="grid", grid_size=3,
            mise_samples=3, mise_grid=4, budget_seconds=1e-9,
        )
        report = run_benchmark(config)
        assert len(evaluated) <= 1
        assert report.incomplete and report.samples_completed == 0
        assert report.h_mise is None and report.g_mise is None

    def test_region_task_draws_one_batch_for_both_methods(self, monkeypatch):
        import condsurv.regions as regions
        from condsurv.benchmark import _sample_task
        from condsurv.estimators import _CurveBatch
        from condsurv.samples import TimeGrid
        from condsurv.simulation import make_model

        sizes = []

        class Counted(_CurveBatch):
            def __init__(self, samples, *rest):
                samples = list(samples)
                sizes.append(len(samples))
                super().__init__(samples, *rest)

        monkeypatch.setattr(regions, "_CurveBatch", Counted)
        config = BenchConfig(
            model="model1", censoring=0.2, estimator="smoothed-beran", mode="regions",
            n=40, n_samples=1, B=6, n_grid=10, seed=3, bandwidth_h=0.3, bandwidth_g=0.1,
        )
        model = make_model(config.model, config.censoring)
        found = _sample_task(config, model, TimeGrid.uniform(model.t_max, config.n_grid), None, 0.3, 0.1, 0)
        assert set(found) == {1, 2}
        assert sizes.count(config.B) == 1

    def test_worker_count_invariance(self):
        base = dict(
            model="model1", censoring=0.2, estimator="beran", mode="bandwidth",
            n=25, n_samples=4, B=3, n_grid=10, seed=11,
            strategy="grid", grid_size=5, mise_samples=3, mise_grid=4,
        )
        serial = run_benchmark(BenchConfig(**base, workers=1))
        parallel = run_benchmark(BenchConfig(**base, workers=2))
        assert report_to_dict(serial) == report_to_dict(parallel)

    @pytest.mark.parametrize("estimator, h, g", [("beran", None, None), ("smoothed-beran", 0.3, 0.1)])
    def test_regions_worker_count_invariance(self, estimator, h, g):
        base = dict(
            model="model1", censoring=0.2, estimator=estimator, mode="regions",
            n=25, n_samples=3, B=5, n_grid=10, seed=11, bandwidth_h=h, bandwidth_g=g,
            mise_samples=3, mise_grid=4,
        )
        serial = run_benchmark(BenchConfig(**base, workers=1))
        parallel = run_benchmark(BenchConfig(**base, workers=2))
        assert serial.samples_completed == 3
        assert report_to_dict(serial) == report_to_dict(parallel)

    def test_smoothed_bandwidth_mode_smoke(self):
        config = BenchConfig(
            model="model1", censoring=0.5, estimator="smoothed-beran", mode="bandwidth",
            n=25, n_samples=1, B=3, n_grid=10, seed=2,
            strategy="grid", grid_size=4, mise_samples=3, mise_grid=4,
        )
        report = run_benchmark(config)
        assert np.isfinite(report.g_mise)
        assert np.isfinite(report.bandwidth_metrics.mean_g)
        assert report.g_stars is not None

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BenchConfig(mode="nope")
        with pytest.raises(ValueError):
            BenchConfig(estimator="kaplan-meier")


@pytest.mark.parametrize("mode", ["bandwidth", "regions"])
def test_report_repeats_the_study_settings(mode):
    from dataclasses import fields

    config = BenchConfig(
        model="model2", censoring=0.5, estimator="smoothed-beran", mode=mode, n=23, n_samples=1, B=4,
        n_grid=9, seed=13, strategy="grid", grid_size=3, alpha=0.2, bandwidth_h=0.3, bandwidth_g=0.1,
        mise_samples=2, mise_grid=3,
    )
    report = run_benchmark(config)
    shared = {f.name for f in fields(BenchReport)} & {f.name for f in fields(BenchConfig)}
    settings = shared - {"bandwidth_h", "bandwidth_g"}
    assert settings == {"model", "censoring", "estimator", "mode", "n", "n_samples", "B", "n_grid", "seed", "alpha"}
    for name in settings - {"mode"}:
        assert getattr(config, name) != getattr(BenchConfig(), name)
    for name in settings:
        assert getattr(report, name) == getattr(config, name)


class TestScaling:
    def test_scaling_study_shape(self):
        model = make_model("model1", 0.2)
        out = scaling_study(model, [40, 80], B=3, seed=1, n_grid=12, grid_size=4)
        assert set(out["timings_seconds"]) == {40, 80}
        assert "80/40" in out["ratios"]
        assert all(v > 0 for v in out["timings_seconds"].values())


@pytest.mark.parametrize("entries, field", [
    ({"n_samples": 0}, "n_samples"),
    ({"B": 0}, "B"),
    ({"mise_samples": 0}, "mise_samples"),
    ({"mise_grid": -1}, "mise_grid"),
    ({"strategy": "grid", "grid_size": 0}, "grid_size"),
    ({"alpha": 0.0}, "alpha"),
    ({"alpha": 1.5}, "alpha"),
    ({"alpha": float("nan")}, "alpha"),
    ({"budget_seconds": 0.0}, "budget_seconds"),
    ({"budget_seconds": -60.0}, "budget_seconds"),
    ({"budget_seconds": float("nan")}, "budget_seconds"),
    ({"strategy": "foo"}, "strategy"),
    ({"methods": (3,)}, "methods"),
    ({"methods": (1, 0)}, "methods"),
    ({"methods": ()}, "methods"),
    ({"mode": "regions", "bandwidth_h": -1.0}, "bandwidth_h"),
    ({"mode": "regions", "bandwidth_h": float("nan")}, "bandwidth_h"),
    ({"mode": "regions", "estimator": "smoothed-beran", "bandwidth_h": 0.2}, "bandwidth_g"),
    ({"mode": "regions", "estimator": "smoothed-beran", "bandwidth_h": 0.2, "bandwidth_g": 0.0}, "bandwidth_g"),
    ({"mode": "regions", "B": 1}, "B"),
    ({"mode": "regions", "methods": (1,), "B": 1}, "B"),
])
def test_config_counts_and_alpha_are_checked(entries, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        BenchConfig(**entries)


def test_one_replicate_serves_a_study_without_method_1():
    # method 1's sigma* needs two bootstrap curves; method 2 and a bandwidth study need one
    BenchConfig(mode="regions", methods=(2,), B=1)
    BenchConfig(mode="bandwidth", B=1)


def test_an_infinite_budget_sets_no_limit():
    BenchConfig(budget_seconds=float("inf"))


def test_grid_size_is_unused_by_the_multistart_search():
    BenchConfig(strategy="multistart", grid_size=0)


@pytest.mark.parametrize("workers", [0, -3])
def test_config_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
        BenchConfig(workers=workers)


@pytest.mark.parametrize("n_samples, workers, started", [(3, 16, 3), (6, 2, 2)])
def test_pool_starts_no_more_workers_than_tasks(monkeypatch, n_samples, workers, started):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        """Records its size and runs each task in this process when it is submitted."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    report = run_benchmark(BenchConfig(
        model="model1", censoring=0.2, estimator="beran", mode="bandwidth", n=25, n_samples=n_samples, B=3,
        n_grid=10, seed=11, strategy="grid", grid_size=5, mise_samples=3, mise_grid=4, workers=workers,
    ))
    assert sizes == [started]
    assert report.samples_completed == n_samples


def _failing_first_task(directory, j):
    """Fails as task 0; a later task leaves a file named after it and takes 50 ms, so the queue outlasts the failure."""
    if j == 0:
        raise RuntimeError("task 0 failed")
    (directory / str(j)).touch()
    time.sleep(0.05)


def test_a_failing_task_cancels_the_queued_tasks(tmp_path):
    with pytest.raises(RuntimeError, match="^task 0 failed$"):
        _map_with_budget(partial(_failing_first_task, tmp_path), 12, 2, None)
    # the pool's exit waits for the tasks already handed to a worker, but the queued ones never run
    assert len(list(tmp_path.iterdir())) < 11


def _square(j):
    return j * j


@pytest.mark.parametrize("workers", [1, 2])
def test_a_deadline_passed_after_the_first_result_stops_the_map(monkeypatch, workers):
    monkeypatch.setattr(benchmark, "time", FakeClock(0.0, 2.0))
    assert _map_with_budget(_square, 4, workers, 1.0) == ([0], True)


def _budget_regions_study(n_samples, budget_seconds=None):
    return BenchConfig(
        model="model1", censoring=0.2, estimator="beran", mode="regions", n=25, n_samples=n_samples, B=5,
        n_grid=10, seed=11, bandwidth_h=0.3, budget_seconds=budget_seconds,
    )


def test_a_regions_study_that_runs_out_after_one_task_reports_that_task(monkeypatch):
    # the clock is read to set the deadline, before task 0, and before task 1
    monkeypatch.setattr(benchmark, "time", FakeClock(0.0, 0.0, 2.0))
    report = run_benchmark(_budget_regions_study(3, budget_seconds=1.0))
    assert report.incomplete and report.samples_completed == 1
    first = run_benchmark(_budget_regions_study(1))
    assert report.region_metrics_by_method == first.region_metrics_by_method
