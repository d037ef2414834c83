"""Monte Carlo benchmark harness for the simulation models.

Covers the ground-truth MISE curves, the bandwidth-selector study (relative
bandwidth and error metrics) and the confidence-region study (coverage,
width and Winkler scores).  All randomness flows from one master seed with a
fixed stream layout: (seed, 0, j) generates sample j, (seed, 1, j) seeds its
resampling plan, (seed, 3, 0) the reference sample for search boxes,
(seed, 4, .) the ground-truth MISE samples and (seed, 5, .) the RMISE
evaluation samples.  Sample tasks are pure functions of their index, so
reports do not depend on the worker count.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .bandwidth import (
    _best_traced,
    _mean_integrated_sq,
    _quantile_spread,
    _resampling_plan,
    _search,
    _select,
    _validate_boxes,
    default_covariate_box,
    default_time_box,
    select_bandwidth_1d,
)
from .dataio import _write_csv, _write_json
from .estimators import _CurveBatch, _estimator_bandwidths
from .regions import _check_alpha, _check_replicates, _region
from .resampling import child_seed, substream
from .samples import TimeGrid, integrate_on_grid
from .simulation import SimModel, generate_sample, make_model

__all__ = [
    "BenchConfig",
    "BenchReport",
    "mise_optimal_1d",
    "relative_metrics",
    "winkler_scores",
    "region_metrics",
    "run_benchmark",
    "write_report",
    "scaling_study",
]


@dataclass(frozen=True)
class BenchConfig:
    """Parameters of one benchmark run; defaults give a quick desk-scale study."""

    model: str = "model1"
    censoring: float = 0.2
    estimator: str = "beran"
    mode: str = "bandwidth"
    n: int = 400
    n_samples: int = 50
    B: int = 200
    n_grid: int = 100
    seed: int = 0
    strategy: str = "multistart"
    grid_size: int = 32
    alpha: float = 0.05
    methods: tuple[int, ...] = (1, 2)
    bandwidth_h: float | None = None
    bandwidth_g: float | None = None
    mise_samples: int = 100
    mise_grid: int = 24
    workers: int = 1
    budget_seconds: float | None = None
    keep_regions: bool = False

    def __post_init__(self):
        if self.mode not in ("bandwidth", "regions"):
            raise ValueError("mode must be 'bandwidth' or 'regions'")
        if self.estimator not in ("beran", "smoothed-beran"):
            raise ValueError("estimator must be 'beran' or 'smoothed-beran'")
        if self.strategy not in ("grid", "multistart"):
            raise ValueError(f"strategy must be 'grid' or 'multistart', got {self.strategy!r}")
        if not self.methods or not set(self.methods) <= {1, 2}:
            raise ValueError(f"methods must be a nonempty selection of 1 and 2, got {self.methods!r}")
        counts = ["n_samples", "B", "mise_samples", "mise_grid", "workers"] + (["grid_size"] if self.strategy == "grid" else [])
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        _check_alpha(self.alpha)
        # inf sets no limit; nan fails the comparison, so it is rejected too
        if self.budget_seconds is not None and not self.budget_seconds > 0.0:
            raise ValueError(f"budget_seconds must be positive, got {self.budget_seconds!r}")
        if self.mode == "regions":
            _check_replicates(self.methods, self.B)
        if self.mode == "regions" and self.bandwidth_h is not None:
            # a beran study never uses g, so it records none
            object.__setattr__(self, "bandwidth_g", _estimator_bandwidths(
                self.estimator, self.bandwidth_h, self.bandwidth_g, names=("bandwidth_h", "bandwidth_g"))[1])
        elif self.mode == "regions" and self.estimator == "smoothed-beran" and self.bandwidth_g is not None:
            raise ValueError("bandwidth_g must come with bandwidth_h; with neither, the ground-truth search sets both")


@dataclass
class BandwidthMetrics:
    """Summary of selected bandwidths relative to the MISE-optimal benchmark."""

    mean_h: float
    sd_h: float
    h_bar: float
    r_bar: float
    mean_rmise_selected: float
    mean_g: float | None = None
    sd_g: float | None = None


@dataclass
class RegionMetrics:
    """Aggregate quality measures of a set of confidence regions."""

    coverage: float
    pointwise_coverage: float
    average_width: float
    iws: float


@dataclass
class BenchReport:
    """Outcome of one benchmark run; `regions` is kept only in memory."""

    model: str
    censoring: float
    estimator: str
    mode: str
    n: int
    n_samples: int
    B: int
    n_grid: int
    seed: int
    samples_completed: int
    incomplete: bool
    h_mise: float | None = None
    g_mise: float | None = None
    rmise_at_optimal: float | None = None
    bandwidth_metrics: BandwidthMetrics | None = None
    h_stars: list | None = None
    g_stars: list | None = None
    search: dict | None = None  # bandwidth mode: the selections' search counts, summed
    region_metrics_by_method: dict | None = None
    bandwidth_h: float | None = None
    bandwidth_g: float | None = None
    alpha: float | None = None
    regions: dict | None = field(default=None, repr=False)


def _mise_function(model, grid, n_samples, n, seed, deadline=None):
    """MISE against the model truth at x0 of each query (model.x0, bandwidths) of a list, over samples (seed, j).

    Once the `deadline` (a perf_counter time) has passed, the next query
    raises TimeoutError.
    """
    samples = [generate_sample(model, n, substream(seed, j)) for j in range(n_samples)]
    batch = _CurveBatch(samples, grid.points, model.support)
    truth = np.asarray(model.true_survival(grid.points, model.x0))

    def mise(_, values, ok) -> float:
        if deadline is not None and time.perf_counter() > deadline:
            raise TimeoutError("the wall-clock budget ran out")
        return _mean_integrated_sq(values, ok, truth, grid.cell_widths)

    return lambda queries: batch.values(queries, mise)


def _mise_optimal(mise, x0, boxes, n_candidates):
    """Grid search of a _mise_function at x0, over the same samples throughout; returns (bandwidths, rmise)."""
    boxes = _validate_boxes(boxes, "grid", n_candidates)
    *bandwidths, value = _best_traced(_search(mise, [x0], boxes, "grid", n_candidates)[0])
    return tuple(bandwidths), float(np.sqrt(value))


def mise_optimal_1d(
    model: SimModel,
    box: tuple[float, float],
    grid: TimeGrid,
    *,
    n_samples: int,
    n: int,
    n_candidates: int,
    seed: int,
) -> tuple[float, float]:
    """Grid search for the MISE-optimal Beran bandwidth; returns (h, rmise)."""
    (h,), rmise = _mise_optimal(_mise_function(model, grid, n_samples, n, seed), model.x0, (box,), n_candidates)
    return h, rmise


def relative_metrics(
    selections,
    h_mise: float,
    rmise_selected,
    rmise_optimal: float,
    g_mise: float | None = None,
) -> BandwidthMetrics:
    """Relative bandwidth deviations and relative RMISE inflation.

    For one-dimensional selections the deviation statistic is the mean
    absolute relative difference from the optimal bandwidth; for pairs it is
    the mean Euclidean norm of the componentwise relative deviation vector.
    Raw relative RMISE differences are averaged without clipping, so slightly
    negative values can occur at reduced Monte Carlo scale.
    """
    h_stars = np.array([s.h_star for s in selections], dtype=float)
    rmise_selected = np.asarray(rmise_selected, dtype=float)
    rel_h = (h_stars - h_mise) / h_mise
    mean_g = sd_g = None
    if g_mise is not None:
        g_stars = np.array([s.g_star for s in selections], dtype=float)
        rel_g = (g_stars - g_mise) / g_mise
        h_bar = float(np.mean(np.hypot(rel_h, rel_g)))
        mean_g, sd_g = float(g_stars.mean()), float(g_stars.std())
    else:
        h_bar = float(np.mean(np.abs(rel_h)))
    r_bar = float(np.mean((rmise_selected - rmise_optimal) / rmise_optimal))
    return BandwidthMetrics(
        mean_h=float(h_stars.mean()),
        sd_h=float(h_stars.std()),
        h_bar=h_bar,
        r_bar=r_bar,
        mean_rmise_selected=float(rmise_selected.mean()),
        mean_g=mean_g,
        sd_g=sd_g,
    )


def winkler_scores(lower, upper, truth, alpha: float) -> np.ndarray:
    """Interval width plus the 2/alpha out-of-interval penalty, pointwise."""
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    truth = np.asarray(truth, float)
    width = upper - lower
    penalty = (2.0 / alpha) * (
        (lower - truth) * (truth < lower) + (truth - upper) * (truth > upper)
    )
    return width + penalty


def region_metrics(regions, model: SimModel) -> RegionMetrics:
    """Coverage, pointwise coverage, average width and integrated Winkler score.

    Coverage counts a region only when the true curve lies strictly inside at
    every grid point; pointwise coverage averages the per-point indicator.
    """
    regions = list(regions)
    grid = regions[0].grid
    truth = np.asarray(model.true_survival(grid.points, model.x0))
    full, pointwise, widths, iws = [], [], [], []
    for region in regions:
        inside = (truth > region.lower) & (truth < region.upper)
        full.append(bool(inside.all()))
        pointwise.append(float(inside.mean()))
        widths.append(float(np.mean(region.upper - region.lower)))
        scores = winkler_scores(region.lower, region.upper, truth, 1.0 - region.level)
        iws.append(integrate_on_grid(scores, grid))
    return RegionMetrics(
        coverage=float(np.mean(full)),
        pointwise_coverage=float(np.mean(pointwise)),
        average_width=float(np.mean(widths)),
        iws=float(np.mean(iws)),
    )


def _select_task(config, model, grid, boxes, j):
    sample = generate_sample(model, config.n, substream(config.seed, 0, j))
    plan = _resampling_plan(config.estimator, sample, model.pilot_c, child_seed(config.seed, 1, j),
                            config.B)
    return _select(sample, [model.x0], boxes, plan, grid, config.strategy, config.grid_size, model.support,
                   None)[0]


def _region_task(config, model, grid, h, g, j):
    sample = generate_sample(model, config.n, substream(config.seed, 0, j))
    plan = _resampling_plan(config.estimator, sample, model.pilot_c, child_seed(config.seed, 1, j),
                            config.B)
    regions = _region(config.methods, sample, (model.x0,), h, plan, grid, alpha=config.alpha, g=g,
                      estimator=config.estimator, support=model.support)
    return {method: found[0] for method, found in regions.items()}


def _map_with_budget(fn, n_tasks: int, workers: int, deadline: float | None):
    results, incomplete = [], False
    if workers <= 1:
        for j in range(n_tasks):
            if deadline is not None and time.perf_counter() > deadline:
                incomplete = True
                break
            results.append(fn(j))
        return results, incomplete
    from concurrent.futures import ProcessPoolExecutor

    # a fork pool starts all its workers at the first submit, so start no more than there are tasks
    with ProcessPoolExecutor(max_workers=min(workers, n_tasks)) as pool:
        futures = [pool.submit(fn, j) for j in range(n_tasks)]
        for j, fut in enumerate(futures):
            if deadline is not None and time.perf_counter() > deadline:
                incomplete = True
                for later in futures[j:]:
                    later.cancel()
                break
            results.append(fut.result())
    return results, incomplete


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Run one bandwidth-selection or confidence-region study.

    A wall-clock budget, when set, is checked at each evaluation of the
    ground-truth search and between per-sample tasks; on expiry the report
    carries the completed prefix and is flagged incomplete.
    """
    model = make_model(config.model, config.censoring)
    grid = TimeGrid.uniform(model.t_max, config.n_grid)
    reference = generate_sample(model, config.n, substream(config.seed, 3, 0))
    # the upper end stops at one covariate spread: beyond it the weights are
    # effectively uniform and the estimate degenerates to the marginal curve
    spread = _quantile_spread(reference.x)
    box_h = (0.05 * spread, spread)
    box_g = default_time_box(reference)
    deadline = None
    if config.budget_seconds is not None:
        deadline = time.perf_counter() + config.budget_seconds

    # the report repeats the study settings; its bandwidths record what a region study used
    settings = {f.name for f in fields(BenchConfig)} - {"bandwidth_h", "bandwidth_g"}
    report = BenchReport(samples_completed=0, incomplete=False,
                         **{f.name: getattr(config, f.name) for f in fields(BenchReport) if f.name in settings})

    smoothed = config.estimator == "smoothed-beran"
    boxes = (box_h, box_g) if smoothed else (box_h,)
    h, g = config.bandwidth_h, config.bandwidth_g
    if config.mode == "bandwidth" or h is None:
        mise = _mise_function(model, grid, config.mise_samples, config.n, child_seed(config.seed, 4), deadline)
        try:
            bandwidths, rmise_opt = _mise_optimal(mise, model.x0, boxes, config.mise_grid)
        except TimeoutError:
            report.incomplete = True
            return report
        del mise  # frees the ground-truth samples before the sample tasks run
        h, g = bandwidths if smoothed else (*bandwidths, None)

    if config.mode == "bandwidth":
        task = partial(_select_task, config, model, grid, boxes)
        selections, report.incomplete = _map_with_budget(task, config.n_samples, config.workers, deadline)
        report.samples_completed = len(selections)
        report.h_mise, report.g_mise, report.rmise_at_optimal = h, g, rmise_opt
        report.search = {key: sum(s.search[key] for s in selections)
                         for key in ("objective_evals", "nonfinite_evals", "tensor_builds")}
        if selections:
            mise_at = _mise_function(model, grid, config.mise_samples, config.n, child_seed(config.seed, 5))
            queries = [(model.x0, (s.h_star, s.g_star)) for s in selections] + [(model.x0, (h, g))]
            *rmise_selected, rmise_ref = (float(np.sqrt(value)) for value in mise_at(queries))
            report.bandwidth_metrics = relative_metrics(
                selections, h, rmise_selected, rmise_ref, g_mise=g
            )
            report.h_stars = [s.h_star for s in selections]
            if g is not None:
                report.g_stars = [s.g_star for s in selections]
        return report

    task = partial(_region_task, config, model, grid, h, g)
    per_sample, report.incomplete = _map_with_budget(task, config.n_samples, config.workers, deadline)
    report.samples_completed = len(per_sample)
    report.bandwidth_h, report.bandwidth_g = h, g
    if per_sample:
        report.region_metrics_by_method = {
            f"method{m}": asdict(region_metrics([row[m] for row in per_sample], model))
            for m in config.methods
        }
        if config.keep_regions:
            report.regions = {m: [row[m] for row in per_sample] for m in config.methods}
    return report


def report_to_dict(report: BenchReport) -> dict:
    data = asdict(report)
    data.pop("regions", None)
    return data


def write_report(report: BenchReport, out_dir) -> None:
    """Write report.json plus a metric table CSV shaped like the study tables."""
    from . import __version__

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = report_to_dict(report)
    data["version"] = __version__
    _write_json(out / "report.json", data)
    if report.mode == "bandwidth" and report.bandwidth_metrics is not None:
        bm = report.bandwidth_metrics
        rows = [
            ("h_mise", report.h_mise),
            ("g_mise", report.g_mise),
            ("rmise_at_optimal", report.rmise_at_optimal),
            ("mean_h_star", bm.mean_h),
            ("sd_h_star", bm.sd_h),
            ("mean_g_star", bm.mean_g),
            ("sd_g_star", bm.sd_g),
            ("H_bar", bm.h_bar),
            ("mean_rmise_at_selected", bm.mean_rmise_selected),
            ("R_bar", bm.r_bar),
        ]
        _write_csv(out / "bandwidth_table.csv", ["metric", "value"], [row for row in rows if row[1] is not None])
    if report.mode == "regions" and report.region_metrics_by_method is not None:
        by_method = report.region_metrics_by_method
        methods = sorted(by_method)
        _write_csv(out / "region_table.csv", ["metric", *methods],
                   [[name, *(by_method[m][name] for m in methods)]
                    for name in ("average_width", "coverage", "pointwise_coverage", "iws")])


def scaling_study(
    model: SimModel,
    sizes,
    B: int,
    seed: int,
    n_grid: int = 100,
    strategy: str = "grid",
    grid_size: int = 16,
) -> dict:
    """Wall-clock seconds of one 1-D bandwidth selection per sample size.

    Cost grows superlinearly in n.
    """
    grid = TimeGrid.uniform(model.t_max, n_grid)
    timings = {}
    for n in sizes:
        sample = generate_sample(model, int(n), substream(seed, 0, 0))
        plan = _resampling_plan("beran", sample, model.pilot_c, child_seed(seed, 1, 0), B)
        box = default_covariate_box(sample)
        start = time.perf_counter()
        select_bandwidth_1d(sample, model.x0, box, plan, grid, strategy=strategy, grid_size=grid_size,
                            support=model.support)
        timings[int(n)] = time.perf_counter() - start
    sizes = sorted(timings)
    ratios = {
        f"{sizes[i + 1]}/{sizes[i]}": timings[sizes[i + 1]] / timings[sizes[i]]
        for i in range(len(sizes) - 1)
    }
    return {"B": B, "timings_seconds": timings, "ratios": ratios}
