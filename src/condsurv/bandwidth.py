"""Pilot bandwidth rules, bootstrap error objectives and bounded bandwidth search.

The bootstrap MISE of a candidate bandwidth is the resample average of the
Riemann-sum squared distance between the bootstrap curve at the candidate and
the pilot curve from the original sample.  One fixed set of resamples is
shared across all candidates of a selection run (common random numbers), so
re-evaluating the objective at the same point returns the identical value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoEventsError, SelectionFailedError
from .estimators import _CurveBatch, _single_curve
from .kernels import DEFAULT_KERNEL, KernelSpec
from .resampling import SCHEME_BERAN, SCHEME_SMOOTHED, ResamplingPlan, child_seed, resample
from .samples import SurvivalSample, TimeGrid

__all__ = [
    "PilotBandwidths",
    "BandwidthSelection",
    "pilot_r",
    "pilot_s",
    "default_covariate_box",
    "default_time_box",
    "bootstrap_mise_1d",
    "bootstrap_mise_2d",
    "bootstrap_mse_pointwise",
    "select_bandwidth_1d",
    "select_bandwidth_2d",
]

_PENALTY = 1e12
# multistart starting points, as fractions of each search interval, by dimension
_START_FRACTIONS = {
    1: (0.1, 0.3, 0.5, 0.7, 0.9),
    2: ((0.25, 0.25), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (0.75, 0.75)),
}


@dataclass(frozen=True)
class PilotBandwidths:
    """Rule-of-thumb bandwidths used only inside resampling."""

    r: float
    s: float
    c: float = 1.5

    def __post_init__(self):
        if not (self.r > 0.0 and self.s > 0.0):
            raise ValueError("pilot bandwidths must be positive")


@dataclass(frozen=True)
class BandwidthSelection:
    """Selected bandwidths plus the objective trace that produced them."""

    h_star: float
    g_star: float | None
    search_box: tuple
    objective_trace: list
    B: int
    seed: int
    pilot_r: float
    pilot_s: float | None = None


def _quantile_spread(values) -> float:
    lo, hi = np.quantile(np.asarray(values, dtype=float), [0.025, 0.975])
    return float(hi - lo)


def _n_events(sample: SurvivalSample) -> int:
    n_ev = sample.n_events
    if n_ev < 1:
        raise NoEventsError("pilot bandwidths need at least one uncensored observation")
    return n_ev


def pilot_r(sample: SurvivalSample, c: float = 1.5) -> float:
    """Covariate pilot: c * interquantile spread of X / 2 * (number of events)^(-1/3).

    The spread is the 0.975-0.025 sample quantile difference with linear
    interpolation.  Use c = 1 when the conditional mean of T is highly
    variable in x; the default 3/2 suits slowly varying targets.
    """
    return c * _quantile_spread(sample.x) / 2.0 * _n_events(sample) ** (-1.0 / 3.0)


def pilot_s(sample: SurvivalSample) -> float:
    """Time pilot: 3/4 * interquantile spread of Z * (number of events)^(-1/7)."""
    return 0.75 * _quantile_spread(sample.z) * _n_events(sample) ** (-1.0 / 7.0)


def default_covariate_box(sample: SurvivalSample) -> tuple[float, float]:
    """Default covariate search interval [0.05, 2] times the spread of X."""
    spread = _quantile_spread(sample.x)
    if spread <= 0.0:
        raise ValueError("covariate spread must be positive to build a search box")
    return (0.05 * spread, 2.0 * spread)


def default_time_box(sample: SurvivalSample) -> tuple[float, float]:
    """Default time search interval [0.01, 1] times the spread of Z."""
    spread = _quantile_spread(sample.z)
    if spread <= 0.0:
        raise ValueError("time spread must be positive to build a search box")
    return (0.01 * spread, spread)


def _resampling_plan(estimator: str, sample, c: float, seed: int, B: int) -> ResamplingPlan:
    """The bootstrap plan that selection and regions use for an estimator."""
    r = pilot_r(sample, c)
    if estimator == "beran":
        return ResamplingPlan(SCHEME_BERAN, r, seed, B)
    return ResamplingPlan(SCHEME_SMOOTHED, r, seed, B, pilot_s=pilot_s(sample))


def _mean_integrated_sq(values, ok, pilot_vals, widths) -> float:
    if not ok.all():
        return float("inf")
    diff = values - pilot_vals
    return float(np.mean((diff * diff) @ widths))


def _resamples_or_generate(sample, plan, kernel, support, resamples):
    if resamples is not None:
        return list(resamples)
    return resample(sample, plan, kernel, support)[0]


def _check_scheme(plan, n_bandwidths: int, name: str) -> None:
    # one bandwidth goes with the beran scheme, the pair (h, g) with the smoothed one
    scheme = SCHEME_BERAN if n_bandwidths == 1 else SCHEME_SMOOTHED
    if plan.scheme != scheme:
        raise ValueError(f"{name} requires a {scheme}-scheme plan")


def _pilot_values(sample, x0, plan, points, kernel, support):
    g = plan.pilot_s if plan.scheme == SCHEME_SMOOTHED else None
    return _single_curve(sample, x0, plan.pilot_r, points, kernel, support, g)


def _bootstrap_mise(name, sample, x0, bandwidths, plan, grid, kernel, support, resamples) -> float:
    _check_scheme(plan, len(bandwidths), name)
    rs = _resamples_or_generate(sample, plan, kernel, support, resamples)
    batch = _CurveBatch(rs, grid.points, kernel, support)
    pilot = _pilot_values(sample, x0, plan, grid.points, kernel, support)
    values, ok = batch.values(x0, *(float(b) for b in bandwidths))
    return _mean_integrated_sq(values, ok, pilot, grid.cell_widths)


def bootstrap_mise_1d(
    sample: SurvivalSample,
    x0: float,
    h: float,
    plan: ResamplingPlan,
    grid: TimeGrid,
    kernel: KernelSpec = DEFAULT_KERNEL,
    support: tuple[float, float] | None = None,
    resamples=None,
) -> float:
    """Monte Carlo bootstrap MISE of Beran's estimator at candidate bandwidth h.

    Averages the grid Riemann sum of (bootstrap curve - pilot curve)^2 over
    the plan's resamples; +inf when the weights at x0 degenerate for this h.
    """
    return _bootstrap_mise(
        "bootstrap_mise_1d", sample, x0, (h,), plan, grid, kernel, support, resamples
    )


def bootstrap_mise_2d(
    sample: SurvivalSample,
    x0: float,
    h: float,
    g: float,
    plan: ResamplingPlan,
    grid: TimeGrid,
    kernel: KernelSpec = DEFAULT_KERNEL,
    support: tuple[float, float] | None = None,
    resamples=None,
) -> float:
    """Bootstrap MISE of the smoothed estimator at the candidate pair (h, g)."""
    return _bootstrap_mise(
        "bootstrap_mise_2d", sample, x0, (h, g), plan, grid, kernel, support, resamples
    )


def bootstrap_mse_pointwise(
    sample: SurvivalSample,
    x0: float,
    t0: float,
    h: float,
    plan: ResamplingPlan,
    kernel: KernelSpec = DEFAULT_KERNEL,
    support: tuple[float, float] | None = None,
    resamples=None,
) -> float:
    """Bootstrap mean squared error at a single time point t0."""
    _check_scheme(plan, 1, "bootstrap_mse_pointwise")
    points = np.asarray([float(t0)])
    rs = _resamples_or_generate(sample, plan, kernel, support, resamples)
    batch = _CurveBatch(rs, points, kernel, support)
    pilot = _pilot_values(sample, x0, plan, points, kernel, support)
    values, ok = batch.values(x0, float(h))
    return _mean_integrated_sq(values, ok, pilot, np.ones(1))


def _validate_boxes(boxes) -> tuple:
    """The search intervals as (low, high) floats, checked to satisfy 0 < low < high."""
    labels = ("search box",) if len(boxes) == 1 else ("covariate search box", "time search box")
    checked = []
    for box, name in zip(boxes, labels):
        lo, hi = float(box[0]), float(box[1])
        if not (0.0 < lo < hi):
            raise ValueError(f"{name} must satisfy 0 < low < high")
        checked.append((lo, hi))
    return tuple(checked)


def _best_traced(trace) -> tuple:
    finite = [entry for entry in trace if np.isfinite(entry[-1])]
    if not finite:
        raise SelectionFailedError("objective was non-finite everywhere in the search box")
    return min(finite, key=lambda entry: entry[-1])


def _minimize(objective, boxes, strategy, grid_size, trace) -> tuple:
    """Minimize objective(h) or objective(h, g) over one or two search intervals.

    Every evaluation is appended to `trace` as (h[, g], value), and the best
    finite entry is returned.  "grid" evaluates the grid_size-point mesh
    with g as the outer loop, so the integrated-kernel tensor is built once
    per g value; "multistart" runs bounded L-BFGS-B with numerical gradients
    from fixed starts, with non-finite values replaced by a large penalty.
    """

    def evaluate(theta) -> float:
        point = tuple(float(v) for v in theta)
        value = float(objective(*point))
        trace.append((*point, value))
        return value

    if strategy == "grid":
        if grid_size < 1:
            raise ValueError(f"a grid search needs at least one point per axis, got grid_size={grid_size!r}")
        axes = [np.linspace(lo, hi, grid_size) for lo, hi in reversed(boxes)]
        for outer_first in itertools.product(*axes):
            evaluate(outer_first[::-1])
    elif strategy == "multistart":
        from scipy.optimize import minimize  # imported here: only this strategy needs it

        lo, hi = np.array(boxes, dtype=float).T
        eps = np.maximum(1e-4 * (hi - lo), 1e-10)

        def penalized(theta):
            value = evaluate(theta)
            return value if np.isfinite(value) else _PENALTY

        for frac in _START_FRACTIONS[len(boxes)]:
            minimize(
                penalized,
                x0=lo + np.asarray(frac) * (hi - lo),
                method="L-BFGS-B",
                bounds=list(boxes),
                options={"eps": eps, "maxiter": 80, "ftol": 1e-14, "gtol": 1e-12},
            )
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")
    return _best_traced(trace)


def _select(sample, x0, boxes, plan, grid, kernel, strategy, grid_size, support, resamples,
            fresh_resamples) -> BandwidthSelection:
    """Bootstrap MISE minimization over h alone (one box) or over (h, g) (two boxes)."""
    _check_scheme(plan, len(boxes), f"select_bandwidth_{len(boxes)}d")
    boxes = _validate_boxes(boxes)
    pilot = _pilot_values(sample, x0, plan, grid.points, kernel, support)
    widths = grid.cell_widths

    if fresh_resamples:
        counter = itertools.count(1)

        def batch_for_candidate():
            seed = child_seed(plan.seed, next(counter))
            rs = resample(sample, replace(plan, seed=seed), kernel, support)[0]
            return _CurveBatch(rs, grid.points, kernel, support)

    else:
        rs = _resamples_or_generate(sample, plan, kernel, support, resamples)
        shared = _CurveBatch(rs, grid.points, kernel, support)

        def batch_for_candidate():
            return shared

    def objective(*bandwidths) -> float:
        return _mean_integrated_sq(*batch_for_candidate().values(x0, *bandwidths), pilot, widths)

    trace: list = []
    best = _minimize(objective, boxes, strategy, grid_size, trace)
    return BandwidthSelection(
        h_star=best[0],
        g_star=best[1] if len(boxes) == 2 else None,
        search_box=boxes,
        objective_trace=trace,
        B=plan.B,
        seed=plan.seed,
        pilot_r=plan.pilot_r,
        pilot_s=plan.pilot_s,
    )


def select_bandwidth_1d(
    sample: SurvivalSample,
    x0: float,
    box: tuple[float, float],
    plan: ResamplingPlan,
    grid: TimeGrid,
    kernel: KernelSpec = DEFAULT_KERNEL,
    strategy: str = "multistart",
    grid_size: int = 32,
    support: tuple[float, float] | None = None,
    resamples=None,
    fresh_resamples: bool = False,
) -> BandwidthSelection:
    """Minimize the bootstrap MISE of Beran's estimator over a bandwidth interval.

    Strategies: "grid" evaluates `grid_size` equispaced candidates;
    "multistart" runs a bounded quasi-Newton search (numerical gradients)
    from five equispaced starts and keeps the best evaluation seen.  With
    `fresh_resamples` each candidate draws its own resample set instead of
    sharing one, at the cost of a noisier objective.
    """
    return _select(sample, x0, (box,), plan, grid, kernel, strategy, grid_size, support,
                   resamples, fresh_resamples)


def select_bandwidth_2d(
    sample: SurvivalSample,
    x0: float,
    box_h: tuple[float, float],
    box_g: tuple[float, float],
    plan: ResamplingPlan,
    grid: TimeGrid,
    kernel: KernelSpec = DEFAULT_KERNEL,
    strategy: str = "multistart",
    grid_size: int = 20,
    support: tuple[float, float] | None = None,
    resamples=None,
    fresh_resamples: bool = False,
) -> BandwidthSelection:
    """Minimize the bootstrap MISE of the smoothed estimator over a search box.

    The "grid" strategy uses a grid_size x grid_size mesh; "multistart" runs
    the bounded quasi-Newton search from five spread-out starts.
    """
    return _select(sample, x0, (box_h, box_g), plan, grid, kernel, strategy, grid_size, support,
                   resamples, fresh_resamples)
