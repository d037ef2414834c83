"""Pilot bandwidth rules, bootstrap error objectives and bounded bandwidth search.

The bootstrap MISE of a candidate bandwidth is the resample average of the
Riemann-sum squared distance between the bootstrap curve at the candidate and
the pilot curve from the original sample.  One fixed set of resamples is
shared across all candidates of a selection run (common random numbers), so
re-evaluating the objective at the same point returns the identical value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoEventsError, SelectionFailedError
from .estimators import _CurveBatch, _single_curve
from .resampling import SCHEME_BERAN, SCHEME_SMOOTHED, ResamplingPlan, resample
from .samples import SurvivalSample, TimeGrid

__all__ = [
    "BandwidthSelection",
    "pilot_r",
    "pilot_s",
    "default_covariate_box",
    "default_time_box",
    "select_bandwidth_1d",
    "select_bandwidth_2d",
]

# mesh-and-zoom search: coarse points per axis, then levels that each halve the cell
_COARSE_POINTS = 16
_ZOOM_LEVELS = 12


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
    search: dict | None = None  # counts: objective_evals, nonfinite_evals, tensor_builds


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


def _resamples_or_generate(sample, plan, support, resamples):
    if resamples is not None:
        return list(resamples)
    return resample(sample, plan, support)[0]


def _pilot_values(sample, x0, plan, points, support):
    g = plan.pilot_s if plan.scheme == SCHEME_SMOOTHED else None
    return _single_curve(sample, x0, plan.pilot_r, points, support, g)


def _validate_boxes(boxes, strategy, grid_size) -> tuple:
    """The search intervals as (low, high) floats, checked to satisfy 0 < low < high < inf, and the grid size."""
    if strategy == "grid" and grid_size < 1:
        raise ValueError(f"a grid search needs at least one point per axis, got grid_size={grid_size!r}")
    labels = ("search box",) if len(boxes) == 1 else ("covariate search box", "time search box")
    checked = []
    for box, name in zip(boxes, labels):
        lo, hi = float(box[0]), float(box[1])
        if not (0.0 < lo < hi < np.inf):
            raise ValueError(f"{name} must satisfy 0 < low < high with finite bounds")
        checked.append((lo, hi))
    return tuple(checked)


def _best_traced(trace) -> tuple:
    finite = [entry for entry in trace if math.isfinite(entry[-1])]
    if not finite:
        raise SelectionFailedError("objective was non-finite everywhere in the search box")
    return min(finite, key=lambda entry: entry[-1])


def _levels(boxes, strategy, grid_size, trace):
    """Yield the unseen points of each mesh level of a search, each (h,) or (h, g).

    Points come with g as the outer loop.  Before it asks for the next level
    the caller appends (h[, g], value) to `trace` for every point yielded.
    "grid" yields the grid_size-point mesh as its one level.  "multistart"
    is a deterministic mesh-and-zoom search: a 16-point mesh per axis, then
    12 levels of a 5-point mesh per axis over one cell either side of the
    best finite point so far, clipped to the box, each level halving the
    cell.  Points already yielded are skipped; the last spacing is 1/61440
    of each interval.  Every search of a strategy yields the same number of
    levels.
    """
    seen: set = set()

    def unseen(axes) -> list:
        # the mesh of `axes` (h first) with g as the outer loop, less the points seen
        mesh = (tuple(float(v) for v in outer_first[::-1]) for outer_first in itertools.product(*reversed(axes)))
        points = [point for point in dict.fromkeys(mesh) if point not in seen]
        seen.update(points)
        return points

    if strategy == "grid":
        yield unseen([np.linspace(lo, hi, grid_size) for lo, hi in boxes])
    elif strategy == "multistart":
        # candidates are integer steps of one lattice, so a point met again is recognized
        top = (_COARSE_POINTS - 1) << _ZOOM_LEVELS
        cell = 1 << _ZOOM_LEVELS
        steps = [range(0, top + 1, cell)] * len(boxes)
        for _ in range(_ZOOM_LEVELS + 1):
            yield unseen([[min(hi, lo + (hi - lo) * k / top) for k in ks] for ks, (lo, hi) in zip(steps, boxes)])
            best = [round((v - lo) / (hi - lo) * top) for v, (lo, hi) in zip(_best_traced(trace), boxes)]
            steps = [sorted({min(max(k + j * cell // 2, 0), top) for j in range(-2, 3)}) for k in best]
            cell //= 2
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")


def _search(values, x0s, boxes, strategy, grid_size) -> list:
    """The objective traces of one search of `_levels` per x0, run level by level in lockstep.

    `values` maps a list of (x0, point) queries to the list of their
    values.  Each level's unseen points of every x0 go to one call, x0 by
    x0, and each evaluation is appended to its x0's trace as
    (h[, g], value).
    """
    traces: list = [[] for _ in x0s]
    for levels in zip(*(_levels(boxes, strategy, grid_size, trace) for trace in traces)):
        asked = [(trace, x0, point) for trace, x0, points in zip(traces, x0s, levels) for point in points]
        found = values([(x0, point) for _, x0, point in asked])
        for (trace, _, point), value in zip(asked, found, strict=True):
            trace.append((*point, float(value)))
    return traces


def _select(sample, x0s, boxes, plan, grid, strategy, grid_size, support, resamples) -> list:
    """Bootstrap MISE minimization over h alone (one box) or over (h, g) (two boxes), at each x0.

    The searches share one batch and run in lockstep, so each level is one
    engine call and each g's tensor serves every x0 that needs it.  Curves
    do not depend on what is evaluated beside them, so each x0's trace and
    bandwidths are those of a search at that x0 alone.  Each tensor build
    is charged to the first x0, in the order given, whose level needs that
    g, so the `tensor_builds` counts sum to the builds made.
    """
    # one bandwidth goes with the beran scheme, the pair (h, g) with the smoothed one
    scheme = SCHEME_BERAN if len(boxes) == 1 else SCHEME_SMOOTHED
    if plan.scheme != scheme:
        raise ValueError(f"select_bandwidth_{len(boxes)}d requires a {scheme}-scheme plan")
    boxes = _validate_boxes(boxes, strategy, grid_size)
    x0s = [float(x0) for x0 in x0s]
    pilots = {x0: _pilot_values(sample, x0, plan, grid.points, support) for x0 in x0s}
    widths = grid.cell_widths
    batch = _CurveBatch(_resamples_or_generate(sample, plan, support, resamples), grid.points, support)

    def mise(x0, values, ok) -> float:
        return _mean_integrated_sq(values, ok, pilots[x0], widths)

    traces = _search(lambda queries: batch.values(queries, mise), x0s, boxes, strategy, grid_size)
    selections = []
    for x0, trace in zip(x0s, traces):
        best = _best_traced(trace)
        selections.append(BandwidthSelection(
            h_star=best[0],
            g_star=best[1] if len(boxes) == 2 else None,
            search_box=boxes,
            objective_trace=trace,
            B=plan.B,
            seed=plan.seed,
            pilot_r=plan.pilot_r,
            pilot_s=plan.pilot_s,
            search={"objective_evals": len(trace), "tensor_builds": batch.tensor_builds[x0],
                    "nonfinite_evals": sum(not math.isfinite(entry[-1]) for entry in trace)},
        ))
    return selections


def select_bandwidth_1d(
    sample: SurvivalSample,
    x0: float,
    box: tuple[float, float],
    plan: ResamplingPlan,
    grid: TimeGrid,
    strategy: str = "multistart",
    grid_size: int = 32,
    support: tuple[float, float] | None = None,
    resamples=None,
) -> BandwidthSelection:
    """Minimize the bootstrap MISE of Beran's estimator over a bandwidth interval.

    Strategies: "grid" evaluates `grid_size` equispaced candidates;
    "multistart" runs the deterministic mesh-and-zoom search of `_levels`
    (16 candidates, then 12 zoom levels, no gradients) and keeps the best
    evaluation seen.
    """
    return _select(sample, [x0], (box,), plan, grid, strategy, grid_size, support, resamples)[0]


def select_bandwidth_2d(
    sample: SurvivalSample,
    x0: float,
    box_h: tuple[float, float],
    box_g: tuple[float, float],
    plan: ResamplingPlan,
    grid: TimeGrid,
    strategy: str = "multistart",
    grid_size: int = 20,
    support: tuple[float, float] | None = None,
    resamples=None,
) -> BandwidthSelection:
    """Minimize the bootstrap MISE of the smoothed estimator over a search box.

    The "grid" strategy uses a grid_size x grid_size mesh; "multistart" runs
    the mesh-and-zoom search of `_levels` from a 16 x 16 mesh.  `search`
    counts the evaluations, the non-finite ones and the tensor builds.
    """
    return _select(sample, [x0], (box_h, box_g), plan, grid, strategy, grid_size, support, resamples)[0]
