"""Bootstrap confidence regions for the conditional survival curve.

Both methods build the envelope estimate +- lambda* scale(t), where lambda*
solves the Monte Carlo coverage equation exactly as an order statistic of the
replicate deviations max_t |pilot - curve| / scale, a replicate counting as
covered when the pilot curve stays inside its envelope at every grid point.
Method 1 scales by the bootstrap standard deviation sigma*(t|x0).  Method 2
scales by one: a sup-norm ball whose radius rho* = lambda* is the order
statistic of the replicate sup distances to the pilot curve, giving a
constant-width band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bandwidth import _pilot_values, _resamples_or_generate
from .dataio import _write_csv, _write_json
from .errors import DegenerateVarianceError, DegenerateWeightsError, InsufficientReplicatesError
from .estimators import _CurveBatch, _estimator_bandwidths, _single_curve
from .resampling import ResamplingPlan
from .samples import SurvivalSample, TimeGrid

__all__ = [
    "ConfidenceRegion",
    "bootstrap_sigma",
    "coverage_fraction",
    "calibrate_lambda",
    "region_method1",
    "region_method2",
    "method2_radius",
    "clamp_and_plateau_fix",
    "write_region_csv",
]


@dataclass(frozen=True)
class ConfidenceRegion:
    """Lower/upper envelope for S(.|x0) over a time grid."""

    grid: TimeGrid
    lower: np.ndarray
    upper: np.ndarray
    estimate: np.ndarray
    method: str
    estimator_tag: str
    level: float
    calibration: float
    x0: float
    h: float | None = None
    g: float | None = None
    sigma_star: np.ndarray | None = None
    seed: int | None = None
    degenerate: bool = False

    @property
    def average_width(self) -> float:
        return float(np.mean(self.upper - self.lower))


def _curve_matrix(curves) -> np.ndarray:
    mat = np.asarray(curves, dtype=float)
    if mat.ndim != 2:
        raise ValueError("curves must form a (B, n_T) matrix")
    return mat


def bootstrap_sigma(curves) -> np.ndarray:
    """Pointwise population standard deviation across bootstrap curves."""
    mat = _curve_matrix(curves)
    if mat.shape[0] < 2:
        raise InsufficientReplicatesError("need at least two bootstrap curves")
    return mat.std(axis=0)


def coverage_fraction(lam: float, pilot_values, curves, sigma_star) -> float:
    """Fraction of replicates whose envelope at width lam*sigma contains the pilot curve.

    Containment is checked at every grid point simultaneously, with closed
    intervals so that points where all curves coincide (sigma = 0) count as
    covered.  Nondecreasing in lam.
    """
    mat = _curve_matrix(curves)
    pilot = np.asarray(pilot_values, dtype=float)
    sigma = np.asarray(sigma_star, dtype=float)
    inside = np.abs(pilot[None, :] - mat) <= lam * sigma[None, :]
    return float(inside.all(axis=1).mean())


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _check_replicates(methods, B: int) -> None:
    # method 1's sigma* is a standard deviation across the bootstrap curves
    if 1 in methods and B < 2:
        raise ValueError(f"B must be at least 2 for method 1, got {B!r}")


def calibrate_lambda(pilot_values, curves, sigma_star, alpha: float) -> float:
    """Exact order-statistic solution of the coverage equation p_hat(lambda) >= 1 - alpha.

    Replicate b is covered exactly when lambda >= m_b = max_t |pilot - curve_b| / sigma
    (with 0/0 = 0 and d/0 = inf for d > 0), so the smallest solution is the
    order statistic m_(k), k = min{k : k/B >= 1 - alpha}.  It is then raised
    by the few ulps that the division can lose, until coverage_fraction
    itself reaches the level.
    """
    _check_alpha(alpha)
    mat = _curve_matrix(curves)
    pilot = np.asarray(pilot_values, dtype=float)
    sigma = np.asarray(sigma_star, dtype=float)
    if not np.any(sigma > 0.0):
        raise DegenerateVarianceError("bootstrap standard deviation is identically zero")
    dev = np.abs(pilot[None, :] - mat)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sigma > 0.0, dev / sigma, np.where(dev > 0.0, np.inf, 0.0))
    target = 1.0 - alpha
    # k/B >= target is the comparison coverage_fraction makes, so m_(k) meets the level up to rounding
    m = np.sort(ratio.max(axis=1))
    lam = float(m[np.argmax(np.arange(1, m.size + 1) / m.size >= target)])
    if not np.isfinite(lam):
        raise DegenerateVarianceError("coverage never reaches the target level")
    while coverage_fraction(lam, pilot, mat, sigma) < target:
        lam = float(np.nextafter(lam, np.inf))
    return lam


def clamp_and_plateau_fix(region: ConfidenceRegion) -> ConfidenceRegion:
    """Clamp the envelope into [0, 1] and widen a degenerate leading plateau.

    When the first grid points have lower = upper = 1 (no data information
    near t = 0) the lower bound there is replaced by its first value below 1.
    If no grid point has lower < 1 the region is flagged degenerate.
    """
    lower = np.clip(region.lower, 0.0, 1.0)
    upper = np.clip(region.upper, 0.0, 1.0)
    degenerate = region.degenerate
    flat = (lower >= 1.0) & (upper >= 1.0)
    if flat[0]:
        below = np.flatnonzero(lower < 1.0)
        if below.size == 0:
            degenerate = True
        else:
            run_end = np.flatnonzero(~flat)
            lead = run_end[0] if run_end.size else lower.size
            first_drop = below[0]
            lower[: min(lead, first_drop)] = lower[first_drop]
    return replace(region, lower=lower, upper=upper, degenerate=degenerate)


def _region(methods, sample, x0s, h, plan, grid, alpha=0.05, g=None, estimator="beran", support=None,
            resamples=None) -> dict:
    """Regions of each method at each x0, {method: [region per x0]}, from one batch of resamples.

    Each region is estimate +- lambda* scale, clamped into [0, 1].  The scale
    is sigma* for method 1 and one for method 2.  With scale one the
    deviations are divided by one and lambda* multiplies one, both exactly,
    so method 2's lambda* is the sup-norm radius rho* of method2_radius.  One
    engine call gives the bootstrap curves of every x0, and at each x0 the
    curves, pilot and centre serve every method.
    """
    _check_alpha(alpha)
    _check_replicates(methods, plan.B)
    # estimator tags and resampling scheme names are the same strings
    if plan.scheme != estimator:
        raise ValueError(f"{estimator!r} regions require a {estimator!r}-scheme plan, got {plan.scheme!r}")
    h, g = _estimator_bandwidths(estimator, h, g)
    batch = _CurveBatch(_resamples_or_generate(sample, plan, support, resamples), grid.points, support)
    regions: dict = {method: [] for method in methods}
    for x0, (curves, ok) in zip(x0s, batch.values([(x0, (h, g)) for x0 in x0s])):
        if not ok.all():
            raise DegenerateWeightsError("a bootstrap curve degenerated at the requested bandwidth")
        pilot = _pilot_values(sample, x0, plan, grid.points, support)
        center = _single_curve(sample, x0, h, grid.points, support, g)
        for method, found in regions.items():
            sigma = bootstrap_sigma(curves) if method == 1 else None
            scale = sigma if method == 1 else np.ones(grid.n_points)
            lam = calibrate_lambda(pilot, curves, scale, alpha)
            region = ConfidenceRegion(grid=grid, lower=center - lam * scale, upper=center + lam * scale,
                                      estimate=center, method=f"method{method}", estimator_tag=estimator,
                                      level=1.0 - alpha, calibration=lam, x0=float(x0), h=h, g=g,
                                      sigma_star=sigma, seed=plan.seed)
            found.append(clamp_and_plateau_fix(region))
    return regions


def region_method1(
    sample: SurvivalSample,
    x0: float,
    h: float,
    plan: ResamplingPlan,
    grid: TimeGrid,
    alpha: float = 0.05,
    g: float | None = None,
    estimator: str = "beran",
    support: tuple[float, float] | None = None,
    resamples=None,
) -> ConfidenceRegion:
    """Variance-scaled envelope: estimate +- lambda* sigma*(t|x0), lambda* an exact order statistic."""
    return _region((1,), sample, (x0,), h, plan, grid, alpha, g, estimator, support, resamples)[1][0]


def method2_radius(pilot_values, curves, grid: TimeGrid, alpha: float) -> float:
    """Order-statistic radius rho* of the sup-norm ball around the estimate.

    This is calibrate_lambda at scale one on the grid, the calibration that
    region_method2 runs.
    """
    return calibrate_lambda(pilot_values, curves, np.ones(grid.n_points), alpha)


def region_method2(
    sample: SurvivalSample,
    x0: float,
    h: float,
    plan: ResamplingPlan,
    grid: TimeGrid,
    alpha: float = 0.05,
    g: float | None = None,
    estimator: str = "beran",
    support: tuple[float, float] | None = None,
    resamples=None,
) -> ConfidenceRegion:
    """Sup-norm ball region: estimate +- rho*, constant width before clamping."""
    return _region((2,), sample, (x0,), h, plan, grid, alpha, g, estimator, support, resamples)[2][0]


def write_region_csv(region: ConfidenceRegion, csv_path, sidecar_path=None, extra=None) -> None:
    """Write the region as CSV columns t, lower, estimate, upper plus a JSON sidecar.

    `extra` entries (for example run metadata such as B or a version string)
    are merged into the sidecar.
    """
    _write_csv(csv_path, ["t", "lower", "estimate", "upper"],
               zip(region.grid.points, region.lower, region.estimate, region.upper))
    if sidecar_path is not None:
        meta = {
            "method": region.method,
            "estimator": region.estimator_tag,
            "level": region.level,
            "lambda_or_rho": region.calibration,
            "bandwidths": {"h": region.h, "g": region.g},
            "x0": region.x0,
            "seed": region.seed,
            "average_width": region.average_width,
            "degenerate": region.degenerate,
        }
        if extra:
            meta.update(extra)
        _write_json(sidecar_path, meta)
