"""Sample containers, time grids and survival curves shared by every estimator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SurvivalSample", "TimeGrid", "SurvivalCurve", "integrate_on_grid"]


def _readonly_float(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True).ravel()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SurvivalSample:
    """Right-censored sample of (covariate, observed time, status) triples.

    ``delta[i] == 1`` means the event time was observed, ``0`` means the
    observation is censored.  Arrays are stored read-only so samples can be
    shared freely across threads and processes.
    """

    x: np.ndarray
    z: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        x = _readonly_float(self.x)
        z = _readonly_float(self.z)
        delta = _readonly_float(self.delta)
        if not (x.size == z.size == delta.size):
            raise ValueError("x, z and delta must have equal length")
        if x.size < 1:
            raise ValueError("need at least one observation")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        if not np.all(np.isfinite(z)) or np.any(z < 0.0):
            raise ValueError("observed times must be finite and nonnegative")
        if not np.all((delta == 0.0) | (delta == 1.0)):
            raise ValueError("status indicators must be 0 or 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def n_events(self) -> int:
        return int(self.delta.sum())

    @property
    def censoring_fraction(self) -> float:
        return float(1.0 - self.delta.mean())


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation grid t_1 < ... < t_nT over (0, t_nT]."""

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly_float(self.points)
        if pts.size < 2:
            raise ValueError("time grid needs at least two points")
        if np.any(pts < 0.0) or not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite and nonnegative")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, t_max: float, n_points: int = 100) -> "TimeGrid":
        """Uniform grid with last point exactly t_max."""
        if t_max <= 0.0:
            raise ValueError("t_max must be positive")
        return cls(t_max * np.arange(1, n_points + 1) / n_points)

    @property
    def n_points(self) -> int:
        return int(self.points.size)

    @property
    def t_max(self) -> float:
        return float(self.points[-1])

    @property
    def cell_widths(self) -> np.ndarray:
        """Widths of the cells (t_{k-1}, t_k] with t_0 := 0."""
        return np.diff(self.points, prepend=0.0)


def integrate_on_grid(values, grid: TimeGrid) -> float:
    """Riemann sum of grid-point values over (0, t_nT] using the grid cells.

    Each grid point represents its cell (t_{k-1}, t_k]; this is the rule used
    for every error integral in the package.
    """
    values = np.asarray(values, dtype=float)
    return float(values @ grid.cell_widths)


@dataclass(frozen=True)
class SurvivalCurve:
    """A conditional survival estimate evaluated on a time grid."""

    grid: TimeGrid
    values: np.ndarray
    estimator_tag: str
    x0: float
    h: float | None = None
    g: float | None = None

    def __post_init__(self):
        vals = _readonly_float(self.values)
        if vals.size != self.grid.n_points:
            raise ValueError("values must match the grid length")
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValueError("survival values must lie in [0, 1]")
        if np.any(np.diff(vals) > 5e-12):
            raise ValueError("survival values must be nonincreasing")
        object.__setattr__(self, "values", vals)
