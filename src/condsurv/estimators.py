"""Conditional product-limit survival estimators.

Conventions:
  weights    w_i(x) = K((x - X_i)/h) / sum_j K((x - X_j)/h)
  survival   S_h(t|x) = prod over sorted Z_(i) <= t of
                 (1 - delta_(i) w_(i) / (1 - sum_{j<i} w_(j)))
  smoothing  S_hg(t|x) = 1 - sum_i s_(i) IK((t - Z_(i))/g)
             with jump masses s_(i) = S_h(Z_(i-1)|x) - S_h(Z_(i)|x), Z_(0) := 0

Ties in Z are ordered uncensored-first.  When the at-risk mass in a
denominator falls below 1e-12 the factor is 1 if the event mass is also
negligible and 0 otherwise (the curve absorbs at zero).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError
from . import kernels
from .kernels import _mirrored
from .samples import SurvivalCurve, SurvivalSample, TimeGrid

__all__ = ["BeranWeights", "beran_weights", "beran_survival", "kaplan_meier", "smoothed_beran_survival"]

_AT_RISK_EPS = 1e-12
# the bytes of integrated-kernel tensors a _CurveBatch holds at once (at least one tensor)
_TENSOR_CACHE_BYTES = 64 << 20


@dataclass(frozen=True)
class BeranWeights:
    """Nadaraya-Watson covariate weights at a conditioning point."""

    w: np.ndarray
    x0: float
    h: float


def _sort_order(z: np.ndarray, events: np.ndarray) -> np.ndarray:
    # ascending z along the last axis; at ties, rows with events == 1 come first
    return np.lexsort((1.0 - events, z))


def _query_weights(x_kern: np.ndarray, folded: bool, queries, h: float):
    """Normalized weights of each original point at each query covariate.

    `x_kern` holds one row of kernel covariates per weight row, or a single
    row shared by all queries; `queries` broadcasts against it (a scalar, or
    a column of query covariates).  With reflection (`folded`) each row is
    the points followed by their two blocks of mirror images, and the three
    kernel values of a point are summed first: the product-limit over the
    reflected sample telescopes to the product-limit over the original points
    with these folded weights, so downstream arrays stay length n.  Weights
    are normalized in the column order of `x_kern`.  `ok` marks rows with
    positive kernel mass.
    """
    u = np.subtract(queries, x_kern)
    with np.errstate(over="ignore"):  # a huge |u| gives weight exp(-inf) = 0, exactly
        u /= h
    k = kernels._gaussian_density(u, out=u)
    if folded:
        k = k.reshape(k.shape[0], 3, -1).sum(axis=1)
    tot = k.sum(axis=1, keepdims=True)
    ok = tot[:, 0] > 0.0
    k /= np.where(tot > 0.0, tot, 1.0)
    return k, ok


def _at_risk_rows(w: np.ndarray) -> np.ndarray:
    """The at-risk mass 1 - (cumsum(w) - w) before each sorted observation."""
    at_risk = np.cumsum(w, axis=1)
    at_risk -= w
    return np.subtract(1.0, at_risk, out=at_risk)


def _product_limit_rows(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Survival values after each sorted observation, one row per sample.

    Each step writes into one of two buffers owned here (`w` is not
    modified), so no array of the full size is allocated per operation.
    """
    return _survival_from_masses(np.multiply(w, d), _at_risk_rows(w))


def _survival_from_masses(factors: np.ndarray, at_risk: np.ndarray) -> np.ndarray:
    """The product-limit survival rows from event masses, in place in `factors`; `at_risk` is clamped in place."""
    # clamping the denominator avoids subnormal divisions; with the clip it
    # yields factor 0 whenever the at-risk mass is negligible but the event
    # mass is not, and the explicit fix restores factor 1 when both vanish
    vanish = at_risk <= _AT_RISK_EPS
    vanish &= factors <= _AT_RISK_EPS
    np.maximum(at_risk, _AT_RISK_EPS, out=at_risk)
    factors /= at_risk
    np.subtract(1.0, factors, out=factors)
    np.clip(factors, 0.0, 1.0, out=factors)
    factors[vanish] = 1.0
    return np.cumprod(factors, axis=1, out=factors)


def _jumps_from_survival(surv: np.ndarray) -> np.ndarray:
    jumps = np.empty_like(surv)
    jumps[..., 0] = 1.0 - surv[..., 0]
    jumps[..., 1:] = surv[..., :-1] - surv[..., 1:]
    return jumps


class _CurveBatch:
    """Kernel-weighted product-limit curves of a batch of samples on a time grid.

    This is the one evaluation path from covariate weights through the
    product-limit to grid values; a single curve is a batch of one.  Each
    row's x, z and delta are sorted once here, so weights are normalized in
    sorted order and results do not depend on the input order.  Everything
    that does not depend on the bandwidths (grid step positions, distinct
    jump locations) is precomputed.  Boundary reflection enters through
    folded kernel weights, so all product-limit arrays keep the sample length.
    """

    def __init__(self, samples, points, support=None):
        xs = np.stack([s.x for s in samples])
        zs = np.stack([s.z for s in samples])
        ds = np.stack([s.delta for s in samples])
        orders = _sort_order(zs, ds)
        self.B = xs.shape[0]
        self.z = np.take_along_axis(zs, orders, axis=1)
        self.d = np.take_along_axis(ds, orders, axis=1)
        self._x_kern = _mirrored(np.take_along_axis(xs, orders, axis=1), support)
        self._folded = support is not None
        self.points = np.asarray(points, dtype=float)
        self._counts = np.stack([np.searchsorted(z, self.points, side="right") for z in self.z])
        self._atoms = None
        self._masses: dict = {}
        self._tensors: dict = {}
        self.tensor_builds: Counter = Counter()  # integrated-kernel tensors built, by the x0 that needed them

    def values(self, queries, reduce=lambda x0, values, ok: (values, ok)) -> list:
        """reduce(x0, values, ok) of the curves of each query (x0, point), in query order.

        `values` has one row per sample and `ok` marks the rows with kernel
        mass.  A point (h,) or (h, None) gives Beran step curves; (h, g)
        smooths their jumps in time at scale g.  `reduce` runs per query, so
        the list need not hold every curve.  The queries are evaluated
        grouped by g, in order of first appearance, each by its own einsum,
        so a value does not depend on the queries beside it.  Each (x0, h)'s
        jump masses and each g's integrated-kernel tensor are computed once
        per call; a build is charged in `tensor_builds` to the x0 of the
        first query that needs it.  What the previous call computed is
        reused when it recurs, bit for bit.  A call first drops the held
        tensors whose g it does not use, and the masses it did not use go
        when it ends.  A tensor is kept for the next call only while the held
        and kept tensors, with room for one more in use, fit the byte budget;
        the oldest kept go first.
        """
        queries = list(queries)
        groups: dict = {}
        for i, (_, point) in enumerate(queries):
            g = point[1] if len(point) > 1 else None
            groups.setdefault(None if g is None else float(g), []).append(i)
        self._tensors = {g: tensor for g, tensor in self._tensors.items() if g in groups}
        masses, kept, out = {}, {}, [None] * len(queries)
        for g, members in groups.items():
            tensor = None
            for i in members:
                x0, h = float(queries[i][0]), queries[i][1][0]
                if g is None:
                    w, ok = _query_weights(self._x_kern, self._folded, x0, h)
                    out[i] = reduce(x0, self._grid_values(w), ok)
                    continue
                key = (x0, float(h))
                if key not in masses:
                    masses[key] = self._masses.pop(key) if key in self._masses else self._jump_masses(x0, h)
                ok, agg = masses[key]
                if tensor is None:
                    tensor = self._tensors.pop(g, None)
                    if tensor is None:
                        tensor = self._ik_tensor(g)
                        self.tensor_builds[x0] += 1
                vals = 1.0 - np.einsum("ktu,ku->kt", tensor, agg)
                np.clip(vals, 0.0, 1.0, out=vals)
                out[i] = reduce(x0, vals, ok)
            if tensor is not None:
                kept[g] = tensor
                while len(self._tensors) + len(kept) >= self._tensor_slots:
                    del kept[next(iter(kept))]
        self._masses, self._tensors = masses, kept
        return out

    def _grid_values(self, w: np.ndarray) -> np.ndarray:
        """Beran step-curve values for covariate weights given in sorted order."""
        padded = np.concatenate([np.ones((self.B, 1)), _product_limit_rows(w, self.d)], axis=1)
        return np.take_along_axis(padded, self._counts, axis=1)

    def _jump_masses(self, x0: float, h: float):
        """Rows with kernel mass, and each row's Beran jump mass per distinct event time."""
        w, ok = _query_weights(self._x_kern, self._folded, float(x0), h)
        if self._atoms is None:
            self._prepare_smooth()
        jumps = _jumps_from_survival(_product_limit_rows(w, self.d))
        agg = np.zeros_like(self._atoms)
        if self._runs.size:
            agg.flat[self._slots] = np.add.reduceat(jumps.ravel()[self._events], self._runs)
        return ok, agg

    def _prepare_smooth(self):
        # jump masses live only at uncensored positions, so the integrated
        # kernel tensor is built over the distinct uncensored times per row.
        # An event starts a run of tied events unless the position before it
        # in its row holds the same time (events sort first at ties, so that
        # position is then an event of the run); each run fills one atom slot.
        z = self.z.ravel()
        n = self.z.shape[1]
        self._events = np.flatnonzero(self.d.ravel() == 1.0)
        starts = (self._events % n == 0) | (z[self._events - 1] != z[self._events])
        self._runs = np.flatnonzero(starts)
        rows = self._events[self._runs] // n
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)  # the run's place in its row
        width = max(1, rank.max(initial=-1) + 1)
        self._slots = rows * width + rank
        self._atoms = np.full((self.B, width), np.inf)
        self._atoms.flat[self._slots] = z[self._events[self._runs]]
        self._tensor_slots = max(1, _TENSOR_CACHE_BYTES // (8 * self._atoms.size * self.points.size))

    def _ik_tensor(self, g: float) -> np.ndarray:
        tensor = self.points[None, :, None] - self._atoms[:, None, :]  # each tensor is IK(tensor / g)
        with np.errstate(over="ignore"):  # ndtr(+-inf) is exactly 0 or 1
            tensor /= float(g)
        return kernels._cdf()(tensor, out=tensor)


def _single_curve(sample, x0, h, points, support, g=None) -> np.ndarray:
    """Values of one curve, evaluated as a batch of one."""
    values, ok = _CurveBatch([sample], points, support).values([(x0, (h, g))])[0]
    if not ok[0]:
        raise DegenerateWeightsError(
            f"all kernel weights vanish at x0={x0!r} with bandwidth h={h!r}"
        )
    return values[0]


def _validate_bandwidth(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number")
    return value


def _estimator_bandwidths(estimator: str, h: float | None, g: float | None, names=("h", "g")) -> tuple:
    """The bandwidths (h, g) an estimator takes, checked and called `names` in errors: beran takes h alone."""
    if h is None:
        raise ValueError(f"{names[0]} must be given for the {estimator} estimator")
    h = _validate_bandwidth(h, names[0])
    if estimator == "beran":
        return h, None
    if g is None:
        raise ValueError(f"{names[1]} must be given for the {estimator} estimator")
    return h, _validate_bandwidth(g, names[1])


def beran_weights(
    sample: SurvivalSample,
    x0: float,
    h: float,
    support: tuple[float, float] | None = None,
) -> BeranWeights:
    """Covariate weights w_i(x0) at bandwidth h.

    When a support interval is given the weights are computed on the
    boundary-reflected sample and have length 3n.

    Raises
    ------
    DegenerateWeightsError
        If every kernel value is zero (x0 too far from all covariates at h).
    """
    h = _validate_bandwidth(h, "h")
    w, ok = _query_weights(_mirrored(sample.x, support)[None, :], False, float(x0), h)
    if not ok[0]:
        raise DegenerateWeightsError(
            f"all kernel weights vanish at x0={x0!r} with bandwidth h={h!r}"
        )
    return BeranWeights(w=w[0], x0=float(x0), h=h)


def beran_survival(
    sample: SurvivalSample,
    x0: float,
    h: float,
    grid: TimeGrid,
    support: tuple[float, float] | None = None,
) -> SurvivalCurve:
    """Kernel-weighted product-limit estimate of S(t | x0) on a time grid.

    The curve is a right-continuous step function; censored observations
    contribute a factor of one.
    """
    h = _validate_bandwidth(h, "h")
    values = _single_curve(sample, x0, h, grid.points, support)
    return SurvivalCurve(grid=grid, values=values, estimator_tag="beran", x0=float(x0), h=h)


def kaplan_meier(sample: SurvivalSample, grid: TimeGrid) -> SurvivalCurve:
    """Product-limit estimate with uniform weights 1/n (no covariate)."""
    batch = _CurveBatch([sample], grid.points)
    values = batch._grid_values(np.full((1, sample.n), 1.0 / sample.n))[0]
    return SurvivalCurve(
        grid=grid, values=values, estimator_tag="kaplan-meier", x0=float("nan"), h=None
    )


def smoothed_beran_survival(
    sample: SurvivalSample,
    x0: float,
    h: float,
    g: float,
    grid: TimeGrid,
    support: tuple[float, float] | None = None,
) -> SurvivalCurve:
    """Doubly-smoothed estimate of S(t | x0): Beran jumps convolved in time.

    The Beran step curve at bandwidth h supplies jump masses which are spread
    by the integrated kernel at scale g, giving a continuous curve in t.
    """
    h = _validate_bandwidth(h, "h")
    g = _validate_bandwidth(g, "g")
    values = _single_curve(sample, x0, h, grid.points, support, g)
    return SurvivalCurve(
        grid=grid, values=values, estimator_tag="smoothed-beran", x0=float(x0), h=h, g=g
    )
