"""Bootstrap resampling from estimated conditional laws of time and censoring.

Each replicate draws covariates (empirically, or kernel-smoothed with the
covariate pilot bandwidth), then lifetimes and censoring times from the
product-limit laws fitted to the original sample at the pilot bandwidths,
and recombines them through Z* = min(T*, C*), delta* = I(T* <= C*).  The
censoring law swaps the status indicator before fitting.

Replicate k consumes the RNG stream derived from (seed, k), so results do
not depend on evaluation order or the degree of parallelism.  Within a
replicate the draw order is: covariate indices, covariate noise (smoothed
scheme only), lifetime uniforms, lifetime noise, censoring uniforms,
censoring noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError
from .estimators import _cdf_rows, _query_weights, _sort_order
from .kernels import DEFAULT_KERNEL, KernelSpec, _mirrored, fold_into_support, kernel_fn, kernel_rvs
from .samples import SurvivalSample

__all__ = [
    "SCHEME_BERAN",
    "SCHEME_SMOOTHED",
    "ResamplingPlan",
    "ResampleDiagnostics",
    "StepCDF",
    "substream",
    "inverse_transform_sample",
    "conditional_step_law",
    "resample",
]

SCHEME_BERAN = "beran"
SCHEME_SMOOTHED = "smoothed-beran"


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream at `path` under a master seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def child_seed(seed: int, *path: int) -> int:
    """Derived 63-bit integer seed, for plans nested under a master seed."""
    return int(substream(seed, *path).integers(0, 2**63))


@dataclass(frozen=True)
class ResamplingPlan:
    """Scheme, pilot bandwidths, seed and replicate count for one bootstrap run."""

    scheme: str
    pilot_r: float
    seed: int
    B: int
    pilot_s: float | None = None

    def __post_init__(self):
        if self.scheme not in (SCHEME_BERAN, SCHEME_SMOOTHED):
            raise ValueError(f"unknown resampling scheme: {self.scheme!r}")
        if not self.pilot_r > 0.0:
            raise ValueError("pilot_r must be positive")
        if self.B < 1:
            raise ValueError("B must be at least 1")
        if self.scheme == SCHEME_SMOOTHED:
            if self.pilot_s is None or not self.pilot_s > 0.0:
                raise ValueError("smoothed-beran plans require a positive pilot_s")


@dataclass
class ResampleDiagnostics:
    """Counters accumulated across all replicates of one resampling run."""

    saturated_time_draws: int = 0
    saturated_censoring_draws: int = 0
    retried_draws: int = 0


@dataclass(frozen=True)
class StepCDF:
    """Right-continuous step cdf: cum[i] is the cdf value at atoms[i]."""

    atoms: np.ndarray
    cum: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        cum = np.asarray(self.cum, dtype=float)
        if atoms.size != cum.size or atoms.size == 0:
            raise ValueError("atoms and cum must be nonempty and equally long")
        if np.any(np.diff(atoms) < 0.0) or np.any(np.diff(cum) < -1e-12):
            raise ValueError("atoms and cum must be nondecreasing")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "cum", cum)


def inverse_transform_sample(cdf, u, support=None, tol: float = 1e-10):
    """Generalized inverse inf{t : cdf(t) >= u}.

    StepCDF inputs resolve by atom lookup.  Callable cdfs are inverted by
    bisection on the support interval to absolute tolerance `tol` in t.

    Returns
    -------
    (t, saturated)
        `saturated` marks u at or above the terminal cdf value; those draws
        return the largest support point.
    """
    scalar = np.ndim(u) == 0
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if isinstance(cdf, StepCDF):
        idx = np.searchsorted(cdf.cum, uu, side="left")
        sat = uu >= cdf.cum[-1]
        vals = np.where(sat, cdf.atoms[-1], cdf.atoms[np.minimum(idx, cdf.atoms.size - 1)])
    elif callable(cdf):
        if support is None:
            raise ValueError("a support interval is required to invert a callable cdf")
        lo = np.full_like(uu, float(support[0]))
        hi = np.full_like(uu, float(support[1]))
        sat = uu >= np.asarray(cdf(hi), dtype=float)
        while np.any((hi - lo) > tol):
            mid = 0.5 * (lo + hi)
            go_left = np.asarray(cdf(mid), dtype=float) >= uu
            hi = np.where(go_left, mid, hi)
            lo = np.where(go_left, lo, mid)
        vals = np.where(sat, float(support[1]), 0.5 * (lo + hi))
    else:
        raise TypeError("cdf must be a StepCDF or a callable")
    if scalar:
        return float(vals[0]), bool(sat[0])
    return vals, sat


def _law_tables(sample, bandwidth, queries, kernel, support, censoring):
    """(atoms, cum, ok): conditional cdf of T (or C) at each query covariate."""
    events = 1.0 - sample.delta if censoring else sample.delta
    order = _sort_order(sample.z, events)
    x_kern = _mirrored(sample.x[order], support)
    w, ok = _query_weights(
        x_kern, support is not None, np.asarray(queries, dtype=float)[:, None], bandwidth, kernel_fn(kernel)
    )
    return sample.z[order], _cdf_rows(w, events[order]), ok


def conditional_step_law(
    sample: SurvivalSample,
    bandwidth: float,
    x0: float,
    kernel: KernelSpec = DEFAULT_KERNEL,
    support: tuple[float, float] | None = None,
    censoring: bool = False,
) -> StepCDF:
    """Estimated conditional step law of T (or C when `censoring`) at x0.

    This is exactly the table the resampler draws from; exposed for
    diagnostics and law-level tests.
    """
    atoms, cum, ok = _law_tables(sample, bandwidth, np.atleast_1d(float(x0)), kernel, support, censoring)
    if not ok[0]:
        raise DegenerateWeightsError(f"no kernel mass at x0={x0!r} with bandwidth {bandwidth!r}")
    return StepCDF(atoms=atoms, cum=cum[0])


def _rows_inverse(cum_rows: np.ndarray, atoms: np.ndarray, u: np.ndarray, top_value: float):
    idx = np.sum(cum_rows < u[:, None], axis=1)
    sat = u >= cum_rows[:, -1]
    vals = np.where(sat, top_value, atoms[np.minimum(idx, atoms.size - 1)])
    return vals, sat


def resample(
    sample: SurvivalSample,
    plan: ResamplingPlan,
    kernel: KernelSpec = DEFAULT_KERNEL,
    support: tuple[float, float] | None = None,
):
    """Generate plan.B bootstrap resamples of the sample.

    Under the "beran" scheme covariates are drawn from the empirical covariate
    distribution and times from the product-limit laws at the covariate pilot
    bandwidth.  Under "smoothed-beran" the covariates receive kernel noise at
    scale pilot_r (reflected into the support when one is declared) and the
    time draws receive kernel noise at scale pilot_s, which samples exactly
    the time-smoothed law.  Draws whose conditional law has no kernel mass are
    retried at the nearest sample covariate; draws beyond a law's terminal
    mass saturate at the largest observed time.  All counts are reported in
    the returned diagnostics.

    Returns
    -------
    (samples, diagnostics)
        `samples` is a list of plan.B SurvivalSample objects of size n.
    """
    n = sample.n
    max_time = float(sample.z.max())
    kfn = kernel_fn(kernel)
    diag = ResampleDiagnostics()
    out: list[SurvivalSample] = []

    if plan.scheme == SCHEME_BERAN:
        atoms_t, cum_t, _ = _law_tables(sample, plan.pilot_r, sample.x, kernel, support, False)
        atoms_c, cum_c, _ = _law_tables(sample, plan.pilot_r, sample.x, kernel, support, True)
        for k in range(plan.B):
            rng = substream(plan.seed, k)
            j = rng.integers(0, n, size=n)
            u_t = rng.random(n)
            u_c = rng.random(n)
            t_star, sat_t = _rows_inverse(cum_t[j], atoms_t, u_t, max_time)
            c_star, sat_c = _rows_inverse(cum_c[j], atoms_c, u_c, max_time)
            diag.saturated_time_draws += int(sat_t.sum())
            diag.saturated_censoring_draws += int(sat_c.sum())
            out.append(
                SurvivalSample(
                    x=sample.x[j],
                    z=np.minimum(t_star, c_star),
                    delta=(t_star <= c_star).astype(float),
                )
            )
        return out, diag

    # smoothed-beran: per-replicate laws at freshly smoothed covariates.
    # The lifetime and censoring laws share one kernel-weight matrix; only the
    # tie-breaking sort order and the event indicator differ between them,
    # and the orders coincide unless an event and a censoring share a time.
    x_kern, folded = _mirrored(sample.x, support), support is not None
    events_c = 1.0 - sample.delta
    order_t = _sort_order(sample.z, sample.delta)
    order_c = _sort_order(sample.z, events_c)
    same_order = np.array_equal(order_t, order_c)
    z_t, d_t = sample.z[order_t], sample.delta[order_t]
    z_c, d_c = sample.z[order_c], events_c[order_c]
    s = float(plan.pilot_s)
    for k in range(plan.B):
        rng = substream(plan.seed, k)
        j = rng.integers(0, n, size=n)
        eps_x = kernel_rvs(kernel, rng, n)
        x_star = sample.x[j] + plan.pilot_r * eps_x
        if support is not None:
            x_star = fold_into_support(x_star, support)
        u_t = rng.random(n)
        eps_t = kernel_rvs(kernel, rng, n)
        u_c = rng.random(n)
        eps_c = kernel_rvs(kernel, rng, n)

        w, ok = _query_weights(x_kern, folded, x_star[:, None], plan.pilot_r, kfn)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            diag.retried_draws += bad.size
            nearest = np.abs(sample.x[None, :] - x_star[bad, None]).argmin(axis=1)
            x_star[bad] = sample.x[nearest]
            w[bad], _ = _query_weights(x_kern, folded, x_star[bad, None], plan.pilot_r, kfn)

        w_t = w[:, order_t]
        w_c = w_t if same_order else w[:, order_c]
        cum_rows_t = _cdf_rows(w_t, d_t)
        cum_rows_c = _cdf_rows(w_c, d_c)
        t_step, sat_t = _rows_inverse(cum_rows_t, z_t, u_t, max_time)
        c_step, sat_c = _rows_inverse(cum_rows_c, z_c, u_c, max_time)
        diag.saturated_time_draws += int(sat_t.sum())
        diag.saturated_censoring_draws += int(sat_c.sum())
        t_star = np.where(sat_t, max_time, np.maximum(0.0, t_step + s * eps_t))
        c_star = np.where(sat_c, max_time, np.maximum(0.0, c_step + s * eps_c))
        out.append(
            SurvivalSample(
                x=x_star,
                z=np.minimum(t_star, c_star),
                delta=(t_star <= c_star).astype(float),
            )
        )
    return out, diag
