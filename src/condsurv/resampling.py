"""Bootstrap resampling from estimated conditional laws of time and censoring.

Each replicate draws covariates (empirically, or kernel-smoothed with the
covariate pilot bandwidth), then lifetimes and censoring times from the
product-limit laws fitted to the original sample at the pilot bandwidths,
and recombines them through Z* = min(T*, C*), delta* = I(T* <= C*).  The
censoring law swaps the status indicator before fitting.

Replicate k consumes the RNG stream derived from (seed, k), so results do
not depend on evaluation order or the degree of parallelism.  Within a
replicate the draw order is: covariate indices, covariate noise, lifetime
uniforms, lifetime noise, censoring uniforms, censoring noise; the beran
scheme makes no noise draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError
from .estimators import _at_risk_rows, _query_weights, _sort_order, _survival_from_masses
from . import kernels
from .kernels import _mirrored, fold_into_support
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
# kernel-weight bytes per block of query rows; the laws are built one block at a time
_BLOCK_BYTES = 1 << 20


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
        if not 0.0 < self.pilot_r < np.inf:
            raise ValueError("pilot_r must be positive and finite")
        if self.B < 1:
            raise ValueError("B must be at least 1")
        if self.scheme == SCHEME_SMOOTHED:
            if self.pilot_s is None or not 0.0 < self.pilot_s < np.inf:
                raise ValueError("smoothed-beran plans require a positive finite pilot_s")
        elif self.pilot_s is not None:
            raise ValueError(f"beran plans take no pilot_s, got {self.pilot_s!r}")


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
        if not (np.isfinite(atoms).all() and np.isfinite(cum).all()):
            raise ValueError("atoms and cum must be finite")
        if np.any(np.diff(atoms) < 0.0) or np.any(np.diff(cum) < -1e-12):
            raise ValueError("atoms and cum must be nondecreasing")
        # the tolerated dips are clipped, so the inversion is the generalized inverse
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "cum", np.maximum.accumulate(cum))


def inverse_transform_sample(cdf: StepCDF, u):
    """Generalized inverse inf{t : cdf(t) >= u} of a step cdf.

    The inversion is the resampler's own.  Non-finite u raise ValueError.

    Returns
    -------
    (t, saturated)
        `saturated` marks u at or above the terminal cdf value; those draws
        return the largest atom.
    """
    if not isinstance(cdf, StepCDF):
        raise TypeError("cdf must be a StepCDF")
    scalar = np.ndim(u) == 0
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.isfinite(uu).all():
        raise ValueError("u must be finite")
    vals, sat = _rows_inverse(cdf.cum[None, :], np.zeros(uu.shape, dtype=np.intp), cdf.atoms, uu)
    if scalar:
        return float(vals[0]), bool(sat[0])
    return vals, sat


def _conditional_laws(sample, bandwidth, support):
    """The lifetime and censoring laws of a sample at one covariate bandwidth.

    Returns (atoms, columns, block_rows, laws).  `atoms` holds the sorted
    times of each law: ascending z, that law's events first at ties, so the
    two orders differ only where an event and a censoring share a time.
    `laws(block, diag)` gives the lifetime and the censoring cdf rows at a
    block of query covariates on each law's `columns`: a leading column with
    cdf 0, so that u = 0 inverts to the first atom, then the event columns.
    Elsewhere the product-limit factor is exactly 1, so a full row repeats
    the last event column's value.  The rows are views of work arrays that
    the next block overwrites; blocks of `block_rows` queries hold about
    _BLOCK_BYTES of kernel weights.  A query with no kernel mass raises
    DegenerateWeightsError, or, when `diag` is given, moves in place to the
    nearest sample covariate and counts as a retried draw.  Every step is
    row-wise, so a row does not depend on the block it is in.
    """
    x_kern, folded = _mirrored(sample.x, support), support is not None
    events = (sample.delta, 1.0 - sample.delta)
    orders = [_sort_order(sample.z, e) for e in events]
    columns = [np.concatenate(([0], np.flatnonzero(e[order]))) for e, order in zip(events, orders)]
    same_order = np.array_equal(*orders)
    block_rows = max(1, _BLOCK_BYTES // (8 * x_kern.size))
    # each law's event and at-risk masses; fresh arrays in every block would fault in fresh pages
    work = [(np.empty((block_rows, c.size)), np.empty((block_rows, c.size))) for c in columns]

    def weights(queries):
        return _query_weights(x_kern, folded, queries[:, None], bandwidth)

    def cdf_rows(ordered, at_risk, law):
        # the gathers write into the work arrays directly; mode "raise" would buffer them
        mass, risk = (a[:ordered.shape[0]] for a in work[law])
        np.take(ordered, columns[law], axis=1, out=mass, mode="clip")
        mass[:, 0] = 0.0
        np.take(at_risk, columns[law], axis=1, out=risk, mode="clip")
        surv = _survival_from_masses(mass, risk)
        return np.subtract(1.0, surv, out=surv)

    def laws(block, diag=None):
        w, ok = weights(block)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            if diag is None:
                raise DegenerateWeightsError(
                    f"no kernel mass at x0={float(block[bad[0]])!r} with bandwidth {bandwidth!r}"
                )
            diag.retried_draws += bad.size
            block[bad] = sample.x[np.abs(sample.x[None, :] - block[bad, None]).argmin(axis=1)]
            w[bad] = weights(block[bad])[0]
        # the at-risk mass sums every column of the law's order, so one array serves both laws when the orders agree
        ordered = np.take(w, orders[0], axis=1)
        at_risk = _at_risk_rows(ordered)
        lifetime = cdf_rows(ordered, at_risk, 0)
        if not same_order:
            np.take(w, orders[1], axis=1, out=ordered, mode="clip")
            at_risk = _at_risk_rows(ordered)
        return lifetime, cdf_rows(ordered, at_risk, 1)

    return [sample.z[order] for order in orders], columns, block_rows, laws


def conditional_step_law(
    sample: SurvivalSample,
    bandwidth: float,
    x0: float,
    support: tuple[float, float] | None = None,
    censoring: bool = False,
) -> StepCDF:
    """Estimated conditional step law of T (or C when `censoring`) at x0.

    This is exactly the table the resampler draws from, as a block of one
    row expanded to every atom; exposed for diagnostics and law-level tests.
    """
    atoms, columns, _, laws = _conditional_laws(sample, bandwidth, support)
    law = int(censoring)
    # atom i reads the table at the number of the law's events among atoms 0 to i
    expand = np.searchsorted(columns[law][1:], np.arange(atoms[law].size), side="right")
    return StepCDF(atoms=atoms[law], cum=laws(np.atleast_1d(float(x0)))[law][0][expand])


def _rows_inverse(table: np.ndarray, rows: np.ndarray, atoms: np.ndarray, u: np.ndarray):
    # inf{t : cdf(t) >= u[i]} on the nondecreasing row table[rows[i]], by a binary search reading the
    # table in place; u at or beyond the row's terminal value saturates at atoms[-1], the law's largest atom
    m = table.shape[1]
    idx = np.zeros(u.shape, dtype=np.intp)  # entries known to lie below u; past m only if all do
    step = 1 << (m.bit_length() - 1)
    while step:
        probe = idx + step
        below = table[rows, np.minimum(probe, m) - 1] < u
        idx[below] = probe[below]
        step >>= 1
    sat = u >= table[rows, -1]
    return np.where(sat, atoms[-1], atoms[np.minimum(idx, m - 1)]), sat


def resample(
    sample: SurvivalSample,
    plan: ResamplingPlan,
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

    Every replicate draws first; the laws are then built in row blocks, so
    memory grows with the block size times n plus B times n, not with n².

    Returns
    -------
    (samples, diagnostics)
        `samples` is a list of plan.B SurvivalSample objects of size n.
    """
    n, B = sample.n, plan.B
    smoothed = plan.scheme == SCHEME_SMOOTHED
    # every replicate draws first, in its stream's order; replicate k holds entries k*n to (k+1)*n - 1
    j = np.empty(B * n, dtype=np.int64)
    x_star = np.empty(B * n)
    u = np.empty((2, B * n))  # the lifetime, then the censoring law's uniforms and noise
    eps = np.empty((2, B * n)) if smoothed else None
    for k in range(B):
        rng, rep = substream(plan.seed, k), slice(k * n, (k + 1) * n)
        j[rep] = rng.integers(0, n, size=n)
        x_star[rep] = sample.x[j[rep]]
        if smoothed:
            x_star[rep] += plan.pilot_r * kernels._noise(rng, n)
        for law in range(2):
            u[law, rep] = rng.random(n)
            if smoothed:
                eps[law, rep] = kernels._noise(rng, n)
    diag = ResampleDiagnostics()
    if smoothed:
        if support is not None:
            x_star = fold_into_support(x_star, support)
        # each draw's own covariate is its query row; retries move it in x_star
        queries, rows, retry = x_star, np.arange(B * n), diag
    else:
        # both laws at the sample covariates, draw i reading row j[i]
        queries, rows, retry = sample.x, j, None
    # the block loop: draws sorted by row once, each block's laws invert the draws that read its rows
    atoms, columns, block_rows, laws = _conditional_laws(sample, plan.pilot_r, support)
    # each table's atoms, then the law's largest atom, which its saturated draws return
    atoms = [np.append(a[c], a[-1]) for a, c in zip(atoms, columns)]
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    times = [(np.empty(B * n), np.empty(B * n, dtype=bool)) for _ in atoms]
    for lo in range(0, queries.size, block_rows):
        hi = min(lo + block_rows, queries.size)
        first, last = np.searchsorted(sorted_rows, (lo, hi))
        draws, local = order[first:last], sorted_rows[first:last] - lo
        # the block's tables live only in the comprehension, so they are freed before the next block
        inverted = [_rows_inverse(table, local, law_atoms, law_u[draws])
                    for table, law_atoms, law_u in zip(laws(queries[lo:hi], retry), atoms, u)]
        for (step, sat), (block_step, block_sat) in zip(times, inverted):
            step[draws], sat[draws] = block_step, block_sat
    if smoothed:
        times = [(np.where(sat, step, np.maximum(0.0, step + plan.pilot_s * e)), sat)
                 for (step, sat), e in zip(times, eps)]
    (t_star, sat_t), (c_star, sat_c) = times
    diag.saturated_time_draws, diag.saturated_censoring_draws = int(sat_t.sum()), int(sat_c.sum())
    z, delta = np.minimum(t_star, c_star), (t_star <= c_star).astype(float)
    return [SurvivalSample(x=x_star[k * n:(k + 1) * n], z=z[k * n:(k + 1) * n], delta=delta[k * n:(k + 1) * n])
            for k in range(B)], diag
