"""Truncated-Gaussian kernel primitives and covariate boundary reflection.

This module fixes the one kernel, DEFAULT_KERNEL, that every estimator and
resampler uses; the primitives that take a KernelSpec serve diagnostics and
tests.

Conventions:
  K(u)  renormalized Gaussian density on the truncation range, 0 outside
  IK(t) = integral of K over (-inf, t], clamped to 0 below the range and 1 above

With the default (-50, 50) range the truncation mass is exactly 1.0 in double
precision, so K and IK coincide bit-for-bit with the untruncated normal pdf/cdf,
which is what the estimators and the resampler evaluate.
The cdf and the noise use scipy's ndtr and ndtri, which _ufuncs loads on first
use without the scipy.special package init and its array-API backends.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
import types
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "DEFAULT_KERNEL",
    "eval_kernel",
    "eval_integrated_kernel",
    "kernel_rvs",
    "fold_into_support",
]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@functools.cache
def _ufuncs():
    """(ndtr, ndtri), loaded once without running the scipy.special package init."""
    stub = types.ModuleType("scipy.special")  # stands in while the compiled modules load
    stub.__path__ = importlib.util.find_spec("scipy.special").submodule_search_locations
    try:
        if sys.modules.setdefault("scipy.special", stub) is stub:
            from scipy.special._special_ufuncs import ndtr
            from scipy.special._ufuncs import ndtri
            return ndtr, ndtri
    except ImportError:
        pass
    finally:  # the stub never outlives the load, so `import scipy.special` still works
        if sys.modules.get("scipy.special") is stub:
            for name in [m for m in sys.modules if m.startswith("scipy.special")]:
                del sys.modules[name]
    from scipy.special import ndtr, ndtri  # already imported, or the private modules moved
    return ndtr, ndtri


def _phi(x: float) -> float:
    """Standard normal cdf of one scalar; exactly 0.0 at -50 and 1.0 at 50, as ndtr."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and truncation range in kernel-argument units."""

    family: str = "truncated-gaussian"
    truncation_range: tuple[float, float] = (-50.0, 50.0)

    def __post_init__(self):
        if self.family != "truncated-gaussian":
            raise ValueError(f"unsupported kernel family: {self.family!r}")
        low, high = self.truncation_range
        if not (np.isfinite(low) and np.isfinite(high) and low < high):
            raise ValueError("truncation range must be a finite (low, high) with low < high")

    @property
    def mass(self) -> float:
        """Gaussian probability mass inside the truncation range."""
        low, high = self.truncation_range
        return _phi(high) - _phi(low)


DEFAULT_KERNEL = KernelSpec()


def _scalar_like(value, template):
    if np.ndim(template) == 0:
        return float(value)
    return value


def eval_kernel(spec: KernelSpec, u) -> float | np.ndarray:
    """Renormalized truncated-Gaussian density at u; 0 outside the range."""
    uu = np.asarray(u, dtype=float)
    low, high = spec.truncation_range
    dens = np.exp(-0.5 * uu * uu) * (_INV_SQRT_2PI / spec.mass)
    dens = np.where((uu < low) | (uu > high), 0.0, dens)
    return _scalar_like(dens, u)


def eval_integrated_kernel(spec: KernelSpec, t) -> float | np.ndarray:
    """Kernel distribution function at t, clamped to 0/1 outside the range."""
    ndtr = _ufuncs()[0]
    tt = np.asarray(t, dtype=float)
    low, high = spec.truncation_range
    core = (ndtr(tt) - ndtr(low)) / spec.mass
    out = np.where(tt <= low, 0.0, np.where(tt >= high, 1.0, np.clip(core, 0.0, 1.0)))
    return _scalar_like(out, t)


def _gaussian_density(u, out=None):
    # exp(-u^2/2)/sqrt(2 pi) evaluated in one buffer; `out` may be u itself
    if out is None:
        out = np.empty(np.shape(u))
    np.square(u, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    return out if out.ndim else out[()]


def kernel_rvs(spec: KernelSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-transform draws from the kernel density."""
    ndtr, ndtri = _ufuncs()
    low, high = spec.truncation_range
    u = rng.random(size)
    with np.errstate(divide="ignore"):
        t = ndtri(ndtr(low) + u * spec.mass)
    return np.clip(t, low, high)


# The one kernel every estimator and resampler uses.  Callers bind these
# when they run, not at import, so the kernel's dependencies load on first use.
def _density():
    return _gaussian_density


def _cdf():
    return _ufuncs()[0]


def _noise(rng: np.random.Generator, size: int) -> np.ndarray:
    return kernel_rvs(DEFAULT_KERNEL, rng, size)


def fold_into_support(x, support: tuple[float, float]) -> np.ndarray:
    """Reflect points into (a, b) by repeated mirroring at the endpoints."""
    a, b = support
    if not b > a:
        raise ValueError("support must satisfy a < b")
    length = b - a
    y = np.mod(np.asarray(x, dtype=float) - a, 2.0 * length)
    return a + np.minimum(y, 2.0 * length - y)


def _mirrored(x, support) -> np.ndarray:
    """Covariates followed by their mirror images 2a - x and 2b - x along the last axis.

    Returns x unchanged when no support is declared.
    """
    if support is None:
        return x
    a, b = support
    if not b > a:
        raise ValueError("support must satisfy a < b")
    if np.any(x < a) or np.any(x > b):
        raise ValueError("all covariates must lie inside the declared support")
    return np.concatenate([x, 2.0 * a - x, 2.0 * b - x], axis=-1)
