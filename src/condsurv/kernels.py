"""The one Gaussian kernel of condsurv and covariate boundary reflection.

Every estimator and resampler uses one kernel with no settable parts:
  K(u)  = exp(-u^2/2)/sqrt(2 pi), the standard normal density
  IK(t) = ndtr(t), its distribution function
  noise = clip(ndtri(U), -50, 50) for U uniform on [0, 1)

It is the Gaussian truncated to (-50, 50), whose mass is exactly 1.0 in
double precision, so the truncation shows only in the clip of the noise.
KernelSpec and DEFAULT_KERNEL name that kernel for eval_kernel and
eval_integrated_kernel, which take it only for their call form.  The cdf
and the noise use scipy's ndtr and ndtri, which _ufuncs loads on first use
without the scipy.special package init and its array-API backends.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
import types
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "DEFAULT_KERNEL",
    "eval_kernel",
    "eval_integrated_kernel",
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


@dataclass(frozen=True)
class KernelSpec:
    """The one kernel: the Gaussian on (-50, 50); it takes no arguments."""

    family = "truncated-gaussian"
    truncation_range = (-50.0, 50.0)


DEFAULT_KERNEL = KernelSpec()


def eval_kernel(spec: KernelSpec, u) -> float | np.ndarray:
    """Kernel density K at u; `spec` is DEFAULT_KERNEL."""
    return _gaussian_density(np.asarray(u, dtype=float))


def eval_integrated_kernel(spec: KernelSpec, t) -> float | np.ndarray:
    """Kernel distribution function IK at t; `spec` is DEFAULT_KERNEL."""
    return _cdf()(np.asarray(t, dtype=float))


def _gaussian_density(u, out=None):
    # exp(-u^2/2)/sqrt(2 pi) evaluated in one buffer; `out` may be u itself
    if out is None:
        out = np.empty(np.shape(u))
    with np.errstate(over="ignore"):  # exp(-inf) is exactly 0
        np.square(u, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    return out if out.ndim else out[()]


# Callers bind the cdf when they run, not at import, so scipy loads on first use.
def _cdf():
    return _ufuncs()[0]


def _noise(rng: np.random.Generator, size: int) -> np.ndarray:
    with np.errstate(divide="ignore"):  # ndtri(0) is -inf, clipped to the range
        return np.clip(_ufuncs()[1](rng.random(size)), *KernelSpec.truncation_range)


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
