import numpy as np
import pytest

from condsurv import SurvivalSample, TimeGrid


@pytest.fixture
def hand_sample():
    """Three observations at one covariate value: event, censored, event."""
    return SurvivalSample(x=[0.5, 0.5, 0.5], z=[1.0, 2.0, 3.0], delta=[1, 0, 1])


@pytest.fixture
def grid_4():
    return TimeGrid(np.array([1.0, 2.0, 3.0, 4.0]))


def reflect_covariates(sample, support):
    """Reference reflection: the sample followed by its mirror images 2a - x and 2b - x."""
    a, b = support
    return SurvivalSample(x=np.concatenate([sample.x, 2.0 * a - sample.x, 2.0 * b - sample.x]),
                          z=np.tile(sample.z, 3), delta=np.tile(sample.delta, 3))


def random_sample(rng, n, censor_scale=1.0):
    """Continuous right-censored sample with distinct times almost surely."""
    x = rng.random(n)
    t = rng.exponential(1.0, n)
    c = rng.exponential(censor_scale, n)
    return SurvivalSample(x=x, z=np.minimum(t, c), delta=(t <= c).astype(float))


def pure_product_limit(z, delta, w):
    """Reference product-limit evaluator: plain loops, uncensored-first ties."""
    order = sorted(range(len(z)), key=lambda i: (z[i], -delta[i]))
    surv, out, cum = 1.0, [], 0.0
    for i in order:
        at_risk = 1.0 - cum
        if delta[i] == 1:
            if at_risk <= 1e-12:
                factor = 1.0 if w[i] <= 1e-12 else 0.0
            else:
                factor = 1.0 - w[i] / at_risk
            surv *= max(0.0, min(1.0, factor))
        cum += w[i]
        out.append((z[i], surv))
    return out


def eval_steps(steps, t):
    value = 1.0
    for zi, si in steps:
        if zi <= t:
            value = si
    return value


# The engine writes each step into buffers it owns; these are the plain
# expressions it replaced, kept as the bit-for-bit reference.
def reference_query_weights(x_kern, folded, queries, h):
    k = np.exp(-0.5 * np.square((queries - x_kern) / h)) * (1.0 / np.sqrt(2.0 * np.pi))
    if folded:
        k = k.reshape(k.shape[0], 3, -1).sum(axis=1)
    tot = k.sum(axis=1, keepdims=True)
    return k / np.where(tot > 0.0, tot, 1.0), tot[:, 0] > 0.0


def reference_product_limit_rows(w, d):
    cum = np.cumsum(w, axis=1)
    at_risk = 1.0 - (cum - w)
    event = w * d
    factors = 1.0 - event / np.maximum(at_risk, 1e-12)
    np.clip(factors, 0.0, 1.0, out=factors)
    factors[(at_risk <= 1e-12) & (event <= 1e-12)] = 1.0
    return np.cumprod(factors, axis=1)


class FakeClock:
    """A stand-in for a module's `time`: perf_counter reads `times` in turn, then stays at the last."""

    def __init__(self, *times):
        self.times = list(times)

    def perf_counter(self):
        return self.times.pop(0) if len(self.times) > 1 else self.times[0]


def fresh_python(args, cwd=None, env=None):
    """Run `python args...` in a new interpreter that imports this checkout of condsurv.

    `env` replaces the inherited environment; PYTHONPATH is set either way.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import condsurv

    src = str(Path(condsurv.__file__).resolve().parent.parent)
    env = os.environ if env is None else env
    env = dict(env, PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True)
