import json
import math
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from conftest import fresh_python
from condsurv import DEFAULT_KERNEL, KernelSpec, SurvivalSample, eval_integrated_kernel, eval_kernel
from condsurv import kernels
from condsurv.kernels import _gaussian_density, _mirrored, _noise, fold_into_support


def test_kernel_zero_outside_truncation_range():
    assert eval_kernel(DEFAULT_KERNEL, 100.0) == 0.0
    assert eval_kernel(DEFAULT_KERNEL, -51.0) == 0.0


def test_kernel_unimodal_at_zero():
    assert eval_kernel(DEFAULT_KERNEL, 0.0) > eval_kernel(DEFAULT_KERNEL, 1.0)


def test_kernel_peak_matches_normal_density():
    # oracle: standard normal pdf with the truncation mass computed from erf;
    # the (-50, 50) mass is numerically one
    mass = 0.5 * (math.erf(50.0 / math.sqrt(2.0)) - math.erf(-50.0 / math.sqrt(2.0)))
    assert mass == 1.0
    oracle = (1.0 / math.sqrt(2.0 * math.pi)) / mass
    assert_allclose(eval_kernel(DEFAULT_KERNEL, 0.0), oracle, rtol=1e-14)


def test_kernel_symmetric_and_nonnegative():
    half = np.linspace(0.0, 60.0, 601)
    u = np.concatenate([-half[::-1], half[1:]])
    vals = eval_kernel(DEFAULT_KERNEL, u)
    assert np.all(vals >= 0.0)
    assert_allclose(vals, vals[::-1], rtol=0, atol=0)


def test_kernel_integrates_to_one():
    total, _ = quad(lambda u: eval_kernel(DEFAULT_KERNEL, u), -50.0, 50.0, points=(-5.0, 0.0, 5.0))
    assert_allclose(total, 1.0, atol=1e-10)


def test_integrated_kernel_clamps_and_midpoint():
    assert eval_integrated_kernel(DEFAULT_KERNEL, -60.0) == 0.0
    assert eval_integrated_kernel(DEFAULT_KERNEL, 60.0) == 1.0
    assert_allclose(eval_integrated_kernel(DEFAULT_KERNEL, 0.0), 0.5, rtol=1e-14)


def test_integrated_kernel_matches_quadrature():
    oracle, _ = quad(lambda u: eval_kernel(DEFAULT_KERNEL, u), -50.0, 1.0, points=(-5.0, 0.0))
    value = eval_integrated_kernel(DEFAULT_KERNEL, 1.0)
    assert_allclose(value, oracle, atol=1e-9)
    assert_allclose(value, 0.8413447, atol=1e-6)


def test_integrated_kernel_nondecreasing():
    t = np.linspace(-55.0, 55.0, 10_000)
    vals = eval_integrated_kernel(DEFAULT_KERNEL, t)
    assert np.all(np.diff(vals) >= 0.0)


class _FixedUniforms:
    # a generator whose uniforms are given, so the draws can reach 0 and subnormals
    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def test_fast_paths_match_generic_evaluation():
    # reference: the general truncated-Gaussian formulas at the one range
    from scipy.special import ndtr, ndtri

    low, high, mass = -50.0, 50.0, 1.0
    tiny = np.nextafter(0.0, 1.0)
    u = np.concatenate([np.linspace(-60.0, 60.0, 2401), [0.0, -0.0, 50.0, -50.0, 50.5, -50.5, np.inf, -np.inf,
                                                         np.nan, tiny, -tiny, 1e-310, -1e-310, 38.6, 38.7]])
    with np.errstate(invalid="ignore"):
        dens = np.exp(-0.5 * u * u) * (1.0 / np.sqrt(2.0 * np.pi) / mass)
        dens = np.where((u < low) | (u > high), 0.0, dens)
        core = (ndtr(u) - ndtr(low)) / mass
        cdf = np.where(u <= low, 0.0, np.where(u >= high, 1.0, np.clip(core, 0.0, 1.0)))
    assert eval_kernel(DEFAULT_KERNEL, u).tobytes() == dens.tobytes()
    assert eval_integrated_kernel(DEFAULT_KERNEL, u).tobytes() == cdf.tobytes()
    for point, d, c in zip(u, dens, cdf):
        assert np.array([eval_kernel(DEFAULT_KERNEL, point)]).tobytes() == np.array([d]).tobytes()
        assert np.array([eval_integrated_kernel(DEFAULT_KERNEL, point)]).tobytes() == np.array([c]).tobytes()
    uniforms = np.concatenate([np.random.default_rng(4).random(10_000),
                               [0.0, tiny, 1e-310, 1e-300, 0.5, np.nextafter(1.0, 0.0)]])
    with np.errstate(divide="ignore"):
        draws = np.clip(ndtri(ndtr(low) + uniforms * mass), low, high)
    assert draws[-6] == low and draws[-2] == 0.0
    assert _noise(_FixedUniforms(uniforms), uniforms.size).tobytes() == draws.tobytes()


def test_gaussian_density_writes_into_out():
    u = np.linspace(-8.0, 8.0, 401)
    expected = _gaussian_density(u)
    np.testing.assert_array_equal(u, np.linspace(-8.0, 8.0, 401))
    buf = np.empty_like(u)
    assert _gaussian_density(u, out=buf) is buf
    np.testing.assert_array_equal(buf, expected)
    in_place = u.copy()
    _gaussian_density(in_place, out=in_place)
    np.testing.assert_array_equal(in_place, expected)
    assert float(_gaussian_density(0.3)) == eval_kernel(DEFAULT_KERNEL, 0.3)


def test_kernel_spec_validation():
    with pytest.raises(TypeError):
        KernelSpec(family="epanechnikov")
    with pytest.raises(TypeError):
        KernelSpec(truncation_range=(-2.0, 2.0))
    assert DEFAULT_KERNEL.truncation_range == (-50.0, 50.0)
    assert DEFAULT_KERNEL.family == "truncated-gaussian"
    assert KernelSpec() == DEFAULT_KERNEL


def test_noise_range_and_determinism():
    draws = _noise(np.random.default_rng(5), 50_000)
    assert np.all(draws >= -50.0) and np.all(draws <= 50.0)
    again = _noise(np.random.default_rng(5), 50_000)
    assert draws.tobytes() == again.tobytes()
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_fold_into_support():
    assert fold_into_support(0.4, (0.0, 1.0)) == pytest.approx(0.4)
    assert fold_into_support(1.2, (0.0, 1.0)) == pytest.approx(0.8)
    assert fold_into_support(-0.3, (0.0, 1.0)) == pytest.approx(0.3)
    assert fold_into_support(2.5, (0.0, 1.0)) == pytest.approx(0.5)
    arr = fold_into_support(np.array([-0.1, 0.5, 1.1]), (0.0, 1.0))
    assert_allclose(arr, [0.1, 0.5, 0.9])


def test_reflect_single_point():
    assert_allclose(_mirrored(np.array([0.5]), (0.0, 1.0)), [0.5, -0.5, 1.5])


def test_reflect_triples_count_and_preserves_pairs():
    x = np.array([[0.1, 0.9], [0.3, 0.2]])
    out = _mirrored(x, (0.0, 1.0))
    assert out.shape == (2, 6)
    # each covariate keeps its column, its mirror images follow at offsets n and 2n
    assert_allclose(out, np.concatenate([x, -x, 2.0 - x], axis=1))
    assert _mirrored(x, None) is x


def test_reflect_rejects_outside_support():
    with pytest.raises(ValueError, match="inside the declared support"):
        _mirrored(np.array([1.4]), (0.0, 1.0))
    with pytest.raises(ValueError, match="a < b"):
        _mirrored(np.array([0.5]), (1.0, 0.0))


def _direct_weights(x_points, x0, h):
    k = np.exp(-0.5 * ((x0 - np.asarray(x_points)) / h) ** 2)
    return k / k.sum()


def test_reflection_changes_boundary_weights_only(hand_sample):
    from condsurv import beran_weights

    rng = np.random.default_rng(11)
    sample = SurvivalSample(x=rng.random(40), z=rng.exponential(1, 40), delta=np.ones(40))
    h = 0.05
    reflected_x = _mirrored(sample.x, (0.0, 1.0))

    near = beran_weights(sample, 0.02, h).w
    near_reflected = beran_weights(sample, 0.02, h, support=(0.0, 1.0)).w
    assert near_reflected.size == 3 * sample.n
    assert np.max(np.abs(near - near_reflected[: sample.n])) > 1e-6

    mid = beran_weights(sample, 0.5, h).w
    mid_reflected = beran_weights(sample, 0.5, h, support=(0.0, 1.0)).w
    # oracle: direct kernel-formula weights on the plain and reflected points
    assert_allclose(mid, _direct_weights(sample.x, 0.5, h), atol=1e-14)
    assert_allclose(mid_reflected, _direct_weights(reflected_x, 0.5, h), atol=1e-14)
    assert np.max(np.abs(mid - mid_reflected[: sample.n])) < 1e-12


def test_only_kernels_decides_the_kernel():
    import inspect
    from pathlib import Path

    import condsurv

    for name in condsurv.__all__:
        obj = getattr(condsurv, name)
        if callable(obj) and obj.__module__ != "condsurv.kernels":
            assert "kernel" not in inspect.signature(obj).parameters, name
    for path in sorted(Path(condsurv.__file__).parent.glob("*.py")):
        if path.name not in ("kernels.py", "__init__.py"):
            text = path.read_text()
            assert "KernelSpec" not in text and "DEFAULT_KERNEL" not in text, path.name


def test_scalar_cdf_agrees_with_scipy_ndtr():
    import scipy.special

    # the truncation at (-50, 50) is exact: the cdf is 0 and 1 at the ends, so the mass is 1
    assert scipy.special.ndtr(-50.0) == 0.0
    assert scipy.special.ndtr(50.0) == 1.0
    assert eval_integrated_kernel(DEFAULT_KERNEL, 50.0) - eval_integrated_kernel(DEFAULT_KERNEL, -50.0) == 1.0
    assert kernels._cdf() is scipy.special.ndtr


def _fresh_json(code):
    proc = fresh_python(["-c", textwrap.dedent(code)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_loaded_ufuncs_are_scipy_specials_bit_for_bit():
    result = _fresh_json("""
        import json, sys
        import numpy as np
        import scipy
        from condsurv import kernels

        t, u = np.linspace(-60.0, 60.0, 100_001), np.linspace(0.0, 1.0, 100_001)
        ndtr, ndtri = kernels._ufuncs()
        loaded = ndtr(t).tobytes(), ndtri(u).tobytes()
        left = sorted(m for m in sys.modules if m.startswith("scipy.special"))
        parent = "special" in vars(scipy)  # the stub was never bound on the scipy package
        import scipy.special
        print(json.dumps({
            "left": left,
            "parent": parent,
            "bits": [loaded[0] == scipy.special.ndtr(t).tobytes(), loaded[1] == scipy.special.ndtri(u).tobytes()],
            "same": [ndtr is scipy.special.ndtr, ndtri is scipy.special.ndtri, kernels._cdf() is scipy.special.ndtr],
        }))
    """)
    assert result == {"left": [], "parent": False, "bits": [True, True], "same": [True, True, True]}


def test_loader_falls_back_when_the_private_import_fails():
    result = _fresh_json("""
        import json, sys

        seen = []  # the scipy.special entries whenever the package itself is looked up

        class Recorder:
            @staticmethod
            def find_spec(name, path=None, target=None):
                if name == "scipy.special":
                    seen.append(sorted(m for m in sys.modules if m.startswith("scipy.special")))

        sys.meta_path.insert(0, Recorder)
        sys.modules["scipy.special._ufuncs"] = None  # the private import raises ImportError
        from condsurv import kernels

        ndtr, ndtri = kernels._ufuncs()
        import scipy.special
        print(json.dumps({
            "at_fallback": seen[-1],
            "values": [float(ndtr(0.0)), float(ndtri(0.5)), float(ndtri(ndtr(1.25)))],
            "public": [ndtr is scipy.special.ndtr, ndtri is scipy.special.ndtri],
            "stubs": [m for m, mod in sys.modules.items() if m.startswith("scipy.special") and not hasattr(mod, "__file__")],
        }))
    """)
    assert result["at_fallback"] == []  # the failed load left no stub entry behind
    assert result["values"] == [0.5, 0.0, pytest.approx(1.25, abs=1e-12)]
    assert result["public"] == [True, True]
    assert result["stubs"] == []


def test_loader_takes_an_imported_scipy_special_as_is():
    import sys

    import scipy.special

    before = {m: mod for m, mod in sys.modules.items() if m.startswith("scipy.special")}
    assert kernels._ufuncs.__wrapped__() == (scipy.special.ndtr, scipy.special.ndtri)
    assert {m: mod for m, mod in sys.modules.items() if m.startswith("scipy.special")} == before
