import importlib
import inspect
import json
import textwrap

import pytest

import condsurv
from conftest import fresh_python

# in the order in which the package's __all__ lists their names
MODULES = ["samples", "kernels", "estimators", "resampling", "bandwidth", "regions", "simulation", "benchmark",
           "dataio"]

# a dotted name is a class attribute
RETIRED = {
    "bandwidth": ["PilotBandwidths", "bootstrap_mse_pointwise", "bootstrap_mise_1d", "bootstrap_mise_2d",
                  "_bootstrap_mise", "_check_scheme"],
    "benchmark": ["time_bandwidth_selection", "mc_mise", "mise_optimal_2d"],
    "dataio": ["LoadedDataset.factor_levels", "LoadedDataset.censoring_fraction"],
    "kernels": ["_is_effectively_untruncated", "kernel_fn", "integrated_kernel_fn", "reflect_covariates",
                "_phi", "_density", "kernel_rvs"],
    "regions": ["lp_distance"],
    "samples": ["SurvivalCurve.bandwidths"],
}

RETIRED_PARAMETERS = {
    ("benchmark", "BenchConfig"): ["box_h", "box_g"],
    ("estimators", "_query_weights"): ["kfn"],
    ("kernels", "KernelSpec"): ["family", "truncation_range"],
    ("regions", "method2_radius"): ["p"],
    ("regions", "region_method2"): ["norm"],
    ("resampling", "inverse_transform_sample"): ["support", "tol"],
}


def test_every_exported_name_resolves():
    for name in condsurv.__all__:
        assert hasattr(condsurv, name), name
    for module_name in MODULES:
        module = importlib.import_module(f"condsurv.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"


def test_the_package_exports_each_module_list_once():
    declared = ["errors"]
    for module_name in MODULES:
        declared += importlib.import_module(f"condsurv.{module_name}").__all__
    assert len(set(condsurv.__all__)) == len(condsurv.__all__)
    assert condsurv.__all__ == declared


def _fresh_json(code):
    proc = fresh_python(["-c", textwrap.dedent(code)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_numpy_and_no_module():
    loaded = _fresh_json("""
        import json, sys, condsurv
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy" or m.startswith("condsurv."))))
    """)
    assert loaded == []


def test_star_import_and_dir_cover_every_name():
    missing = _fresh_json(f"""
        import json, condsurv
        listed = dir(condsurv)
        from condsurv import *
        print(json.dumps({{"unbound": [n for n in condsurv.__all__ if n not in globals()],
                           "not in dir": [n for n in condsurv.__all__ + {MODULES!r} if n not in listed]}}))
    """)
    assert missing == {"unbound": [], "not in dir": []}


def test_a_module_name_is_the_module_and_an_unknown_name_raises():
    found = _fresh_json("""
        import json, sys, condsurv
        is_module = condsurv.estimators is sys.modules["condsurv.estimators"]
        curve = condsurv.beran_survival
        cached = vars(condsurv).get("beran_survival") is curve is sys.modules["condsurv.estimators"].beran_survival
        try:
            condsurv.no_such_name
        except AttributeError as exc:
            print(json.dumps([is_module, cached, str(exc)]))
    """)
    assert found == [True, True, "module 'condsurv' has no attribute 'no_such_name'"]


def test_each_public_name_has_one_home_module():
    homes = {}
    for module_name in MODULES:
        for name in importlib.import_module(f"condsurv.{module_name}").__all__:
            assert name not in homes, f"{name} is in both {homes[name]} and {module_name}"
            homes[name] = module_name


def _resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("module_name", sorted(RETIRED))
def test_retired_names_are_gone(module_name):
    module = importlib.import_module(f"condsurv.{module_name}")
    for name in RETIRED[module_name]:
        assert not _resolves(module, name), f"{module_name}.{name}"
        assert not _resolves(condsurv, name), name
        assert name not in condsurv.__all__


def test_retired_parameters_are_gone():
    for (module_name, function), parameters in RETIRED_PARAMETERS.items():
        signature = inspect.signature(getattr(importlib.import_module(f"condsurv.{module_name}"), function))
        for parameter in parameters:
            assert parameter not in signature.parameters, f"{function}({parameter}=)"
