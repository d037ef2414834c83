import importlib
import inspect

import pytest

import condsurv

MODULES = ["bandwidth", "benchmark", "dataio", "estimators", "kernels", "regions", "resampling",
           "samples", "simulation"]

RETIRED = {
    "bandwidth": ["PilotBandwidths", "bootstrap_mse_pointwise"],
    "benchmark": ["time_bandwidth_selection"],
    "kernels": ["_is_effectively_untruncated", "kernel_fn", "integrated_kernel_fn", "reflect_covariates",
                "_phi", "_density"],
    "regions": ["lp_distance"],
}

RETIRED_PARAMETERS = {
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


@pytest.mark.parametrize("module_name", sorted(RETIRED))
def test_retired_names_are_gone(module_name):
    module = importlib.import_module(f"condsurv.{module_name}")
    for name in RETIRED[module_name]:
        assert not hasattr(module, name), f"{module_name}.{name}"
        assert not hasattr(condsurv, name), name
        assert name not in condsurv.__all__


def test_retired_parameters_are_gone():
    for (module_name, function), parameters in RETIRED_PARAMETERS.items():
        signature = inspect.signature(getattr(importlib.import_module(f"condsurv.{module_name}"), function))
        for parameter in parameters:
            assert parameter not in signature.parameters, f"{function}({parameter}=)"
