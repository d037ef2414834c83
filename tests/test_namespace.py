import importlib
import inspect

import pytest

import condsurv

MODULES = ["bandwidth", "benchmark", "dataio", "estimators", "kernels", "regions", "resampling",
           "samples", "simulation"]

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
