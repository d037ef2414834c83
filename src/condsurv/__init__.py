"""Nonparametric conditional survival estimation under right random censoring.

Kernel-weighted product-limit estimation (with optional time smoothing),
bootstrap bandwidth selection, bootstrap confidence regions and a Monte
Carlo benchmark harness on closed-form models.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all. ``import condsurv`` loads no module (and so no numpy):
a name is imported from its module on first use, which lets the CLI set its
thread variable before numpy's BLAS loads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = ("samples", "kernels", "estimators", "resampling", "bandwidth", "regions", "simulation", "benchmark",
            "dataio")


def __getattr__(name):
    if name in _MODULES or name == "errors":
        return _import_module(f".{name}", __name__)  # the import binds it in this namespace
    if name == "__all__":
        value = ["errors"]
        for module_name in _MODULES:
            value += _import_module(f".{module_name}", __name__).__all__
    else:
        for module_name in _MODULES:
            module = _import_module(f".{module_name}", __name__)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
