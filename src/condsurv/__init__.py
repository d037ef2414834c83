"""Nonparametric conditional survival estimation under right random censoring.

Kernel-weighted product-limit estimation (with optional time smoothing),
bootstrap bandwidth selection, bootstrap confidence regions and a Monte
Carlo benchmark harness on closed-form models.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from .samples import *
from .kernels import *
from .estimators import *
from .resampling import *
from .bandwidth import *
from .regions import *
from .simulation import *
from .benchmark import *
from .dataio import *
from . import errors

__version__ = "0.1.0"

__all__ = ["errors"]
__all__ += samples.__all__
__all__ += kernels.__all__
__all__ += estimators.__all__
__all__ += resampling.__all__
__all__ += bandwidth.__all__
__all__ += regions.__all__
__all__ += simulation.__all__
__all__ += benchmark.__all__
__all__ += dataio.__all__
