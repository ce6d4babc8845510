"""Exact zonal polynomials, orthogonal-group moments, and Haar sampling.

The public names are those of each module's ``__all__``.  The exact
modules' names import with the package.  The Haar sampler and the Monte
Carlo estimators need numpy, so their names, listed in ``_LAZY``, are
resolved on first use (PEP 562): ``import zonalpoly`` alone does not load
numpy.
"""

from importlib import import_module

from . import moments, partitions, symfunc, zonal
from .moments import *
from .partitions import *
from .symfunc import *
from .zonal import *

__version__ = "0.1.0"

#: Exported names that live in a numpy module, by the module that holds them.
_LAZY = {
    "sample_orthogonal_batch": "haar",
    "MomentReport": "montecarlo",
    "mc_exponential_trace": "montecarlo",
    "mc_linear_trace_power": "montecarlo",
    "mc_splitting": "montecarlo",
    "mc_trace_power": "montecarlo",
}

__all__ = sorted({*_LAZY, *moments.__all__, *partitions.__all__, *symfunc.__all__, *zonal.__all__})


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
