"""Exact zonal polynomials, orthogonal-group moments, and Haar sampling.

The exact names import with the package.  The Haar sampler and the Monte
Carlo estimators need numpy, so their names are resolved on first use
(PEP 562): ``import zonalpoly`` alone does not load numpy.
"""

from importlib import import_module

from .moments import (
    DiagonalSpec,
    SeriesResult,
    bilinear_coefficient,
    exact_trace_power_integral,
    hyper0f0,
)
from .partitions import (
    Partition,
    conjugate,
    partitions_of,
    rho,
    sym_group_degree,
)
from .symfunc import MONOMIAL, POWERSUM, SymPoly, m_to_p, p_to_m
from .zonal import (
    DataIntegrityError,
    character_degree,
    check_trace_identity,
    double_factorial,
    zonal_at_identity,
    zonal_in_powersums,
    zonal_row,
)

__all__ = [
    "DataIntegrityError",
    "DiagonalSpec",
    "MONOMIAL",
    "MomentReport",
    "POWERSUM",
    "Partition",
    "SeriesResult",
    "SymPoly",
    "bilinear_coefficient",
    "character_degree",
    "check_trace_identity",
    "conjugate",
    "double_factorial",
    "exact_trace_power_integral",
    "hyper0f0",
    "m_to_p",
    "mc_exponential_trace",
    "mc_linear_trace_power",
    "mc_splitting",
    "mc_trace_power",
    "p_to_m",
    "partitions_of",
    "rho",
    "sample_orthogonal_batch",
    "sym_group_degree",
    "zonal_at_identity",
    "zonal_in_powersums",
    "zonal_row",
]

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


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
