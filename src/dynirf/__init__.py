"""Stochastic IRF models, symmetric elliptic functions, and dynamic exclusion processes.

numpy is the only run-time dependency: the scaled Bessel values and the
incomplete gamma the exclusion processes need are kernels of
:mod:`dynirf.special`.  The observable exports (``ObservableSpec``,
``enum_E``, ``exact_E``, ``mc_E``) are lazy: :mod:`dynirf.observables`
loads on first access, so ``import dynirf`` and ``dynirf verify`` skip it.
"""

from .params import IrfParams, pq_grid, preset
from .special import (
    Circle,
    ConvergenceError,
    FunctionMode,
    InvalidParameterError,
    contour_integral_factored,
    theta,
)
from .symfunc import B_mu, D_nu, Signature

__version__ = "0.1.0"

__all__ = [
    "B_mu",
    "Circle",
    "ConvergenceError",
    "D_nu",
    "FunctionMode",
    "InvalidParameterError",
    "IrfParams",
    "ObservableSpec",
    "Signature",
    "contour_integral_factored",
    "enum_E",
    "exact_E",
    "mc_E",
    "pq_grid",
    "preset",
    "theta",
    "__version__",
]

_LAZY_OBSERVABLES = ("ObservableSpec", "enum_E", "exact_E", "mc_E")


def __getattr__(name):
    if name in _LAZY_OBSERVABLES:
        from . import observables

        return getattr(observables, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
