"""Stochastic IRF models, symmetric elliptic functions, and dynamic exclusion processes."""

from .observables import ObservableSpec, enum_E, exact_E, mc_E
from .params import IrfParams, pq_grid, preset
from .special import (
    Circle,
    ConvergenceError,
    FunctionMode,
    InvalidParameterError,
    contour_integral_factored,
    f_eval,
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
    "f_eval",
    "mc_E",
    "pq_grid",
    "preset",
    "theta",
    "__version__",
]
