"""Routes that no command or report of dynirf runs, kept as test references.

Each one reads its numeric input as it did in the package, with
``special._as_int`` and ``_as_real``, so ``test_inputs`` still feeds its
rows, and the tests that check against it keep their assertions.  The
regime II and III profiles come back to the package with reports of their
own.
"""

import math
from dataclasses import dataclass

from dynirf.asymptotics import H_profile, RegimeIVLaw
from dynirf.oracle import FinitaryVector, _apply
from dynirf.params import IrfParams, to_six_vertex
from dynirf.samplers import _check_rows
from dynirf.special import InvalidParameterError, _as_int, _as_real
from dynirf.symfunc import _strip
from dynirf.weights import plaquette_weights


def parts_from_occupations(occ) -> tuple:
    """The parts of a signature, largest first, from its occupation tuple."""
    parts = []
    for col in range(len(occ) - 1, -1, -1):
        parts.extend([col] * occ[col])
    return tuple(parts)


def apply_operator(op: str, lam: complex, w: complex, v: FinitaryVector, params, col_offset: int = 0) -> FinitaryVector:
    """Apply one of a/b/c/d (with its own lambda, w) to a finitary vector:
    ``oracle._apply`` with row w's ``plaquette_weights`` callback."""
    return _apply(op, lam, plaquette_weights(params, w), v, params, col_offset)


def enumerate_distribution(params: IrfParams, N: int, X: int):
    """Exact law of the crossing signature at height N + 1/2, truncated at
    parts <= X; complex weights are fine.  Returns (dist, escaped_mass).

    The law is one stochastic ``symfunc._strip`` of the empty signature:
    row y (bottom first) carries (lambda0 - 2*eta*y + 2*eta*Lambda_0, w_y).
    An N that fails ``_check_rows``, an X that is not an integer >= 0 or X
    past the pack's columns raises InvalidParameterError.
    """
    N, X = _check_rows(params, N), _as_int(X, "the part cap X", 0)
    ws = [params.w(y) for y in range(N, 0, -1)]
    dist = _strip((), params.lambda0 - 2 * params.eta * (N - params.lam(0)), ws, params, "stoch", cap=X)
    return dist, 1.0 - sum(dist.values())


def obs_O_six_vertex(hvalue: int, x: int, N: int, params: IrfParams) -> complex:
    """The height observable at lam = params.lambda0, written in six-vertex
    variables -1/alpha q^h + (s..)^2 q^{N-h}; h, x and N are integers."""
    hvalue = _as_int(hvalue, "the height h")
    x = _as_int(x, "site x")
    N = _as_int(N, "the row index N")
    sv = to_six_vertex(params)
    s_prod = 1.0 + 0.0j
    for j in range(x - 1):
        s_prod *= sv.s[j]
    return -(sv.alpha**-1) * sv.q**hvalue + s_prod**2 * sv.q ** (N - hvalue)


@dataclass(frozen=True)
class RegimeSpec:
    """Which long-time regime, at which rescaled space-time point: chi finite,
    tau > 0, and l (regime II) and lambda_bar (regime IV) finite and > 0,
    also where another regime ignores them."""

    regime: str  # "I" | "II" | "III" | "IV"
    chi: float
    tau: float
    l: float | None = None  # regime II: lim lambda_bar / sqrt(L)
    lambda_bar: float | None = None  # regime IV: fixed dynamic parameter

    def __post_init__(self):
        if self.regime not in ("I", "II", "III", "IV"):
            raise InvalidParameterError(f"unknown regime {self.regime!r}")
        _as_real(self.chi, "chi")
        _as_real(self.tau, "tau", 0, above=True)
        for name, value, regime in (("l", self.l, "II"), ("lambda_bar", self.lambda_bar, "IV")):
            if value is not None or self.regime == regime:
                _as_real(value, f"regime {regime}'s {name}", 0, above=True)


def limit_profile(spec: RegimeSpec):
    """Deterministic limit for regimes I-III; the law object for IV."""
    chi, tau = spec.chi, spec.tau
    if spec.regime == "I":
        return H_profile(chi, tau)
    if spec.regime == "II":
        l = float(spec.l)
        return math.sqrt(l * H_profile(chi, tau) + ((chi + l) / 2.0) ** 2) - (chi + l) / 2.0
    if spec.regime == "III":
        return math.sqrt(math.sqrt(tau / math.pi) + (chi / 2.0) ** 2) - chi / 2.0
    return RegimeIVLaw(chi=chi, tau=tau, lambda_bar=float(spec.lambda_bar))


def height_from_O(o: float, x: float, lambda_bar: float) -> float:
    """Positive root of O = h (h + x + lambda_bar); exact for h >= 0.  x must
    be finite, lambda_bar finite and > 0, and o finite and at least
    -((x + lambda_bar)/2)^2, where the root is real."""
    _as_real(x, "x")
    _as_real(lambda_bar, "lambda_bar", 0, above=True)
    half = (x + lambda_bar) / 2.0
    _as_real(o, "O", -half * half)
    return math.sqrt(o + half * half) - half
