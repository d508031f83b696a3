"""Hydrodynamic profile and the four long-time regimes of the dynamic SSEP.

The usual-SSEP height from the step state concentrates on
H(chi, tau) = sqrt(tau/pi) exp(-chi^2/(4 tau)) - (chi/2) erfc(chi/(2 sqrt(tau)))
under diffusive scaling.  The dynamic chain with parameter lambda_bar slows
down as the height grows; depending on how lambda_bar scales with the
large parameter L one sees the usual profile (I), a deformed deterministic
profile (II), a square-root profile (III), or, for fixed lambda_bar, a
random limit driven by a gamma variable (IV).  The moment machinery behind
regime IV runs through the observable
O(x, t) = h(x,t) (h(x,t) + x + lambda_bar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .identities import CheckReport
from .observables import rising, ssep_falling_moment, ssep_mean_height
from .samplers import exclusion_farm
from .special import InvalidParameterError, gammainc

__all__ = [
    "RegimeSpec",
    "RegimeIVLaw",
    "H_profile",
    "limit_profile",
    "gamma_moment",
    "regime_moment_check",
    "heat_equation_residual",
    "hydro_check",
    "height_from_O",
    "regime_iv_ks_check",
]


@dataclass(frozen=True)
class RegimeSpec:
    """Which long-time regime, at which rescaled space-time point."""

    regime: str  # "I" | "II" | "III" | "IV"
    chi: float
    tau: float
    l: float | None = None  # regime II: lim lambda_bar / sqrt(L)
    lambda_bar: float | None = None  # regime IV: fixed dynamic parameter

    def __post_init__(self):
        if self.regime not in ("I", "II", "III", "IV"):
            raise InvalidParameterError(f"unknown regime {self.regime!r}")
        if self.tau <= 0:
            raise InvalidParameterError("tau must be positive")
        if self.regime == "II" and not (self.l and self.l > 0):
            raise InvalidParameterError("regime II needs l in (0, inf)")
        if self.regime == "IV" and not (self.lambda_bar and self.lambda_bar > 0):
            raise InvalidParameterError("regime IV needs lambda_bar > 0")


def H_profile(chi: float, tau: float) -> float:
    """The diffusive limit shape of the usual SSEP height."""
    if tau <= 0:
        raise InvalidParameterError("tau must be positive")
    return math.sqrt(tau / math.pi) * math.exp(-chi * chi / (4 * tau)) - (chi / 2.0) * math.erfc(
        chi / (2.0 * math.sqrt(tau))
    )


def _check_regime_iv(tau: float, lambda_bar: float) -> None:
    """Regime IV needs tau > 0 and lambda_bar > 0, as ``RegimeSpec`` does."""
    if not tau > 0:
        raise InvalidParameterError("tau must be positive")
    if not lambda_bar > 0:
        raise InvalidParameterError("regime IV needs lambda_bar > 0")


@dataclass(frozen=True)
class RegimeIVLaw:
    """Distributional limit of regime IV.

    L^{-1/4} h converges to sqrt(Y + (chi/2)^2) - chi/2 with Y gamma
    distributed with shape lambda_bar and scale sqrt(tau/pi); equivalently
    4Y + chi^2 for the s-profile, 4Y being gamma with scale 4 sqrt(tau/pi).
    """

    chi: float
    tau: float
    lambda_bar: float

    def __post_init__(self):
        _check_regime_iv(self.tau, self.lambda_bar)

    @property
    def gamma_shape(self) -> float:
        return self.lambda_bar

    @property
    def gamma_scale(self) -> float:
        return math.sqrt(self.tau / math.pi)

    def transform(self, y):
        return np.sqrt(y + (self.chi / 2.0) ** 2) - self.chi / 2.0

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        arg = z * z + z * self.chi
        # off the support (NaN included) P = 0; an infinite arg is clipped to
        # the largest float, where P = 1
        y = np.minimum(np.where(arg > 0, arg, 0.0) / self.gamma_scale, np.finfo(float).max)
        out = gammainc(self.gamma_shape, y)
        return out if out.shape else float(out)

    def moment(self, m: int) -> float:
        return gamma_moment(self.gamma_shape, self.gamma_scale, m)


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


def gamma_moment(a: float, b: float, m: int) -> float:
    """m-th moment b^m (a)_m of the gamma law with shape a and scale b."""
    if a <= 0 or b <= 0:
        raise InvalidParameterError("gamma moments need a, b > 0")
    return b**m * rising(a, m)


def height_from_O(o: float, x: float, lambda_bar: float) -> float:
    """Positive root of O = h (h + x + lambda_bar); exact for h >= 0."""
    half = (x + lambda_bar) / 2.0
    return math.sqrt(o + half * half) - half


def regime_moment_check(n: int, L: float, tau: float, lambda_bar: float) -> CheckReport:
    """E[(O(0, L tau))^n] against L^{n/2} (lambda_bar)_n (tau/pi)^{n/2}.

    Exact moments come from the bridge between dynamic-SSEP observable
    products and usual-SSEP falling factorial moments.  tau <= 0 or
    lambda_bar <= 0 raise InvalidParameterError.
    """
    if not 1 <= n <= 3:
        raise InvalidParameterError("moment check implemented for 1 <= n <= 3")
    _check_regime_iv(tau, lambda_bar)
    t = L * tau
    falling = [ssep_falling_moment(0, t, m) for m in range(1, n + 1)]
    # E[prod_{k<m}(O - k*lambda_bar - k^2)] = (lambda_bar)_m F_m resolves
    # E[O^m] recursively through elementary symmetric functions of the a_k.
    e_moments = []
    for m in range(1, n + 1):
        a = [k * lambda_bar + k * k for k in range(m)]
        target = rising(lambda_bar, m) * falling[m - 1]
        # expand prod (O - a_k) = sum_j (-1)^{m-j} e_{m-j}(a) O^j
        coeffs = np.zeros(m + 1)
        coeffs[0] = 1.0
        for ak in a:
            new = np.zeros(m + 1)
            new[1:] += coeffs[:-1]
            new -= ak * coeffs
            coeffs = new
        val = target
        for j in range(m):
            val -= coeffs[j] * (e_moments[j - 1] if j >= 1 else 1.0)
        e_moments.append(val / coeffs[m])
    lhs = e_moments[n - 1]
    rhs = L ** (n / 2.0) * rising(lambda_bar, n) * (tau / math.pi) ** (n / 2.0)
    return CheckReport(
        name=f"regime-iv-moment-n{n}",
        parameters={"L": L, "tau": tau, "lambda_bar": lambda_bar},
        lhs=lhs,
        rhs=rhs,
        tolerance={1: 0.05, 2: 0.08, 3: 0.15}[n],
    )


def heat_equation_residual(chi: float, tau: float) -> float:
    """Central-difference residual of dH/dtau = d^2H/dchi^2, step h = 1e-4."""
    h = 1e-4
    dt = (H_profile(chi, tau + h) - H_profile(chi, tau - h)) / (2 * h)
    dxx = (H_profile(chi + h, tau) - 2 * H_profile(chi, tau) + H_profile(chi - h, tau)) / (h * h)
    return abs(dt - dxx)


def hydro_check(L: float = 400.0, tau: float = 1.0, chis=(-1.0, 0.0, 1.0)) -> CheckReport:
    """L^{-1/2} E h(L^{1/2} chi, L tau) within 2% of H(chi, tau)."""
    worst = 0.0
    worst_pair = (0.0, 0.0)
    for chi in chis:
        x = int(round(chi * math.sqrt(L)))
        got = ssep_mean_height(x, L * tau) / math.sqrt(L)
        want = H_profile(chi, tau)
        rel = abs(got - want) / abs(want)
        if rel > worst:
            worst = rel
            worst_pair = (got, want)
    return CheckReport(
        name="ssep-hydrodynamics",
        parameters={"L": L, "tau": tau, "chis": list(chis)},
        lhs=worst_pair[0],
        rhs=worst_pair[1],
        tolerance=0.02,
    )


def regime_iv_ks_check(
    L: float = 200.0, tau: float = 1.0, lambda_bar: float = 1.0, chi: float = 0.0, n_traj: int = 200, seed: int = 0
) -> CheckReport:
    """Soft check: empirical law of L^{-1/4} h against the regime-IV limit.

    Convergence is slow (the criterion quotes L = 4*10^4 for KS 0.05);
    this runs at a configurable scale and reports the distance without
    gating.  The report's tolerance is the criterion's KS threshold 0.05,
    so downstream tooling can still see pass/fail, but the acceptance suite
    treats it as informational.  An ``n_traj`` below 1 raises
    InvalidParameterError.
    """
    if n_traj < 1:
        raise InvalidParameterError(f"the KS check needs n_traj >= 1, got {n_traj}")
    law = RegimeIVLaw(chi=chi, tau=tau, lambda_bar=lambda_bar)
    x = int(round(chi * L**0.25))
    svals = exclusion_farm("ssep", (lambda_bar,), L * tau, n_traj, seed, [x])
    h = (svals[:, 0] - x) / 2.0
    scaled = np.sort(h / L**0.25)
    emp = np.arange(1, n_traj + 1) / n_traj
    cdf_vals = law.cdf(scaled)
    ks = float(np.max(np.abs(emp - cdf_vals)))
    ks = max(ks, float(np.max(np.abs(emp - 1.0 / n_traj - cdf_vals))))
    return CheckReport(
        name="regime-iv-ks-soft",
        parameters={"L": L, "tau": tau, "lambda_bar": lambda_bar, "n_traj": n_traj, "soft": True},
        lhs=ks,
        rhs=0.0,
        tolerance=0.05,
    )
