"""Hydrodynamic profile and the four long-time regimes of the dynamic SSEP.

The usual-SSEP height from the step state concentrates on
H(chi, tau) = sqrt(tau/pi) exp(-chi^2/(4 tau)) - (chi/2) erfc(chi/(2 sqrt(tau)))
under diffusive scaling.  The dynamic chain with parameter lambda_bar slows
down as the height grows; depending on how lambda_bar scales with the
large parameter L one sees the usual profile (I), a deformed deterministic
profile (II), a square-root profile (III), or, for fixed lambda_bar, a
random limit driven by a gamma variable (IV).  The moment machinery behind
regime IV runs through the observable
O(x, t) = h(x,t) (h(x,t) + x + lambda_bar).  This module checks the heat
equation of H (``heat_check``), regime I (``hydro_check``) and regime IV
(``regime_moment_check``, the soft ``regime_iv_ks_check`` and the law
``RegimeIVLaw``); the profiles of regimes II and III have no report yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observables import rising, ssep_falling_moment, ssep_mean_height
from .samplers import exclusion_farm
from .special import CheckReport, _as_int, _as_real, gammainc

__all__ = [
    "RegimeIVLaw",
    "H_profile",
    "regime_moment_check",
    "heat_equation_residual",
    "heat_check",
    "hydro_check",
    "regime_iv_ks_check",
]


def H_profile(chi: float, tau: float) -> float:
    """The diffusive limit shape of the usual SSEP height, chi finite and tau > 0."""
    _as_real(chi, "chi")
    _as_real(tau, "tau", 0, above=True)
    return math.sqrt(tau / math.pi) * math.exp(-chi * chi / (4 * tau)) - (chi / 2.0) * math.erfc(
        chi / (2.0 * math.sqrt(tau))
    )


@dataclass(frozen=True)
class RegimeIVLaw:
    """Distributional limit of regime IV.

    L^{-1/4} h converges to sqrt(Y + (chi/2)^2) - chi/2 with Y gamma
    distributed with shape lambda_bar and scale sqrt(tau/pi); equivalently
    4Y + chi^2 for the s-profile, 4Y being gamma with scale 4 sqrt(tau/pi).
    chi must be finite, tau and lambda_bar finite and > 0.
    """

    chi: float
    tau: float
    lambda_bar: float

    def __post_init__(self):
        _as_real(self.chi, "chi")
        _as_real(self.tau, "tau", 0, above=True)
        _as_real(self.lambda_bar, "regime IV's lambda_bar", 0, above=True)

    @property
    def gamma_shape(self) -> float:
        return self.lambda_bar

    @property
    def gamma_scale(self) -> float:
        return math.sqrt(self.tau / math.pi)

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        arg = z * z + z * self.chi
        # off the support (NaN included) P = 0; an infinite arg is clipped to
        # the largest float, where P = 1
        y = np.minimum(np.where(arg > 0, arg, 0.0) / self.gamma_scale, np.finfo(float).max)
        out = gammainc(self.gamma_shape, y)
        return out if out.shape else float(out)

    def mean(self) -> float:
        """E[sqrt(Y + (chi/2)^2) - chi/2] = max(0, -chi) + E[Y / (sqrt(Y + (chi/2)^2) + |chi|/2)].

        The second term by the exp-sinh rule in t, step 1/32 on [-4.5, 4], at
        Y = scale * u, u = shape * exp(pi/2 sinh(t) / s), s = sqrt(max(1, shape)):
        the density's peak is about one unit of t wide at every shape, and
        the integrand vanishes at u = 0 like u^(shape + 1/2) at least.  Within
        1e-13 relative of an mpmath quadrature for shapes 0.001 to 1000.
        """
        a, half, h = self.gamma_shape, abs(self.chi) / 2, 1.0 / 32
        s = math.sqrt(max(1.0, a))
        t = np.arange(-4.5, 4.0 + h / 2, h)
        x = np.pi / 2 * np.sinh(t) / s
        u = a * np.exp(x)
        # the gamma density u^(a-1) e^-u / Gamma(a) times du/dt, in log form
        dens = np.exp(a * (math.log(a) + x) - u - math.lgamma(a)) * np.cosh(t) * (np.pi / 2 / s)
        y = self.gamma_scale * u
        return max(0.0, -self.chi) + h * float(np.sum(y / (np.sqrt(y + half * half) + half) * dens))


def regime_moment_check(n: int, L: float, tau: float, lambda_bar: float) -> CheckReport:
    """E[(O(0, L tau))^n] against L^{n/2} (lambda_bar)_n (tau/pi)^{n/2}.

    Exact moments come from the bridge between dynamic-SSEP observable
    products and usual-SSEP falling factorial moments.  An n that is not an
    integer in 1..3, or an L, tau or lambda_bar that is not finite and > 0,
    raises InvalidParameterError.
    """
    n = _as_int(n, "the moment order n", 1, 3)
    for name, value in (("L", L), ("tau", tau), ("regime IV's lambda_bar", lambda_bar)):
        _as_real(value, name, 0, above=True)
    t = L * tau
    # E[prod_{k<m}(O - k*lambda_bar - k^2)] = (lambda_bar)_m F_m resolves
    # E[O^m] recursively through elementary symmetric functions of the a_k.
    moments = [1.0]  # E[O^0], E[O^1], ...
    for m in range(1, n + 1):
        # prod (O - a_k) = sum_j (-1)^{m-j} e_{m-j}(a) O^j, coefficients from O^0 up
        coeffs = np.poly([k * lambda_bar + k * k for k in range(m)])[::-1]
        val = rising(lambda_bar, m) * ssep_falling_moment(0, t, m)
        for j in range(m):
            val -= coeffs[j] * moments[j]
        moments.append(val / coeffs[m])
    lhs = moments[n]
    rhs = L ** (n / 2.0) * rising(lambda_bar, n) * (tau / math.pi) ** (n / 2.0)
    return CheckReport(
        name=f"regime-iv-moment-n{n}",
        parameters={"L": L, "tau": tau, "lambda_bar": lambda_bar},
        lhs=lhs,
        rhs=rhs,
        tolerance={1: 0.05, 2: 0.08, 3: 0.15}[n],
    )


def heat_equation_residual(chi: float, tau: float) -> float:
    """Central-difference residual of dH/dtau = d^2H/dchi^2, step h = 1e-4, for
    a finite chi and a tau > h."""
    _as_real(chi, "chi")
    _as_real(tau, "tau", 0, above=True)
    h = 1e-4
    dt = (H_profile(chi, tau + h) - H_profile(chi, tau - h)) / (2 * h)
    dxx = (H_profile(chi + h, tau) - 2 * H_profile(chi, tau) + H_profile(chi - h, tau)) / (h * h)
    return abs(dt - dxx)


def heat_check() -> CheckReport:
    """The worst ``heat_equation_residual`` of H over chi in {-1.5, -0.3, 0, 0.8}
    and tau in {0.5, 1, 2}, within 1e-5."""
    worst = max(heat_equation_residual(c, t) for c in (-1.5, -0.3, 0.0, 0.8) for t in (0.5, 1.0, 2.0))
    return CheckReport("heat-equation-residual", {"h": 1e-4}, worst, 0.0, 1e-5)


def hydro_check(L: float = 400.0, tau: float = 1.0) -> CheckReport:
    """L^{-1/2} E h(L^{1/2} chi, L tau) within 2% of H(chi, tau) at chi = -1, 0, 1;
    an L or tau not finite and > 0 raises InvalidParameterError."""
    _as_real(L, "L", 0, above=True)
    _as_real(tau, "tau", 0, above=True)
    chis = (-1.0, 0.0, 1.0)
    pairs = [(ssep_mean_height(int(round(chi * math.sqrt(L))), L * tau) / math.sqrt(L), H_profile(chi, tau)) for chi in chis]
    got, want = max(pairs, key=lambda pair: abs(pair[0] - pair[1]) / abs(pair[1]))  # the worst relative gap
    return CheckReport(
        name="ssep-hydrodynamics",
        parameters={"L": L, "tau": tau, "chis": list(chis)},
        lhs=got,
        rhs=want,
        tolerance=0.02,
    )


def regime_iv_ks_check(L: float = 200.0, tau: float = 1.0, lambda_bar: float = 1.0, n_traj: int = 200, seed: int = 0) -> CheckReport:
    """Soft check: empirical law of L^{-1/4} h(0, L tau) against the regime-IV
    limit at chi = 0.

    Convergence is slow: the exact law of L^{-1/4} h (by the moment
    bridge) lies a KS distance of 0.266 from the limit at L = 200, 0.079 at
    L = 4*10^4 and 0.056 at L = 1.6*10^5, falling about like L^{-1/4}, so
    even an exact sample misses 0.05 at every scale this check can run.  It
    runs at a configurable scale and reports the distance without gating.
    The report's tolerance is the KS threshold 0.05, so downstream tooling
    can still see pass/fail, but the acceptance suite treats it as
    informational.  An ``n_traj`` that is not an integer >= 1, a seed that
    is not an integer, or an L, tau or lambda_bar not finite and > 0 raises
    InvalidParameterError.
    """
    n_traj, seed = _as_int(n_traj, "n_traj", 1), _as_int(seed, "the seed")
    _as_real(L, "L", 0, above=True)
    law = RegimeIVLaw(chi=0.0, tau=tau, lambda_bar=lambda_bar)
    svals = exclusion_farm("ssep", (lambda_bar,), L * tau, n_traj, seed, [0])
    h = svals[:, 0] / 2.0
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
