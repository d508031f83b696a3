"""Reference values computed apart from dynirf, with mpmath and closed forms.

Nothing here imports dynirf: every value is an independent route to a
number the program computes.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp


def jtheta1(z: complex, tau: complex) -> complex:
    """Odd Jacobi theta: theta_1(pi z | q = exp(i pi tau)) in 30-digit arithmetic."""
    with mp.workdps(30):
        return complex(mpmath.jtheta(1, mp.pi * mpmath.mpc(z), mp.exp(1j * mp.pi * mpmath.mpc(tau))))


def ssep_mean_height_miller(x: int, t: float) -> float:
    """E h(x, t) of the usual SSEP from the step state, for any t.

    By duality E h(x, t) = sum_{j>=0} (j+1) e^{-2t} I_{x+1+j}(2t).  The
    scaled Bessel values come from Miller's backward recurrence, normalized
    by e^{X} = I_0(X) + 2 sum_{n>=1} I_n(X), in 40-digit arithmetic.
    """
    with mp.workdps(40):
        X = mp.mpf(2 * t)
        top = int(24 * math.sqrt(max(2 * t, 1.0))) + 60 + abs(x)
        vals = [mp.mpf(0)] * (top + 2)
        vals[top] = mp.mpf(1)
        for n in range(top, 0, -1):
            vals[n - 1] = vals[n + 1] + (2 * n / X) * vals[n]
        norm = vals[0] + 2 * mp.fsum(vals[1 : top + 1])
        total = mp.fsum((j + 1) * vals[abs(x + 1 + j)] for j in range(top - x - 1))
        return float(total / norm)


def ssep_mean_height_besseli(x: int, t: float) -> float:
    """The same duality sum with mpmath.besseli term by term (t up to ~500)."""
    with mp.workdps(25):
        scale = mp.exp(-2 * mp.mpf(t))
        total = mp.mpf(0)
        j = 0
        while True:
            term = (j + 1) * mpmath.besseli(x + 1 + j, 2 * mp.mpf(t)) * scale
            total += term
            if j > 4 and term < mp.mpf(10) ** -22 * total:
                return float(total)
            j += 1


def hydro_profile(chi: float, tau: float) -> float:
    """H(chi, tau) = sqrt(tau/pi) exp(-chi^2/(4 tau)) - (chi/2) erfc(chi/(2 sqrt tau))."""
    return math.sqrt(tau / math.pi) * math.exp(-chi * chi / (4 * tau)) - (chi / 2) * math.erfc(
        chi / (2 * math.sqrt(tau))
    )


def regime_iv_moment(n: int, L: float, tau: float, lambda_bar: float) -> float:
    """L^{n/2} (lambda_bar)_n (tau/pi)^{n/2}: the regime-IV moment of O."""
    rising = math.prod(lambda_bar + j for j in range(n))
    return L ** (n / 2) * rising * (tau / math.pi) ** (n / 2)


def asep_one_point(x: int, t: float, q: float) -> complex:
    """One-point dynamic-ASEP average as a loop integral around y = 1.

    (2 pi i)^{-1} of ((1-y)/(1-qy))^x exp((1-q)^2 y t / ((1-y)(1-qy))) / y
    over |y - 1| = 0.1, integrated by mpmath's adaptive quadrature in angle.
    """
    with mp.workdps(25):
        r = mp.mpf("0.1")

        def integrand(phi):
            e = mp.expj(phi)
            y = 1 + r * e
            val = ((1 - y) / (1 - q * y)) ** x * mp.exp((1 - q) ** 2 * y * t / ((1 - y) * (1 - q * y))) / y
            return val * r * e / (2 * mp.pi)

        return complex(mpmath.quad(integrand, mpmath.linspace(0, 2 * mp.pi, 9)))
