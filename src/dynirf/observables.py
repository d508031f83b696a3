"""Observables and their averages: exact contour integrals, Monte Carlo, enumeration.

The one observable family behind everything here is

    O(x, N) = exp(2*pi*i*(lam - 2*eta*h(x,N))) + exp(4*pi*i*eta*(h(x,N) - N + Lambda_[1,x))),

a two-term function of the height whose shifted products have
lambda-independent averages.  Those averages are computed three ways:

* exact n-fold contour integrals (quadrature over circles, plus residue /
  series summation as an independent route),
* exact enumeration of the joint height law (small windows, complex
  weights allowed),
* Monte Carlo over sampled trajectories (positive-weight presets only).

The dynamic ASEP / rational / dynamic SSEP degenerations carry their own
integral formulas and observable parametrizations.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .identities import CheckReport
from .params import IrfParams, pq_grid, to_six_vertex
from .special import Circle, InvalidParameterError, contour_integral, contour_integral_factored
from .samplers import (
    batch_heights,
    enumerate_heights,
    enumerate_heights_hs6v,
    exclusion_farm,
    sample_irf_batch,
)

__all__ = [
    "ObservableSpec",
    "obs_O",
    "obs_O_six_vertex",
    "rising",
    "exact_E",
    "mc_E",
    "enum_E",
    "hs6v_q_moment",
    "lambda_independence_report",
    "ssep_falling_moment",
    "MODELS",
]

MODELS = ("irf", "asep", "rational", "ssep")


@dataclass(frozen=True)
class ObservableSpec:
    """Sites x_1 >= ... >= x_n and the row index N (or time t)."""

    xs: tuple
    N_or_t: float

    def __post_init__(self):
        xs = tuple(int(x) for x in self.xs)
        if not xs:
            raise InvalidParameterError("need at least one observable site")
        if any(xs[i] < xs[i + 1] for i in range(len(xs) - 1)):
            raise InvalidParameterError("sites must be nonincreasing")
        object.__setattr__(self, "xs", xs)

    @property
    def n(self) -> int:
        return len(self.xs)


def rising(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1)."""
    out = 1.0
    for j in range(n):
        out = out * (a + j)
    return out


def obs_O(hvalue: int, x: int, N: int, params: IrfParams, lam: complex | None = None) -> complex:
    """The height observable in IRF variables."""
    lam = params.lambda0 if lam is None else lam
    eta = params.eta
    lsum = params.lam_sum(1, x)
    return cmath.exp(2j * math.pi * (lam - 2 * eta * hvalue)) + cmath.exp(
        4j * math.pi * eta * (hvalue - N + lsum)
    )


def obs_O_six_vertex(hvalue: int, x: int, N: int, params: IrfParams, lam: complex | None = None) -> complex:
    """The same observable written in six-vertex variables -1/alpha q^h + (s..)^2 q^{N-h}."""
    lam = params.lambda0 if lam is None else lam
    sv = to_six_vertex(params)
    alpha = -cmath.exp(-2j * math.pi * lam)
    s_prod = 1.0 + 0.0j
    for j in range(x - 1):
        s_prod *= sv.s[j]
    return -(alpha**-1) * sv.q**hvalue + s_prod**2 * sv.q ** (N - hvalue)


def _q_pow(params: IrfParams, m) -> complex:
    # q^m = exp(-4*pi*i*eta*m), valid for non-integer m on the model branch
    return cmath.exp(-4j * math.pi * params.eta * m)


def _irf_product(hs, spec: ObservableSpec, params: IrfParams, lam: complex) -> np.ndarray:
    """Normalized observable product for each row of an (n_samples, n) height array."""
    hs = np.asarray(hs, dtype=float)
    N = int(spec.N_or_t)
    a = cmath.exp(2j * math.pi * lam)
    out = np.ones(hs.shape[0], dtype=complex)
    norm = 1.0 + 0.0j
    for k in range(spec.n):
        x = spec.xs[k]
        lsum = params.lam_sum(1, x)
        h = hs[:, k]
        o = np.exp(2j * np.pi * (lam - 2 * params.eta * h)) + np.exp(4j * np.pi * params.eta * (h - N + lsum))
        out *= _q_pow(params, N - lsum) + a * _q_pow(params, 2 * k) - _q_pow(params, k) * o
        norm *= 1.0 - a * _q_pow(params, k)
    return out / norm


def _asep_product(svals, spec: ObservableSpec, q: float, alpha: float) -> np.ndarray:
    """Vectorized dynamic-ASEP observable product over trajectories."""
    out = np.ones(svals.shape[0], dtype=complex)
    norm = 1.0
    for k in range(spec.n):
        x = spec.xs[k]
        s = svals[:, k].astype(float)
        o = -(alpha**-1) * q ** ((s - x) / 2) + q ** ((-s - x) / 2)
        out *= q ** (-x) - alpha**-1 * q ** (2 * k) - q**k * o
        norm *= 1.0 + alpha**-1 * q**k
    return out / norm


def _ssep_product(svals, spec: ObservableSpec, lam_bar: float) -> np.ndarray:
    out = np.ones(svals.shape[0], dtype=complex)
    for k in range(spec.n):
        x = spec.xs[k]
        s = svals[:, k].astype(float)
        o = (s - x) / 2 * ((s + x) / 2 + lam_bar)
        out *= k * k + k * (lam_bar + x) - o
    return out / rising(lam_bar, spec.n)


def _rational_product(hs, spec: ObservableSpec, lam: float, N: int) -> np.ndarray:
    """Rational-mode observable product for each row of an (n_samples, n) height array."""
    hs = np.asarray(hs, dtype=float)
    out = np.ones(hs.shape[0], dtype=complex)
    for k in range(spec.n):
        x = spec.xs[k]
        h = hs[:, k]
        o = h * (h - lam - N + x - 1)
        out *= k * k - k * (lam + N - x + 1) - o
    return out / rising(-lam, spec.n)


# ---------------------------------------------------------------------------
# Exact contour-integral averages.
# ---------------------------------------------------------------------------


def _nested_circles(center: complex, base: float, n: int, growth: float = 0.35):
    return [Circle(center, base * (1.0 + growth * i)) for i in range(n)]


def _irf_contours(params: IrfParams, n: int):
    grid = pq_grid(params)
    ws = np.array(params.rows)
    center = complex(np.mean(ws))
    spread = float(np.max(np.abs(ws - center))) if len(ws) else 0.0
    two_eta = abs(2 * params.eta)
    base = max(1.6 * spread, 0.05 * two_eta)
    growth = 0.3
    circles = _nested_circles(center, base, n, growth)
    big = circles[-1].radius
    if n >= 2 and circles[-1].radius + circles[n - 2].radius >= 0.9 * two_eta:
        raise InvalidParameterError("w-cluster too wide for the 2*eta cross-pole gap")
    for q in grid.q:
        if abs(q - center) <= big * 1.05:
            raise InvalidParameterError("a q-point sits on the w-contours")
    if n >= 2:
        from .identities import _pair_guard

        _pair_guard(circles, 2 * params.eta, params)
    return circles


def exact_E(model: str, spec: ObservableSpec, params_or_rates, nodes: int = 48, tol: float = 1e-10, check_residue: bool = True):
    """Exact averages by n-fold loop integrals (+ an independent residue or
    series evaluation for n = 1, asserted to 1e-8).

    model "irf": params is an IrfParams (any spin), integral around the w's;
    "rational": rational-mode params, loops around the w's;
    "asep": params_or_rates = (q, alpha), loops around 1;
    "ssep": params_or_rates = (lam_bar,), loops around 0.
    """
    n = spec.n
    if model == "irf":
        return _exact_E_irf(spec, params_or_rates, nodes, tol, check_residue)
    if model == "rational":
        return _exact_E_rational(spec, params_or_rates, nodes, tol, check_residue)
    if model == "asep":
        q, alpha = params_or_rates if not isinstance(params_or_rates, (int, float)) else (params_or_rates, 0.0)
        return _exact_E_asep(spec, float(q), nodes, tol, check_residue)
    if model == "ssep":
        return _exact_E_ssep(spec, nodes, tol, check_residue)
    raise InvalidParameterError(f"unknown model {model!r}")


def _exact_E_irf(spec: ObservableSpec, params: IrfParams, nodes: int, tol: float, check_residue: bool) -> complex:
    n = spec.n
    N = int(spec.N_or_t)
    if N > params.n_rows:
        raise InvalidParameterError("not enough rows in the parameter pack")
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    ws = [params.w(k) for k in range(1, N + 1)]
    circles = _irf_contours(params, n)

    def unary(i):
        x = spec.xs[i]

        def fn(v):
            out = np.ones_like(v)
            for j in range(1, x):
                out = out * f(v - grid.p[j]) / f(v - grid.q[j])
            for w in ws:
                out = out * f(v - w - 2 * eta) / f(v - w)
            return out

        return fn

    binaries = {
        (i, j): (lambda a, b: f(a - b) / f(a - b + 2 * eta)) for i in range(n) for j in range(i + 1, n)
    }
    integral = contour_integral_factored([( [unary(i) for i in range(n)], binaries )], circles, nodes=nodes, tol=tol)
    pref = cmath.exp(
        -2j * math.pi * eta * (n * (n - 1) / 2 + n * N - sum(params.lam_sum(1, x) for x in spec.xs))
    )
    value = pref * (2j * math.pi) ** n * integral

    if check_residue:
        res, cond = _irf_residue_sum(spec, params)
        # the residue route loses ~cond * eps to cancellation when the w's
        # are nearly coincident; widen the assertion accordingly
        tol_res = max(1e-8, cond * 5e-14)
        if abs(value - res) > tol_res * max(1.0, abs(res)):
            raise ArithmeticError(f"quadrature {value} vs residue sum {res} disagree")
    return value


def _irf_residue_sum(spec: ObservableSpec, params: IrfParams) -> complex:
    """Iterated-residue evaluation at v_i = w_{t_i} over distinct tuples.

    Returns (value, conditioning); conditioning is the ratio of the sum of
    term magnitudes to the result and bounds the relative cancellation
    error (terms blow up like 1/spacing^{n(N-1)} for close row parameters).
    """
    n = spec.n
    N = int(spec.N_or_t)
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    ws = [params.w(k) for k in range(1, N + 1)]
    fp0 = params.fp0()

    def res_factor(i, t):
        w = ws[t]
        out = f(-2 * eta) / fp0
        for k, wk in enumerate(ws):
            if k != t:
                out *= f(w - wk - 2 * eta) / f(w - wk)
        for j in range(1, spec.xs[i]):
            out *= f(w - grid.p[j]) / f(w - grid.q[j])
        return out

    total = 0.0 + 0.0j
    mag = 0.0
    for tup in itertools.permutations(range(N), n):
        term = 1.0 + 0.0j
        for i in range(n):
            term *= res_factor(i, tup[i])
        for i in range(n):
            for j in range(i + 1, n):
                d = ws[tup[i]] - ws[tup[j]]
                term *= f(d) / f(d + 2 * eta)
        total += term
        mag += abs(term)
    pref = cmath.exp(
        -2j * math.pi * eta * (n * (n - 1) / 2 + n * N - sum(params.lam_sum(1, x) for x in spec.xs))
    )
    cond = mag / max(abs(total), 1e-300)
    return pref * (2j * math.pi) ** n * total, cond


def _exact_E_rational(spec: ObservableSpec, params: IrfParams, nodes: int, tol: float, check_residue: bool) -> complex:
    n = spec.n
    N = int(spec.N_or_t)
    zs = [params.z(j) for j in range(1, max(spec.xs) + 1)]
    ws = [params.w(k) for k in range(1, N + 1)]
    warr = np.array(ws)
    center = complex(np.mean(warr))
    spread = float(np.max(np.abs(warr - center))) if len(ws) else 0.0
    circles = _nested_circles(center, max(2.0 * spread, 0.05), n, growth=0.3)
    zmin = min(abs(z - center) for z in zs)
    if circles[-1].radius >= min(zmin, 0.45):
        raise InvalidParameterError("rational contours would swallow a z-pole")

    def unary(i):
        x = spec.xs[i]

        def fn(v):
            out = np.ones_like(v)
            for z in zs[: x - 1]:
                out = out * (v - z) / (v - z - 1)
            for w in ws:
                out = out * (v - w - 1) / (v - w)
            return out

        return fn

    binaries = {(i, j): (lambda a, b: (a - b) / (a - b + 1)) for i in range(n) for j in range(i + 1, n)}
    value = contour_integral_factored([([unary(i) for i in range(n)], binaries)], circles, nodes=nodes, tol=tol)

    if check_residue:
        total = 0.0 + 0.0j
        for tup in itertools.permutations(range(N), n):
            term = 1.0 + 0.0j
            for i in range(n):
                w = ws[tup[i]]
                term *= -1.0  # numerator (v - w - 1) at v = w
                for k, wk in enumerate(ws):
                    if k != tup[i]:
                        term *= (w - wk - 1) / (w - wk)
                for z in zs[: spec.xs[i] - 1]:
                    term *= (w - z) / (w - z - 1)
            for i in range(n):
                for j in range(i + 1, n):
                    d = ws[tup[i]] - ws[tup[j]]
                    term *= d / (d + 1)
            total += term
        if abs(value - total) > 1e-8 * max(1.0, abs(total)):
            raise ArithmeticError(f"quadrature {value} vs residue sum {total} disagree")
    return value


def _exact_E_asep(spec: ObservableSpec, q: float, nodes: int, tol: float, check_residue: bool) -> complex:
    n = spec.n
    t = float(spec.N_or_t)
    circles = _nested_circles(1.0, 0.1, n, growth=0.3)

    def unary(i):
        x = spec.xs[i]

        def fn(y):
            return ((1 - y) / (1 - q * y)) ** x * np.exp((1 - q) ** 2 * y * t / ((1 - y) * (1 - q * y))) / y

        return fn

    binaries = {(i, j): (lambda a, b: (a - b) / (a - q * b)) for i in range(n) for j in range(i + 1, n)}
    value = q ** (n * (n - 1) / 2) * contour_integral_factored(
        [([unary(i) for i in range(n)], binaries)], circles, nodes=nodes, tol=tol
    )
    if check_residue and n == 1:
        series = _asep_residue_series(spec.xs[0], t, q)
        if abs(value - series) > 1e-8 * max(1.0, abs(series)):
            raise ArithmeticError(f"ASEP quadrature {value} vs residue series {series} disagree")
    return value


def _asep_residue_series(x: int, t: float, q: float, terms: int = 120) -> float:
    """Residue at the essential singularity y = 1 by explicit expansion.

    exp factor expanded in powers of its argument; each power contributes a
    finite Laurent coefficient at y = 1.
    """
    c = (1 - q) ** 2 * t
    total = 0.0
    small_streak = 0
    for m in range(terms):
        # term_m = c^m/m! * (1+u)^m (-1)^m / (u^m (1-q-q u)^m), u = y - 1,
        # times ((-u)/(1-q-qu))^x / (1+u); residue = coeff of u^{m-1-x} in
        # (-1)^{m+x} (1+u)^{m-1} (1-q-qu)^{-m-x}
        deg = m - 1 - x
        if deg < 0:
            continue
        coeff = 0.0
        for i_ in range(0, deg + 1):
            j_ = deg - i_
            coeff += (
                scipy.special.binom(m - 1, i_)
                * scipy.special.binom(m + x + j_ - 1, j_)
                * (q / (1 - q)) ** j_
            )
        term = c**m / math.factorial(m) * (-1.0) ** (m + x) * (1 - q) ** (-m - x) * coeff
        total += term
        # the binomial sums grow geometrically, so gate on the actual term
        small_streak = small_streak + 1 if abs(term) < 1e-17 * max(1.0, abs(total)) else 0
        if small_streak >= 3:
            break
    return total


def _exact_E_ssep(spec: ObservableSpec, nodes: int, tol: float, check_residue: bool) -> complex:
    n = spec.n
    t = float(spec.N_or_t)
    # the cross pole a = b - 1 stays outside every pair of circles while
    # r_i + r_j < 1, which also keeps the singularity at 1 out.  n = 2 keeps
    # its wider second circle, whose smaller peak t = 12 needs; n >= 3 grows
    # slowly so that every pair fits.  exp(t/(v(v-1))) peaks at
    # exp(t/(r(1+r))) on the smallest circle, which fixes both the attainable
    # accuracy and the valid t-range of the direct route
    base = 0.42
    circles = _nested_circles(0.0, base, n, growth=0.25 if n <= 2 else 0.05)
    if n >= 2 and circles[-1].radius + circles[-2].radius > 0.95:
        raise InvalidParameterError("SSEP contours would reach the cross pole a = b - 1")
    mag = math.exp(t / (base * (1 + base)))
    if mag * 1e-16 > 1e-4:
        raise InvalidParameterError(
            "direct SSEP quadrature loses too much to cancellation here; "
            "use ssep_falling_moment (duality/saddle routes) for large t"
        )
    tol = max(tol, 5e-15 * mag)

    def unary(i):
        x = spec.xs[i]

        def fn(v):
            return (v / (v - 1.0)) ** x * np.exp(t / (v * (v - 1.0)))

        return fn

    binaries = {(i, j): (lambda a, b: (a - b) / (a - b + 1)) for i in range(n) for j in range(i + 1, n)}
    value = contour_integral_factored([([unary(i) for i in range(n)], binaries)], circles, nodes=nodes, tol=tol)
    if check_residue and n == 1:
        series = -ssep_mean_height(spec.xs[0], t)
        if abs(value - series) > 1e-8 * max(1.0, abs(series)):
            raise ArithmeticError(f"SSEP quadrature {value} vs Bessel series {series} disagree")
    return value


def ssep_mean_height(x: int, t: float) -> float:
    """E h(x, t) for the usual SSEP from the step state: a Bessel series.

    Substituting u = v/(v-1) in the one-fold integral turns the essential
    factor into the modified-Bessel generating function, leaving
    E h = sum_{j>=0} (j+1) e^{-2t} I_{x+1+j}(2t); evaluated with the
    exponentially scaled Bessel ive, stable at any t.
    """
    if t == 0:
        return float(max(0, -x))
    total = 0.0
    j = 0
    while True:
        term = (j + 1) * scipy.special.ive(x + 1 + j, 2 * t)
        total += term
        if j > 4 and abs(term) < 1e-16 * max(1.0, total):
            break
        if x + 1 + j > 2 * t + 60 * math.sqrt(max(t, 1.0)) + 120:
            break
        j += 1
    return float(total)


# the direct n = 3 integral at x = 0 converges for every t <= 7.6 on a 0.05
# grid and fails erratically from t = 7.65 (ConvergenceError at 7.65, 7.95,
# 8.05, 8.2, 8.25 and 8.5-9, converged at 8.1, 8.15, 8.3, 8.4)
_SSEP_F3_T_MAX = 7.5


def ssep_falling_moment(x: int, t: float, n: int, nodes: int = 64) -> float:
    """E[h (h-1) ... (h-n+1)] for the usual SSEP with step start.

    n = 1 uses the Bessel series (any t).  n = 2 and 3 use the n-fold
    contour integral; for n = 2 at large t the v-circles are replaced by their
    images under u = v/(v-1) with near-unit radii, where the integrand
    magnitude stays O(exp(t(1-r)^2/r)); the cross-factor pole crossed during
    that deformation contributes one explicit lower-dimensional correction
    term.  n = 3 is served for t <= 7.5 only, and n >= 4 not at all (its
    second quadrature level already exceeds the grid cap); both raise
    InvalidParameterError before any quadrature.  Sites x < 0 lose more to
    cancellation: at n = 3 the integral raises ConvergenceError from t = 7.5
    at x = -1, from t = 6 at x = -2..-4, and at every t at x = -12.
    """
    if n == 1:
        return ssep_mean_height(x, t)
    if n == 2:
        if t <= 12:
            val = exact_E("ssep", ObservableSpec((x, x), t), (1.0,), nodes=nodes, check_residue=False)
            return float(val.real)
        if t <= 500:
            return ssep_f2_duality(x, t)
        return _ssep_f2_large_t(x, t)
    if n >= 4 or t > _SSEP_F3_T_MAX:
        raise InvalidParameterError(f"falling moments beyond n = 2 are implemented for n = 3, t <= {_SSEP_F3_T_MAX} only")
    val = exact_E("ssep", ObservableSpec((x,) * n, t), (1.0,), nodes=nodes, check_residue=False)
    return float(((-1.0) ** n * val).real)


def _ssep_u_g(u, x: int, t: float):
    return u**x * np.exp(t * (u + 1.0 / u - 2.0)) / (u - 1.0) ** 2


def _ssep_f2_large_t(x: int, t: float, nodes: int = 256) -> float:
    """Second falling moment at large t via saddle-adapted u-circles.

    In u-coordinates F_2 = CI[ (u2-u1)/(u1 u2 - 2 u1 + 1) g(u1) g(u2) ]
    over small circles; pushing |u1| out to r1 = 1 - 1.6/sqrt(t) (where the
    integrand magnitude stays O(exp(t(1-r)^2/r))) crosses the cross-factor
    pole u1* = 1/(2 - u2) once, so

        F_2 = CI_{r1, r2} - CI_{r2'}[ u1*^x e^{t(u1* + 1/u1* - 2)} g(u2) ],

    the residue's (u1*-1)^-2 cancelling against the Res of the cross
    factor.  Valid once the pole lies fully inside the r1-circle
    (t >= ~50); checked against the duality-ODE oracle in the tests.
    """
    if t < 200:
        raise InvalidParameterError("saddle-adapted F2 route needs t >= 200 (use the duality oracle below)")
    rt = math.sqrt(t)
    r1 = 1.0 - 1.6 / rt
    r2 = 1.0 - 3.8 / rt
    c1, c2 = Circle(0.0, r1), Circle(0.0, r2)
    # cancellation noise floor from the peak integrand magnitude
    mag = math.exp(t * (r2 + 1.0 / r2 - 2.0))
    tol = max(1e-9, 1e-13 * mag)

    def cross(a, b):
        return (b - a) / (a * b - 2 * a + 1.0)

    main = contour_integral_factored(
        [(
            [lambda u: _ssep_u_g(u, x, t), lambda u: _ssep_u_g(u, x, t)],
            {(0, 1): cross},
        )],
        [c1, c2],
        nodes=nodes,
        tol=tol,
        node_cap=1 << 13,
    )

    def corr_int(u2):
        # fuse the two exponents: separately they overflow while the
        # product stays bounded on the contour
        u1 = 1.0 / (2.0 - u2)
        expo = t * (u1 + 1.0 / u1 - 2.0) + t * (u2 + 1.0 / u2 - 2.0)
        return (u1 * u2) ** x * np.exp(expo) / (u2 - 1.0) ** 2

    c_corr = Circle(0.0, 1.0 - 2.2 / rt)
    corr = contour_integral(lambda v: corr_int(v[0]), [c_corr], nodes=nodes, tol=tol, node_cap=1 << 13)
    return float((main - corr).real)


# RK4's amplification R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 has |R(z)| <= 1 on
# the real segment [-_RK4_REAL_LIMIT, 0] and not beyond it
_RK4_REAL_LIMIT = 2.785293563405282
# Chebyshev coefficients of R(h lam)^steps below this (absolute) are dropped;
# the function lies in [0, 1]
_CHEB_TAIL = 1e-15


def _rk4_propagator_chebyshev(h: float, steps: int) -> np.ndarray:
    """Chebyshev coefficients of g(x) = R(h lam)^steps, lam = 4x - 4, on [-1, 1].

    g is sampled at the n + 1 Chebyshev extrema and transformed with one real
    FFT; n doubles until the upper half of the coefficients lies below
    _CHEB_TAIL, or until n reaches 4 steps, the exact degree of g, where the
    interpolant is g itself.
    """
    exact = 4 * steps
    n = min(64, exact)
    while True:
        z = h * (4.0 * np.cos(np.pi * np.arange(n + 1) / n) - 4.0)
        # R(z) > 0 for real z; log1p keeps R(z)^steps accurate near z = 0
        g = np.exp(steps * np.log1p(z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))))
        coef = np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real / n
        coef[0] /= 2.0
        coef[n] /= 2.0
        if n >= exact or np.max(np.abs(coef[n // 2 :])) < _CHEB_TAIL:
            break
        n = min(2 * n, exact)
    return coef[: np.flatnonzero(np.abs(coef) >= _CHEB_TAIL)[-1] + 1]


def ssep_f2_duality(x: int, t: float, dt: float = 0.1, window_factor: float = 5.5) -> float:
    """Independent oracle for E[h(h-1)] via the closed two-point equations.

    The SSEP two-point function C(y1, y2) = E[eta(y1) eta(y2)] satisfies a
    discrete heat equation dC/dt = L C in both coordinates, with the inner
    neighbors dropped on the adjacent band; integrating it from the step
    profile and summing 2 C over x < y1 < y2 gives the second falling moment.

    The result is that of classical RK4 with ceil(t / dt) equal steps h on a
    window of 2 M + 1 sites, M = window_factor sqrt(t) + |x| + 25: the fixed
    propagator R(h L)^steps applied to the step profile.  L is autonomous,
    so that matrix polynomial is applied as one Chebyshev expansion
    (Tal-Ezer & Kosloff 1984) in X = (L + 4) / 4 by the three-term
    recurrence.  The interval is right: on interior pairs L is symmetric and
    every Gershgorin disc lies in |lam + 4| <= 4, while the frozen edge and
    diagonal rows are zero, so spec L is in [-8, 0] and spec X in [-1, 1].
    The expansion needs O(sqrt(t)) stencil passes instead of RK4's 4 t / h,
    so the work is O(sqrt(t) M^2).  8 h must stay within RK4's real-axis
    stability limit.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidParameterError("dt must be a positive finite number")
    if not t >= 0:
        raise InvalidParameterError("duality oracle needs t >= 0")
    if t > 500:
        raise InvalidParameterError("duality oracle capped at t <= 500")
    steps = max(1, int(math.ceil(t / dt)))
    h = t / steps
    if 8.0 * h > _RK4_REAL_LIMIT:
        raise InvalidParameterError(
            f"RK4 step {h:g} is unstable on spec L = [-8, 0]; need dt <= {_RK4_REAL_LIMIT / 8:.4f}"
        )
    M = int(window_factor * math.sqrt(max(t, 1.0)) + abs(x) + 25)
    size = 2 * M + 1
    ys = np.arange(-M, M + 1)
    occ0 = (ys <= 0).astype(float)
    C = np.outer(occ0, occ0)
    np.fill_diagonal(C, 0.0)

    band = np.arange(size - 1)

    def rhs(c):
        lap = -4.0 * c
        lap[1:, :] += c[:-1, :]
        lap[:-1, :] += c[1:, :]
        lap[:, 1:] += c[:, :-1]
        lap[:, :-1] += c[:, 1:]
        # adjacent band (y, y+1): only the outer neighbors move the pair
        upper = np.zeros(size - 1)
        upper[1:] += c[band[1:] - 1, band[1:] + 1]
        upper[:-1] += c[band[:-1], band[:-1] + 2]
        upper -= 2.0 * c[band, band + 1]
        lap[band, band + 1] = upper
        lap[band + 1, band] = upper
        np.fill_diagonal(lap, 0.0)
        # freeze the window edge at the (exponentially accurate) step value
        lap[0, :] = lap[-1, :] = 0.0
        lap[:, 0] = lap[:, -1] = 0.0
        return lap

    coef = _rk4_propagator_chebyshev(h, steps)
    # T_0 = C, T_1 = X C, T_{k+1} = 2 X T_k - T_{k-1}
    out = coef[0] * C
    if coef.size > 1:
        prev, cur = C, C + 0.25 * rhs(C)
        out += coef[1] * cur
        for c in coef[2:]:
            prev, cur = cur, 0.5 * rhs(cur) + 2.0 * cur - prev
            out += c * cur
    mask = ys > x
    sub = out[np.ix_(mask, mask)]
    return float(np.triu(sub, k=1).sum() * 2.0)


# ---------------------------------------------------------------------------
# Enumeration and Monte Carlo averages.
# ---------------------------------------------------------------------------


def enum_E(spec: ObservableSpec, params: IrfParams, lam: complex | None = None) -> complex:
    """Exact average by enumerating the joint height law (complex ok).

    Uses the IRF observable product in trigonometric mode and the rational
    product in rational mode.
    """
    lam = params.lambda0 if lam is None else lam
    N = int(spec.N_or_t)
    law = enumerate_heights(params, N, spec.xs, lam0=lam)
    hs = list(law)
    if params.mode.kind == "rational":
        vals = _rational_product(hs, spec, float(complex(lam).real), N)
    else:
        vals = _irf_product(hs, spec, params, lam)
    return complex(sum((amp * val for amp, val in zip(law.values(), vals)), 0.0 + 0.0j))


def hs6v_q_moment(spec: ObservableSpec, params: IrfParams) -> complex:
    """E[prod_k (q^{h(x_{k+1},N)} - q^k)] for the stochastic six-vertex model."""
    N = int(spec.N_or_t)
    law = enumerate_heights_hs6v(params, N, spec.xs)
    q = to_six_vertex(params).q
    total = 0.0 + 0.0j
    for hs, amp in law.items():
        term = 1.0 + 0.0j
        for k in range(spec.n):
            term *= q ** hs[k] - q**k
        total += amp * term
    return total


def mc_E(model: str, spec: ObservableSpec, params_or_rates, samples: int, seed: int):
    """Monte Carlo average of the observable product; returns (mean, stderr).

    All observables of one spec are evaluated on the same trajectory;
    trajectories are independent with counter-based per-trajectory seeds.
    """
    if samples < 1000:
        raise InvalidParameterError("use at least 10^3 trajectories")
    if model in ("irf", "rational"):
        params = params_or_rates
        N = int(spec.N_or_t)
        batch = sample_irf_batch(params, max(spec.xs), N, seed, samples)
        hs = np.stack([batch_heights(batch, x, N) for x in spec.xs], axis=1)
        if model == "irf":
            vals = _irf_product(hs, spec, params, params.lambda0)
        else:
            vals = _rational_product(hs, spec, float(params.lambda0.real), N)
    elif model == "asep":
        q, alpha = params_or_rates
        svals = exclusion_farm("asep", (q, alpha), float(spec.N_or_t), samples, seed, list(spec.xs))
        vals = _asep_product(svals, spec, q, alpha)
    elif model == "ssep":
        (lam_bar,) = params_or_rates
        svals = exclusion_farm("ssep", (lam_bar,), float(spec.N_or_t), samples, seed, list(spec.xs))
        vals = _ssep_product(svals, spec, lam_bar)
    else:
        raise InvalidParameterError(f"unknown model {model!r}")
    mean = complex(np.mean(vals))
    stderr = float(np.sqrt(np.sum(np.abs(vals - mean) ** 2)) / math.sqrt(samples * (samples - 1)))
    return mean, stderr


def lambda_independence_report(
    model: str,
    spec: ObservableSpec,
    lambdas,
    params_or_rates,
    samples: int | None = None,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> CheckReport:
    """The lambda-independence property as an executable test.

    IRF without ``samples``: exact enumeration per lambda, pairwise 1e-9.
    With ``samples`` (or for SSEP/ASEP) Monte Carlo within 4 combined
    standard errors.
    """
    if model == "irf" and samples is None:
        params = params_or_rates
        values = [enum_E(spec, params, lam=lam) for lam in lambdas]
        devs = [abs(v - values[0]) for v in values[1:]]
        worst = max(range(1, len(values)), key=lambda i: abs(values[i] - values[0]))
        return CheckReport(
            name=f"lambda-independence-irf-n{spec.n}-N{int(spec.N_or_t)}",
            parameters={
                "xs": spec.xs,
                "lambdas": [[complex(l).real, complex(l).imag] for l in lambdas],
                "values": [[v.real, v.imag] for v in values],
            },
            lhs=values[worst],
            rhs=values[0],
            tolerance=tolerance,
        )
    if model == "irf":
        params = params_or_rates
        results = [mc_E("irf", spec, params.with_lambda0(lam), samples, seed) for lam in lambdas]
    elif model == "ssep":
        results = [mc_E("ssep", spec, (lb,), samples, seed) for lb in lambdas]
    elif model == "asep":
        results = [mc_E("asep", spec, rates, samples, seed) for rates in lambdas]
    else:
        raise InvalidParameterError(f"unknown model {model!r}")
    (m0, s0) = results[0]
    worst_i = max(range(1, len(results)), key=lambda i: abs(results[i][0] - m0))
    mi, si = results[worst_i]
    sigma = math.sqrt(s0 * s0 + si * si)
    return CheckReport(
        name=f"lambda-independence-{model}-mc-n{spec.n}",
        parameters={
            "xs": spec.xs,
            "means": [[m.real, m.imag] for m, _ in results],
            "stderrs": [s for _, s in results],
        },
        lhs=mi,
        rhs=m0,
        tolerance=4 * sigma / max(1.0, abs(m0)),
    )
