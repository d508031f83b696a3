"""Observables and their averages: exact contour integrals, Monte Carlo, enumeration.

The one observable family behind everything here is

    O(x, N) = exp(2*pi*i*(lam - 2*eta*h(x,N))) + exp(4*pi*i*eta*(h(x,N) - N + Lambda_[1,x))),

a two-term function of the height whose shifted products have
lambda-independent averages.  Those averages are computed three ways:

* exact n-fold contour integrals (quadrature over circles, plus a residue
  sum or, at one exclusion site, a random-walk sum as an independent route),
* exact enumeration of the joint height law (small windows, complex
  weights allowed),
* Monte Carlo over sampled trajectories (positive-weight presets only).

The rational model is the IRF integral with f(z) = z and bare
normalization (no (2*pi*i)^n or q-power prefactor); it needs a
rational-mode pack and sites x >= 1.  The dynamic ASEP and dynamic SSEP
degenerations carry their own integral formulas and observable
parametrizations.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .identities import CheckReport
from .params import IrfParams, pq_grid, to_six_vertex
from .special import (
    Circle,
    ConvergenceError,
    InvalidParameterError,
    _as_int,
    _check_nodes,
    _check_tol,
    contour_integral_factored,
    log_ive,
)
from .symfunc import _pair_table, _perm_sum
from .samplers import (
    _check_horizon,
    _check_rates,
    batch_heights,
    enumerate_heights,
    enumerate_heights_hs6v,
    exclusion_farm,
    sample_irf_batch,
)
from .weights import SingularParameterError

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


def _lattice_rows(spec: ObservableSpec, params: IrfParams) -> int:
    """The row index N of a lattice observable: an integer in 0..params.n_rows.

    Rational-mode packs also need every site x >= 1: the rational product
    and the integral disagree on what the observable is left of column 1.
    """
    if not float(spec.N_or_t).is_integer():
        raise InvalidParameterError(f"the row index N must be an integer, got {spec.N_or_t}")
    if not 0 <= spec.N_or_t <= params.n_rows:
        raise InvalidParameterError(f"not enough rows in the parameter pack: N = {spec.N_or_t}, {params.n_rows} rows")
    if params.mode.kind == "rational" and spec.xs[-1] < 1:
        raise InvalidParameterError(f"the rational model needs sites x >= 1, got {spec.xs}")
    return int(spec.N_or_t)


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


def _rational_product(hs, spec: ObservableSpec, lam: complex, N: int) -> np.ndarray:
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


def _site_integral(xs, unary, cross, circles, nodes: int, tol: float) -> complex:
    """The one factored term of every direct contour route: the loop integral
    of prod_k unary(x_k)(v_k) prod_{i<j} cross(v_i, v_j) over ``circles``."""
    binaries = {pair: cross for pair in itertools.combinations(range(len(xs)), 2)}
    return contour_integral_factored([([unary(x) for x in xs], binaries)], circles, nodes=nodes, tol=tol)


def _check_walk_sum(model: str, value: complex, ref: float) -> None:
    """The n = 1 check of an exclusion quadrature against its walk sum, 1e-8
    relative; a disagreement (NaN included) raises ConvergenceError."""
    if not abs(value - ref) <= 1e-8 * max(1.0, abs(ref)):
        raise ConvergenceError(f"{model} routes disagree: quadrature {value} vs walk sum {ref}", (value, ref))


def exact_E(model: str, spec: ObservableSpec, params_or_rates, nodes: int = 48, tol: float = 1e-10):
    """Exact averages by n-fold loop integrals, each checked against an
    independent route: the residue sum for the lattice models (any n), the
    random-walk sum ``_walk_sum`` for the exclusion models (n = 1): E[q^h] - 1
    of the usual ASEP, -E h of the usual SSEP.  SSEP takes other exact
    routes where its integral is not accurate (table below); ASEP at n = 1
    returns the walk sum alone where its loop integral cannot be accurate
    (the integrand's peak on the circle times eps is 1 or more) or raises
    ConvergenceError (from t = 5 at q = 0.5, t = 20 at q = 0.8).  ASEP at
    n >= 2 raises ConvergenceError where that peak test fails on any of its
    circles (t = 8.8 at q = 0.5), before any quadrature.

    model "irf": params is a trigonometric- or elliptic-mode IrfParams (any
    spin), integral around the w's; coincident row parameters raise
    SingularParameterError, since the residue check needs simple poles;
    "rational": a rational-mode IrfParams and sites x >= 1; the same IRF
    integral with f(z) = z and bare normalization (the presets have 2*eta = 1
    and Lambda = 1, so p_j = z_j and q_j = z_j + 1);
    "asep": params_or_rates = (q, alpha), loops around 1;
    "ssep": params_or_rates = (lam_bar,); the average does not depend on
    lam_bar and equals (-1)^n E[prod_k (h(x_k) - (k - 1))] of the usual SSEP
    from the step state.  Its route is fixed by (n, t, xs) before any work,
    the first row that applies:

        direct    loops around 0, every x_k >= 0 and t <= 10, 12, 7.5 at
                  n = 1, 2, 3; at n = 1 checked against the walk sum
        walk sum  n = 1 (``ssep_mean_height``)
        saddle    n = 2, x_1 = x_2, t > 500 (``_ssep_f2_large_t``; x < 0
                  by the particle-hole reflection x -> -x); it converges to
                  t = 1e5 at x = 0 and raises ConvergenceError by t = 3e5
        duality   the n-point function e^{tL} C on the cube
                  [min(min xs, 0) - W, max(max xs, 0) + W]^n, W = 5.5 sqrt(t)
                  + 25, up to 2^21 sites (n = 3 to t about 50 at x = 0,
                  n >= 4 never); past it InvalidParameterError before any
                  array is allocated

    Exclusion rates pass mc_E's check (``samplers._check_rates``), unused
    ones included.  A ``tol`` not finite and > 0 or a ``nodes`` not an integer
    >= 16 raises InvalidParameterError before any route is chosen.  A value
    its check route disagrees with raises ConvergenceError, naming both
    routes and carrying both values as its ``estimates``.
    """
    _check_tol(tol)
    nodes = _check_nodes(nodes)
    if model in ("irf", "rational"):
        _check_pack_mode(model, params_or_rates)
        return _exact_E_irf(spec, params_or_rates, nodes, tol)
    if model not in MODELS:
        raise InvalidParameterError(f"unknown model {model!r}")
    rates = _check_rates(model, params_or_rates)
    _check_horizon(spec.N_or_t)  # the time check of mc_E's exclusion_farm
    return _exact_E_asep(spec, float(rates[0]), nodes, tol) if model == "asep" else _exact_E_ssep(spec, nodes, tol)


def _check_pack_mode(model: str, params: IrfParams) -> None:
    """Model "rational" needs a rational-mode pack, "irf" a non-rational one."""
    if (params.mode.kind == "rational") != (model == "rational"):
        need = "a rational-mode" if model == "rational" else "a non-rational-mode"
        raise InvalidParameterError(f"model {model!r} needs {need} pack, got {params.mode.kind}")


def _irf_norm(spec: ObservableSpec, params: IrfParams, N: int) -> complex:
    """What turns the residue-normalized integral into the average: 1 in
    rational mode, (2*pi*i)^n exp(-2*pi*i*eta*(...)) otherwise."""
    if params.mode.kind == "rational":
        return 1.0
    n, eta = spec.n, params.eta
    pref = cmath.exp(-2j * math.pi * eta * (n * (n - 1) / 2 + n * N - sum(params.lam_sum(1, x) for x in spec.xs)))
    return pref * (2j * math.pi) ** n


def _exact_E_irf(spec: ObservableSpec, params: IrfParams, nodes: int, tol: float) -> complex:
    n = spec.n
    N = _lattice_rows(spec, params)
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    ws = [params.w(k) for k in range(1, N + 1)]
    circles = _irf_contours(params, n)

    def unary(x):
        def fn(v):
            out = np.ones_like(v)
            for j in range(1, x):
                out = out * f(v - grid.p[j]) / f(v - grid.q[j])
            for w in ws:
                out = out * f(v - w - 2 * eta) / f(v - w)
            return out

        return fn

    integral = _site_integral(spec.xs, unary, lambda a, b: f(a - b) / f(a - b + 2 * eta), circles, nodes, tol)
    value = _irf_norm(spec, params, N) * integral

    res, cond = _irf_residue_sum(spec, params)
    # the residue route loses ~cond * eps to cancellation when the w's
    # are nearly coincident; widen the assertion accordingly
    tol_res = max(1e-8, cond * 5e-14)
    if not abs(value - res) <= tol_res * max(1.0, abs(res)):
        raise ConvergenceError(f"IRF routes disagree: quadrature {value} vs residue sum {res}", (value, res))
    return value


def _irf_residue_sum(spec: ObservableSpec, params: IrfParams) -> complex:
    """Iterated-residue evaluation at v_i = w_{t_i} over distinct tuples.

    One ``symfunc._perm_sum`` from the n sites to the N row parameters.
    Returns (value, conditioning); conditioning is the ratio of the sum of
    term magnitudes to the result and bounds the relative cancellation
    error (terms blow up like 1/spacing^{n(N-1)} for close row parameters).
    Coincident rows, f(w_j - w_k) = 0, raise SingularParameterError.
    """
    n = spec.n
    N = int(spec.N_or_t)
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    ws = [params.w(k) for k in range(1, N + 1)]
    clash = {r for j, k in itertools.combinations(range(N), 2) if f(ws[j] - ws[k]) == 0 for r in (j + 1, k + 1)}
    if clash:
        raise SingularParameterError(f"rows {sorted(clash)} have coincident parameters (f(w_j - w_k) = 0): no residue sum")
    fp0 = params.fp0()

    def res_factor(x, t):
        w = ws[t]
        out = f(-2 * eta) / fp0
        for k, wk in enumerate(ws):
            if k != t:
                out *= f(w - wk - 2 * eta) / f(w - wk)
        for j in range(1, x):
            out *= f(w - grid.p[j]) / f(w - grid.q[j])
        return out

    U = [[res_factor(x, t) for t in range(N)] for x in spec.xs]
    # one slot reads no pair factor: skip the table and its denominators
    C = _pair_table(ws, lambda d: f(d) / f(d + 2 * eta)) if n > 1 else None
    total, mag = _perm_sum(U, C)
    cond = mag / max(abs(total), 1e-300)
    return _irf_norm(spec, params, N) * total, cond


def _exact_E_asep(spec: ObservableSpec, q: float, nodes: int, tol: float) -> complex:
    n = spec.n
    t = float(spec.N_or_t)
    circles = _nested_circles(1.0, 0.1, n, growth=0.3)

    def unary(x):
        return lambda y: ((1 - y) / (1 - q * y)) ** x * np.exp((1 - q) ** 2 * y * t / ((1 - y) * (1 - q * y))) / y

    def cross(a, b):
        return (a - b) / (a - q * b)

    # the integrand peaks near exp(9 (1 - q)^2 t / (1 - 0.9 q)) at y = 0.9
    # (q < 1); once a unary's peak on its circle times eps reaches 1 (t = 8.8
    # at q = 0.5, 28 at q = 0.8 on the first circle) the quadrature's rounding
    # noise swamps the value, and from a peak of e^709 the integrand
    # overflows: n = 1 then takes the walk sum alone, n >= 2 has no route
    with np.errstate(over="ignore", invalid="ignore"):
        peak = max(np.max(np.abs(unary(x)(c.points(256)))) for x, c in zip(spec.xs, circles))
    if not peak * np.finfo(float).eps < 1.0:
        if n > 1:
            raise ConvergenceError(
                f"ASEP at n = {n}, t = {t}, q = {q} has no exact route: its integrand's peak on the circles, "
                f"{peak:.3g} (nan past double range), times eps is 1 or more"
            )
        return complex(_asep_walk_sum(spec.xs[0], t, q))
    if n > 1:
        return q ** (n * (n - 1) / 2) * _site_integral(spec.xs, unary, cross, circles, nodes, tol)
    x = spec.xs[0]
    try:
        value = _site_integral(spec.xs, unary, cross, circles, nodes, tol)
    except ConvergenceError:
        # below that peak the quadrature still passes its node cap from t = 5
        # at q = 0.5 and t = 20 at q = 0.8 (about 1.8 ms spent)
        return complex(_asep_walk_sum(x, t, q))
    _check_walk_sum("ASEP", value, _asep_walk_sum(x, t, q))
    return value


def _asep_walk_sum(x: int, t: float, q: float) -> float:
    """E[q^h(x, t)] - 1 of the usual ASEP from the step state, the alpha -> 0
    limit of ``_asep_product`` at n = 1: ``_walk_sum`` of g0(y) = q^max(-y, 0)."""
    return _walk_sum(x, t, q, lambda y: q ** np.maximum(-y, 0)) - 1.0


# the direct SSEP route's t-range by n, at sites x >= 0 only: on the circles
# (v/(v-1))^x reaches ((1+r)/r)^|x| at x < 0, and the n = 2 integral stops
# converging at (-12, -12) for every t, at (-8, -8) from t = 4 and at
# (-4, -4) by t = 8.  n = 1's walk-sum check trips from t = 12 at x = 0; the
# n = 3 integral at x = 0 converges for every t <= 7.6 on a 0.05 grid and
# fails erratically from t = 7.65
_SSEP_DIRECT_T_MAX = {1: 10.0, 2: 12.0, 3: 7.5}


def _exact_E_ssep(spec: ObservableSpec, nodes: int, tol: float) -> complex:
    """The SSEP average by the route that (n, t, xs) selects; the table is in ``exact_E``."""
    xs, n, t = spec.xs, spec.n, float(spec.N_or_t)
    if xs[-1] >= 0 and t <= _SSEP_DIRECT_T_MAX.get(n, -1.0):
        value = _ssep_direct(xs, t, nodes, tol)
        if n == 1:
            _check_walk_sum("SSEP", value, -ssep_mean_height(xs[0], t))
        return value
    if n == 1:
        return complex(-ssep_mean_height(xs[0], t))
    if n == 2 and xs[0] == xs[1] and t > 500:
        # the step state is invariant under particle-hole exchange with
        # x -> -x, so h(-a) has the law of h(a) + a and
        # F2(-a) = F2(a) + 2a F1(a) + a(a - 1)
        a = abs(xs[0])
        f2 = _ssep_f2_large_t(a, t)
        return complex(f2 if xs[0] >= 0 else f2 + 2 * a * ssep_mean_height(a, t) + a * (a - 1))
    return complex(_duality_moment(xs, t))


def _ssep_direct(xs, t: float, nodes: int, tol: float) -> complex:
    """The direct route: the loop integral around 0 of
    prod_k (v_k / (v_k - 1))^{x_k} e^{t / (v_k (v_k - 1))} prod_{i<j} (v_i - v_j) / (v_i - v_j + 1)."""
    # the cross pole a = b - 1 stays outside every pair of circles while
    # r_i + r_j < 1, which also keeps the singularity at 1 out.  n = 2 keeps
    # its wider second circle, whose smaller peak t = 12 needs; n >= 3 grows
    # slowly so that every pair fits.  exp(t/(v(v-1))) peaks at
    # exp(t/(r(1+r))) on the smallest circle, which fixes the attainable
    # accuracy: 2.7e-6 absolute at t = 12
    base = 0.42
    circles = _nested_circles(0.0, base, len(xs), growth=0.25 if len(xs) <= 2 else 0.05)
    if len(xs) >= 2 and circles[-1].radius + circles[-2].radius > 0.95:
        raise InvalidParameterError("SSEP contours would reach the cross pole a = b - 1")
    tol = max(tol, 5e-15 * math.exp(t / (base * (1 + base))))

    def unary(x):
        return lambda v: (v / (v - 1.0)) ** x * np.exp(t / (v * (v - 1.0)))

    return _site_integral(xs, unary, lambda a, b: (a - b) / (a - b + 1), circles, nodes, tol)


def _walk_sum(x: int, t: float, q: float, g0) -> float:
    """sum_k P(Y_t = k) g0(x + k), Y the walk that steps +1 at rate q and -1 at rate 1.

    P(Y_t = k) = e^{-(1+q)t} q^{k/2} I_k(2 sqrt(q) t)
    = exp(-(1 - sqrt q)^2 t + (k/2) log q + log(e^{-z} I_|k|(z))), z = 2 sqrt(q) t,
    formed in that log form from one ``special.log_ive`` call, so neither
    q^{k/2} nor a scaled Bessel value far below double range is ever formed
    alone.  At t = 0, P is exactly delta_{k0}.  ``g0`` maps an int array of
    sites to values.

    The window is k in +-(|q - 1| t + 10 sigma + 30), sigma^2 = (1 + q) t.
    Bennett's inequality puts at most 2 exp(-a^2 / (2 (sigma^2 + a/3))) of the
    walk's mass more than a = 10 sigma + 30 from its drift (q - 1) t, and that
    is below 1e-18 at every t.  The window also holds the mirror image
    (1 - q) t +- a, where P(k) q^{-k} = P(-k) puts the weight of a g0 that
    grows like q^{-y}.  At q > 1, g0 must be the ASEP's q^{max(-y, 0)} on
    y < 0, which leaves double range where P(k) underflows.  ConvergenceError
    when the window's probabilities do not sum to 1 within 1e-12: the terms
    of the log form reach the order of |1 - q| t and round relative to
    that, so under a large drift the mass misses 1 by more (4e-12 at t = 1e5,
    q = 0.5; 3e-12 at t = 1e4, q = 0.01).
    """
    rq = math.sqrt(q)
    half = int(abs(q - 1.0) * t + 10.0 * math.sqrt((1.0 + q) * t) + 30.0)
    k = np.arange(-half, half + 1)
    log_p = log_ive(2.0 * rq * t, half)[np.abs(k)] + 0.5 * math.log(q) * k - (1.0 - rq) ** 2 * t
    p = np.exp(log_p)
    mass = p.sum()
    if not abs(mass - 1.0) <= 1e-12:
        raise ConvergenceError(f"walk window at t = {t}, q = {q} holds mass {mass}, not 1 within 1e-12")
    if q > 1.0:  # the half y = x + k < 0 sums to q^{-x} P(Y > x), as P(k) q^{-k} = P(-k)
        return float(p[k >= -x] @ g0(x + k[k >= -x]) + q**-x * p[k > x].sum())
    return float(p @ g0(x + k))


def ssep_mean_height(x: int, t: float) -> float:
    """E h(x, t) for the usual SSEP from the step state: a walk sum.

    By duality E h(x, t) = E max(-(x + Y_t), 0) for the symmetric walk Y
    (rate 1 each way): the q = 1 case of ``_walk_sum``, on one window
    k in 0 +- (10 sqrt(2t) + 30) for any site x, its probabilities
    e^{-2t} I_k(2t) formed in log form from one ``special.log_ive`` call, and
    ConvergenceError unless they sum to 1 within 1e-12 (they do to t = 1e6:
    with no drift the log form's terms stay below 60).
    """
    return _walk_sum(_as_int(x, "site x"), _check_horizon(t), 1.0, lambda y: np.maximum(-y, 0))


def ssep_falling_moment(x: int, t: float, n: int) -> float:
    """E[h (h-1) ... (h-n+1)] at site x for the usual SSEP with step start:
    (-1)^n exact_E("ssep", ObservableSpec((x,) * n, t), (lam_bar,), nodes=64),
    for any lam_bar.  A non-integral x or n, n < 1 or a t not finite and >= 0 raise
    InvalidParameterError before any work.
    """
    x = _as_int(x, "site x")
    t = _check_horizon(t)
    n = _as_int(n, "moment order n")
    if n < 1:
        raise InvalidParameterError(f"the moment order n must be >= 1, got n = {n}")
    return float(((-1) ** n * exact_E("ssep", ObservableSpec((x,) * n, t), (1.0,), nodes=64)).real)


def _ssep_f2_large_t(x: int, t: float) -> float:
    """Second falling moment at large t via saddle-adapted u-circles.

    In u-coordinates F_2 = CI[ (u2-u1)/(u1 u2 - 2 u1 + 1) g(u1) g(u2) ]
    over small circles; pushing |u1| out to r1 = 1 - 1.6/sqrt(t) (where the
    integrand magnitude stays O(exp(t(1-r)^2/r))) crosses the cross-factor
    pole u1* = c(u2) = 1/(2 - u2) once, so

        F_2 = CI_{r1, r2} - CI_{r2'}[ u1*^x e^{t(u1* + 1/u1* - 2)} g(u2) ],

    the residue's (u1*-1)^-2 cancelling against the Res of the cross
    factor.  Valid once the pole lies fully inside the r1-circle
    (t >= ~50); checked against the duality-ODE oracle in the tests.

    CI_{r1, r2} runs in pole form: the cross factor equals
    [(u2-c)/(u1-c) - 1]/(u2-2), i.e. two factored terms, the Cauchy kernel
    1/(u1-c) between g(u1) and g(u2)(u2-c)/(u2-2), and the rank-one product
    of g(u1) and -g(u2)/(u2-2).  g underflows to exactly 0 away from the
    saddle at u = 1 (past |arg u| about 0.27 at t = 1e4), and the grid drops
    those nodes, so only the kernel is a matrix, kept x kept (about 360 of
    4096 nodes per circle at t = 1e4), built in two passes per node pair.
    The node cap of 2^15 per circle lets the doubling converge to t = 1e5
    (16384 nodes at x = 0); t = 3e5 raises ConvergenceError.
    """
    if t < 200:
        raise InvalidParameterError("saddle-adapted F2 route needs t >= 200 (use the duality route below)")
    rt = math.sqrt(t)
    r1 = 1.0 - 1.6 / rt
    r2 = 1.0 - 3.8 / rt
    c1, c2 = Circle(0.0, r1), Circle(0.0, r2)
    # cancellation noise floor from the peak integrand magnitude
    mag = math.exp(t * (r2 + 1.0 / r2 - 2.0))
    tol = max(1e-9, 1e-13 * mag)

    def g(u):
        return u**x * np.exp(t * (u + 1.0 / u - 2.0)) / (u - 1.0) ** 2

    def pole(a, b):
        out = a - 1.0 / (2.0 - b)
        return np.reciprocal(out, out=out)

    main = contour_integral_factored(
        [
            ([g, lambda b: g(b) * (b - 1.0 / (2.0 - b)) / (b - 2.0)], {(0, 1): pole}),
            ([g, lambda b: -g(b) / (b - 2.0)], {}),
        ],
        [c1, c2],
        nodes=256,
        tol=tol,
        node_cap=1 << 15,
    )

    def corr_int(u2):
        # fuse the two exponents: separately they overflow while the
        # product stays bounded on the contour
        u1 = 1.0 / (2.0 - u2)
        expo = t * (u1 + 1.0 / u1 - 2.0) + t * (u2 + 1.0 / u2 - 2.0)
        return (u1 * u2) ** x * np.exp(expo) / (u2 - 1.0) ** 2

    c_corr = Circle(0.0, 1.0 - 2.2 / rt)
    corr = contour_integral_factored([([corr_int], {})], [c_corr], nodes=256, tol=tol, node_cap=1 << 15)
    return float((main - corr).real)


# window [min(min xs, 0) - W, max(max xs, 0) + W]^n, W = _DUALITY_WINDOW sqrt(t) + 25;
# its frozen edge leaves F2 about 1e-6 relative low at t = 300 (CHANGES.md)
_DUALITY_WINDOW = 5.5
_DUALITY_MAX_POINTS = 1 << 21  # sites of the n-cube: 16 MB per array
_IVE_TAIL = 1e-16  # where the Chebyshev series stops


def _duality_moment(xs, t: float) -> float:
    """(-1)^n E[prod_k (h(x_k) - (k - 1))] at sites x_1 >= ... >= x_n by
    n-point duality: exact_E("ssep")'s value.

    C(y) = E[eta(y_1) ... eta(y_n)] evolves under the generator L of n
    exclusion walkers (Liggett 1985, ch. VIII).  On the n-cube [lo, hi]^n
    (lo = min(min xs, 0) - W, hi = max(max xs, 0) + W: the step at 0 and
    every site lie W inside the edge), C is 0 on coincident tuples,
    frozen on the window edge, and elsewhere
    (L + 2n) C = (sum of the 2n axis shifts) + (blocked moves) C.  spec L
    lies in [-4n, 0], so e^{tL} = sum_k (2 - delta_k0) e^{-2nt} I_k(2nt)
    T_k((L + 2n) / 2n) (Tal-Ezer & Kosloff 1984), run by the three-term
    recurrence in O(sqrt(nt)) stencil passes.  The sum of C over the box
    y_k > x_k counts the injective tuples of particles with y_k > x_k, and
    for nonincreasing sites there are prod_k (h(x_k) - (k - 1)) of them.
    A window past _DUALITY_MAX_POINTS sites raises InvalidParameterError
    before any array is allocated.
    """
    n = len(xs)
    W = int(_DUALITY_WINDOW * math.sqrt(max(t, 1.0)) + 25)
    lo, hi = min(min(xs), 0) - W, max(max(xs), 0) + W
    shape = (hi - lo + 1,) * n
    if math.prod(shape) > _DUALITY_MAX_POINTS:
        raise InvalidParameterError(f"duality window of {shape[0]}^{n} sites is past the cap of {_DUALITY_MAX_POINTS}")
    ys = np.arange(lo, hi + 1)
    axes = [ys.reshape((-1,) + (1,) * (n - 1 - i)) for i in range(n)]
    coincident = np.zeros(shape, dtype=bool)
    blocked = np.zeros(shape)
    for i, j in itertools.combinations(range(n), 2):
        gap = np.abs(axes[i] - axes[j])
        coincident |= gap == 0
        blocked += 2.0 * (gap == 1)  # each walker of an adjacent pair is blocked once
    C, fixed = (~coincident).astype(float), coincident.copy()
    for a in axes:
        C *= a <= 0
        fixed |= (a == lo) | (a == hi)
    # step: out = 2X c - prev = (shifts + blocked c) / n - prev, with the
    # blocked moves a sparse diagonal, and T_k = C on the fixed set
    fixed_at, blocked_at = np.flatnonzero(fixed), np.flatnonzero(~fixed & (blocked > 0))
    fixed_val, blocked_val = C.reshape(-1)[fixed_at], blocked.reshape(-1)[blocked_at]

    def step(c, prev, out):
        out.fill(0.0)
        for ax in range(n):
            o, v = np.moveaxis(out, ax, 0), np.moveaxis(c, ax, 0)
            o[1:] += v[:-1]
            o[:-1] += v[1:]
        flat = out.reshape(-1)
        flat[blocked_at] += blocked_val * c.reshape(-1)[blocked_at]
        out *= 1.0 / n
        out -= prev
        flat[fixed_at] = fixed_val
        return out

    z = 2.0 * n * t
    coef = 2.0 * np.exp(log_ive(z, int(z + 10.0 * math.sqrt(z) + 40.0) - 1))
    coef[0] /= 2.0
    box = tuple(slice(x - lo + 1, None) for x in xs)
    # T_0 = C, T_1 = X C = 2X (C / 2), T_{k+1} = 2X T_k - T_{k-1}, until both
    # the coefficient and the term (relative to the sum) are below _IVE_TAIL
    prev, cur, nxt = C, step(0.5 * C, 0.0, np.empty(shape)), np.empty(shape)
    total = coef[0] * C[box].sum() + coef[1] * cur[box].sum()
    for c in coef[2:]:
        step(cur, prev, nxt)
        prev, cur, nxt = cur, nxt, prev
        term = c * cur[box].sum()
        total += term
        if c < _IVE_TAIL and abs(term) <= _IVE_TAIL * abs(total):
            break
    return (-1) ** n * float(total)


def ssep_f2_duality(x: int, t: float, dt: float = 0.1) -> float:
    """Independent oracle for E[h(h-1)]: two-point duality with exact e^{tL}.

    ``_duality_moment`` at the sites (x, x) (W = 5.5 sqrt(t) + 25 past 0 and x), t <= 500.
    ``dt``, the step of the RK4 integration this oracle once emulated, is
    still checked (non-finite or non-positive raises InvalidParameterError)
    so that callers passing it keep working; it has no other effect.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidParameterError("dt must be a positive finite number")
    t = _check_horizon(t)
    if t > 500:
        raise InvalidParameterError("duality oracle capped at t <= 500")
    return _duality_moment((_as_int(x, "site x"),) * 2, t)


# ---------------------------------------------------------------------------
# Enumeration and Monte Carlo averages.
# ---------------------------------------------------------------------------


def enum_E(spec: ObservableSpec, params: IrfParams, lam: complex | None = None) -> complex:
    """Exact average by enumerating the joint height law (complex ok).

    Uses the IRF observable product in trigonometric mode and the rational
    product in rational mode.  Elliptic-mode packs raise
    InvalidParameterError: there the stochastic weights sum to one only up
    to O(exp(-2*pi*Im tau)), so the mass absorbed past the window is wrong.
    """
    if params.mode.kind == "elliptic":
        raise InvalidParameterError("enum_E needs a trigonometric or rational pack; elliptic weights do not sum to one")
    lam = params.lambda0 if lam is None else lam
    N = _lattice_rows(spec, params)
    law = enumerate_heights(params, N, spec.xs, lam0=lam)
    hs = list(law)
    if params.mode.kind == "rational":
        vals = _rational_product(hs, spec, complex(lam), N)
    else:
        vals = _irf_product(hs, spec, params, lam)
    return complex(sum((amp * val for amp, val in zip(law.values(), vals)), 0.0 + 0.0j))


def hs6v_q_moment(spec: ObservableSpec, params: IrfParams) -> complex:
    """E[prod_k (q^{h(x_{k+1},N)} - q^k)] for the stochastic six-vertex model."""
    N = _lattice_rows(spec, params)
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
    A ``samples`` that is not an integer >= 1000 raises InvalidParameterError.
    """
    samples = _as_int(samples, "the sample count")
    if samples < 1000:
        raise InvalidParameterError("use at least 10^3 trajectories")
    if model in ("irf", "rational"):
        params = params_or_rates
        _check_pack_mode(model, params)
        N = _lattice_rows(spec, params)
        batch = sample_irf_batch(params, max(spec.xs), N, seed, samples)
        hs = np.stack([batch_heights(batch, x, N) for x in spec.xs], axis=1)
        if model == "irf":
            vals = _irf_product(hs, spec, params, params.lambda0)
        else:
            vals = _rational_product(hs, spec, complex(params.lambda0), N)
    elif model in ("asep", "ssep"):
        rates = _check_rates(model, params_or_rates)
        svals = exclusion_farm(model, rates, float(spec.N_or_t), samples, seed, list(spec.xs))
        vals = _asep_product(svals, spec, *rates) if model == "asep" else _ssep_product(svals, spec, *rates)
    else:
        raise InvalidParameterError(f"unknown model {model!r}")
    mean = complex(np.mean(vals))
    stderr = float(np.sqrt(np.sum(np.abs(vals - mean) ** 2)) / math.sqrt(samples * (samples - 1)))
    return mean, stderr


def lambda_independence_report(
    model: str, spec: ObservableSpec, lambdas, params_or_rates, samples: int | None = None, seed: int = 0, tolerance: float = 1e-9
) -> CheckReport:
    """The lambda-independence property as an executable test.

    IRF or rational without ``samples``: exact enumeration per lambda,
    pairwise 1e-9.  With ``samples`` Monte Carlo within 4 combined standard
    errors; SSEP/ASEP need ``samples`` (InvalidParameterError without).
    """
    if len(lambdas) < 2:
        raise InvalidParameterError("lambda independence needs at least two lambdas")
    if model not in ("irf", "rational", "ssep", "asep"):
        raise InvalidParameterError(f"unknown model {model!r}")
    if model in ("irf", "rational") and samples is None:
        params = params_or_rates
        _check_pack_mode(model, params)
        values = [enum_E(spec, params, lam=lam) for lam in lambdas]
        worst = max(range(1, len(values)), key=lambda i: abs(values[i] - values[0]))
        return CheckReport(
            name=f"lambda-independence-{model}-n{spec.n}-N{int(spec.N_or_t)}",
            parameters={
                "xs": spec.xs,
                "lambdas": [[complex(l).real, complex(l).imag] for l in lambdas],
                "values": [[v.real, v.imag] for v in values],
            },
            lhs=values[worst],
            rhs=values[0],
            tolerance=tolerance,
        )
    if samples is None:
        raise InvalidParameterError(f"{model} lambda independence is a Monte Carlo check: it needs samples")
    # lambdas are lambda_0 values (irf, rational), lam_bar values (ssep) or (q, alpha) pairs (asep)
    pack = params_or_rates.with_lambda0 if model in ("irf", "rational") else {"ssep": lambda lam: (lam,), "asep": lambda lam: lam}[model]
    results = [mc_E(model, spec, pack(lam), samples, seed) for lam in lambdas]
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
