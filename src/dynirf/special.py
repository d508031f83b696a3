"""Complex special functions, two real kernels and the circle-contour quadrature engine.

The building block for every weight and symmetric function in this package
is a single odd function f, realized in one of three modes:

* elliptic:       f(z) = theta(z, tau), the odd theta series with nome
                  parameter tau, Im(tau) > 0,
* trigonometric:  f(z) = sin(pi z),
* rational:       f(z) = z.

The trigonometric and rational modes are pointwise limits of the elliptic
one (tau -> +i*inf, and argument rescaling, respectively), and every
formula downstream is written uniformly in f.

All functions here accept numpy arrays for their principal argument and
are pure.  Each :class:`FunctionMode` binds its f and f'(0) once, as
``mode.f`` and ``mode.fp0``; in elliptic mode those are theta's Jacobi
triple product and its constant pi K, for its tau.  The only state is one
bounded cache: those products, one per tau.

Numeric input has one owner: ``_as_int`` reads an integer in a range and
``_as_real`` a finite real above a bound, each raising
InvalidParameterError that names the parameter and its bound.  Every entry
point of the package reads its integers and reals through them.

So has the report: :class:`CheckReport` records every check, and ``_rel``,
|got - want| / max(1, |want|), is the one residual that passes or fails a
report, a quadrature against its second route and the CLI's method gate.

The two real kernels serve the exclusion processes: ``log_ive``, the
scaled Bessel values e^{-z} I_k(z) of every order at one z in log form
(random-walk laws and the Chebyshev coefficients of e^{tL}), and
``gammainc``, the regularized lower incomplete gamma (the regime-IV
limit law).
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "CheckReport",
    "FunctionMode",
    "Circle",
    "ConvergenceError",
    "InvalidParameterError",
    "theta",
    "log_ive",
    "gammainc",
    "contour_integral_factored",
]


class InvalidParameterError(ValueError):
    """A parameter violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """A numerical route failed: quadrature or a series past its cap, two
    routes that disagree, or an oracle coefficient past its occupation cap
    or unstable in depth.

    Carries the last two estimates, where there are two, so the caller can
    inspect how far the sequence got.
    """

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


def _as_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int: an int, a numpy integer or an integral float, in
    low..high where given; anything else (a bool included) raises
    InvalidParameterError naming ``what`` and its range."""
    n = value if type(value) is int else None  # a plain int, the common case, skips the type tests
    if n is None and not isinstance(value, bool) and (isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer())):
        n = int(value)
    if n is not None and (low is None or n >= low) and (high is None or n <= high):
        return n
    bound = " and".join(f" {op} {b}" for op, b in ((">=", low), ("<=", high)) if b is not None)
    raise InvalidParameterError(f"{what} must be an integer{bound}, got {value!r}")


def _as_real(value, what: str, low: float = -math.inf, above: bool = False) -> float:
    """``value`` as a float: a finite real >= ``low``, or > ``low`` with
    ``above``; anything else (NaN, +-inf, a bool, a complex or a string
    included) raises InvalidParameterError naming ``what`` and its bound."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int past double range
        x = math.inf
    if not (math.isfinite(x) and (x > low if above else x >= low)):
        bound = "" if low == -math.inf else f" {'>' if above else '>='} {low!r}"
        raise InvalidParameterError(f"{what} must be a finite real{bound}, got {value!r}")
    return x


def _rel(got, want) -> float:
    """The report residual: relative where |want| >= 1, absolute below."""
    return abs(got - want) / max(1.0, abs(want))


@dataclass
class CheckReport:
    """Structured residual record for one identity check; the tolerance is a finite real >= 0."""

    name: str
    parameters: dict
    lhs: complex
    rhs: complex
    tolerance: float
    truncation_info: dict | None = None
    residual: float = field(init=False)
    passed: bool = field(init=False)
    status: str = field(init=False)

    def __post_init__(self):
        _as_real(self.tolerance, "the report tolerance", 0)
        self.lhs = complex(self.lhs)
        self.rhs = complex(self.rhs)
        self.residual = _rel(self.lhs, self.rhs)
        self.passed = self.residual <= self.tolerance
        tail = (self.truncation_info or {}).get("tail_estimate", 0.0)
        self.status = "failed" if not self.passed else "passed-with-warning" if tail > self.tolerance / 10.0 else "passed"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "status": self.status,
            "truncation_info": self.truncation_info,
        }


@dataclass(frozen=True)
class FunctionMode:
    """Which realization of f is in effect; elliptic mode carries tau.

    ``mode.f`` is f itself, on scalars and arrays, and ``mode.fp0`` is
    f'(0): pi, 1 or, in elliptic mode, theta'(0, tau) = pi K; both are bound
    once at construction.  Neither is a dataclass field: equality, hashing,
    repr and JSON see ``kind`` and ``tau`` only, and a pickled mode is
    rebuilt from them.  This is where tau is read: elliptic mode stores it
    as a complex whose real part is finite and whose imaginary part is
    finite and > 0, and refuses anything else.
    """

    kind: str  # "elliptic" | "trigonometric" | "rational"
    tau: complex | None = None

    def __post_init__(self):
        if self.kind not in ("elliptic", "trigonometric", "rational"):
            raise InvalidParameterError(f"unknown mode kind {self.kind!r}")
        if self.kind == "elliptic":
            if not isinstance(self.tau, numbers.Complex):
                raise InvalidParameterError(f"elliptic mode needs a complex tau with Im(tau) > 0, got {self.tau!r}")
            tau = complex(self.tau)
            _as_real(tau.real, "Re(tau)")
            _as_real(tau.imag, "Im(tau)", 0, above=True)
            object.__setattr__(self, "tau", tau)
            f, fp0 = _theta_product(tau)
        elif self.tau is not None:
            raise InvalidParameterError(f"{self.kind} mode takes no tau")
        else:
            f, fp0 = (_sin_pi, math.pi) if self.kind == "trigonometric" else (_identity, 1.0)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "fp0", fp0)

    def __reduce__(self):
        return FunctionMode, (self.kind, self.tau)

    @classmethod
    def elliptic(cls, tau: complex) -> "FunctionMode":
        return cls("elliptic", tau)

    @classmethod
    def trigonometric(cls) -> "FunctionMode":
        return cls("trigonometric")

    @classmethod
    def rational(cls) -> "FunctionMode":
        return cls("rational")


def _sin_pi(z):
    """f of trigonometric mode."""
    if isinstance(z, (int, float, complex)):
        return cmath.sin(math.pi * z)  # scalar fast path; hot in the row DPs
    return np.sin(np.pi * z)


def _identity(z):
    """f of rational mode."""
    return complex(z) if isinstance(z, (int, float, complex)) else np.asarray(z, dtype=complex)


_THETA_TOL = 1e-14  # the relative accuracy of theta's product


def _theta_off_range(z, tau):
    """Where theta's product is not finite: NaN for a NaN z, else the error."""
    if cmath.isinf(z):
        raise InvalidParameterError(f"theta needs a finite z, got z={z} at tau={tau}")
    if cmath.isnan(z):
        return complex(math.nan, math.nan)
    raise InvalidParameterError(f"theta(z, tau) is past double range at z={z}, tau={tau}")


@functools.lru_cache(maxsize=256)
def _theta_product(tau: complex):
    """(theta(., tau), theta'(0, tau)) to relative accuracy ``_THETA_TOL``,
    the first callable for scalars and arrays.

    z is first reduced into the strip |Im z0| <= Im(tau)/2 by z0 = z - m*tau,
    m = round(Im z / Im tau), with theta(z0 + m*tau) = (-1)^m
    exp(-pi*i*m*(z + z0)) theta(z0) (DLMF 20.2(iii)).  There, with q =
    exp(pi*i*tau) and s = sin(pi*z0), the triple product (DLMF 20.5.1) reads
    theta(z0) = K s prod_{n<=N} (1 + g_n s^2), K = 2 q^(1/4) prod (1 - q^2n)^3
    and g_n = 4 q^2n / (1 - q^2n)^2.  In the strip |s|^2 <= (1+r)^2/(4r) for
    r = |q|, so |g_n s^2| <= r^(2n-1)/(1-r)^2, and N is the least count at
    which these bounds summed over n > N stay below log1p(_THETA_TOL): the
    dropped factors then change the value by a relative amount below it.  At
    z = 0, s = 0 and every factor but K s has derivative 0 and value 1, so
    theta'(0) = pi K.
    """
    ti = tau.imag
    r = math.exp(-math.pi * ti)
    n, tail = 0, r / ((1 - r) ** 2 * (1 - r * r))
    while tail > math.log1p(_THETA_TOL):
        n, tail = n + 1, tail * r * r
    q2n = [cmath.exp(2j * math.pi * tau * k) for k in range(1, n + 1)]
    gs = tuple(4 * x / (1 - x) ** 2 for x in q2n)
    K = 2 * cmath.exp(0.25j * math.pi * tau) * math.prod((1 - x) ** 3 for x in q2n)
    half, pi, sin, exp, isfinite = ti / 2, math.pi, cmath.sin, cmath.exp, cmath.isfinite

    def theta_tau(z):
        if not isinstance(z, (int, float, complex)):
            return array(z)
        try:
            m = 0 if -half <= z.imag <= half else round(z.imag / ti)
            z0 = z - m * tau if m else z
            s = sin(pi * z0)
            out, s2 = K * s, s * s
            for g in gs:
                out *= 1 + g * s2
            if m:
                # h * h = exp(-pi*i*m*(z + z0)) with |h| >= 1, which alone may pass
                # double range where theta does not
                h = exp(-0.5j * pi * m * (z + z0))
                out = (-out if m % 2 else out) * h * h
            if isfinite(out):
                return out
        except (ValueError, OverflowError):
            pass
        return _theta_off_range(z, tau)  # a non-finite z, or past double range

    def array(z):
        zarr = np.asarray(z, dtype=complex)
        flat = zarr.reshape(-1)
        with np.errstate(all="ignore"):
            m = np.rint(flat.imag / ti)
            z0 = flat - m * tau
            s = np.sin(np.pi * z0)
            out, s2 = K * s, s * s
            for g in gs:
                out *= 1 + g * s2
            if m.any():
                h = np.exp(-0.5j * np.pi * m * (flat + z0))
                out = np.where(m % 2, -out, out) * h * h
        for i in np.flatnonzero(~np.isfinite(out)):
            out[i] = _theta_off_range(complex(flat[i]), tau)
        return complex(out[0]) if zarr.shape == () else out.reshape(zarr.shape)

    return theta_tau, pi * K


def theta(z, tau: complex):
    """Odd theta -sum_j exp(pi*i*(j+1/2)^2*tau + 2*pi*i*(j+1/2)*(z+1/2)), i.e.
    theta_1(pi*z | q = exp(pi*i*tau)): the f of ``FunctionMode.elliptic(tau)``,
    which reads tau.

    Evaluated by the Jacobi triple product after reducing z into the strip
    |Im z| <= Im(tau)/2 by the quasi-period tau; the product is truncated
    where the dropped factors change the value by a relative amount below
    1e-14.  Accepts scalar or ndarray ``z``.  Scalars are computed with
    ``cmath``, arrays with numpy, from constants cached per tau.  A NaN z
    gives NaN; an infinite z, or one where theta is past double range,
    raises InvalidParameterError.
    """
    return FunctionMode.elliptic(tau).f(z)


_RATIO_BLOCK = 512  # ratio mantissas lie in [1/2, 1): a block's product stays above 2^-513


def log_ive(z: float, kmax: int) -> np.ndarray:
    """log(e^{-z} I_k(z)) for every order k = 0..kmax at one z >= 0.

    Miller's backward recurrence (Gautschi, SIAM Rev. 9, 1967) on the
    ratios r_k = I_k / I_{k-1} = 1 / (2k/z + r_{k+1}), run down from order
    N = kmax + sqrt(80 z) + 40, started at the estimate
    z / (N + 1 + sqrt((N + 1)^2 + z^2)): the start's error is damped by
    prod_{k <= N} r_k^2 < e^{-40} at every order up to kmax.  The same
    loop sums e^{-z} (I_0 + 2 sum_{k >= 1} I_k) = 1 by Horner's rule
    (its tail past N is below e^{-40}), which fixes e^{-z} I_0.  The prefix
    products of the ratios are formed in product form: each ratio split
    exactly into a mantissa in [1/2, 1) and a power of 2, the mantissas
    multiplied in blocks of ``_RATIO_BLOCK``, the exponents summed as
    integers, so only the last log rounds on the scale of the result and
    values far below double range keep their logs.  At z = 0 the result
    is 0 at k = 0 and -inf above.  A z that is negative or not finite,
    or a kmax that is not an integer >= 0, raises InvalidParameterError.
    """
    z = _as_real(z, "log_ive's z", 0)
    kmax = _as_int(kmax, "the top order kmax", 0)
    out = np.full(kmax + 1, -np.inf)
    if z == 0:
        out[0] = 0.0
        return out
    top = kmax + int(math.sqrt(80.0 * z)) + 40
    c = 2.0 / z
    r = z / (top + 1.0 + math.sqrt((top + 1.0) ** 2 + z * z))
    tail = 0.0
    ratios = [0.0] * top
    for k in range(top, 0, -1):
        r = 1.0 / (c * k + r)
        tail = r * (1.0 + tail)
        ratios[k - 1] = r
    out[0] = -math.log1p(2.0 * tail)
    mant, scale = np.frexp(np.array(ratios[:kmax]))
    scale = np.cumsum(scale)
    carry, shift = 1.0, 0
    for s in range(0, kmax, _RATIO_BLOCK):
        block = np.cumprod(mant[s : s + _RATIO_BLOCK]) * carry
        mant[s : s + _RATIO_BLOCK] = block
        scale[s : s + _RATIO_BLOCK] += shift
        carry, step = math.frexp(block[-1])
        shift += step
    with np.errstate(divide="ignore"):  # an underflowed ratio (z below ~1e-300) gives -inf
        out[1:] = out[0] + np.log(mant) + math.log(2.0) * scale
    return out


_GAMMA_EPS = 2.0**-52  # where a series term or a fraction step stops mattering
_GAMMA_TINY = 1e-300  # the Lentz guard against a zero denominator
_TEMME_SHAPE = 10.0  # from this shape on, gammainc's prefactor is in Temme's form
# log Gamma(a) - (a - 1/2) log a + a - log(2 pi) / 2 = sum_k c_k a^(1 - 2k),
# c_k = B_2k / (2k (2k - 1)); the ninth term is below 2e-18 from a = 10 on
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_ATANH = 1.0 / np.arange(3.0, 43.0, 2.0)  # 1/3, 1/5, ..., 1/41: r^40 < 1e-19 at |r| <= 1/3


def _temme_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a) for x > 0 as sqrt(a / 2 pi) exp(a (log1p(eps) - eps) - S(a)),
    eps = (x - a) / a and S the Stirling series ``_STIRLING`` (Temme's
    form), so no exponent of size a log a is rounded.
    For |eps| <= 1/2, log1p(eps) - eps = -eps r + 2 (r^3/3 + r^5/5 + ...)
    with r = eps / (2 + eps), |r| <= 1/3, two parts that do not cancel;
    beyond it log(x / a) - eps, where x / a may underflow to 0 and the
    prefactor with it."""
    eps = (x - a) / a
    with np.errstate(divide="ignore"):
        d = np.log(x / a) - eps
    near = np.abs(eps) <= 0.5
    e = eps[near]
    r = e / (2.0 + e)
    r2, tail = r * r, np.zeros(e.shape)
    for c in _ATANH[::-1]:
        tail = tail * r2 + c
    d[near] = 2.0 * r * r2 * tail - e * r
    stirling = sum(c * a ** (1 - 2 * k) for k, c in enumerate(_STIRLING, 1))
    return math.sqrt(a / (2.0 * math.pi)) * np.exp(a * d - stirling)


def gammainc(a: float, x) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
    for one a > 0, on an array of x >= 0 (an array of x's shape).

    Below x = a + 1 the series x^a e^{-x} / Gamma(a + 1) sum_n x^n / ((a + 1) ... (a + n)),
    above it 1 - Q(a, x) with Q's continued fraction evaluated by the
    modified Lentz method (Numerical Recipes, 3rd ed., section 6.2), both
    until every step changes its value by less than ``_GAMMA_EPS``
    relative; past 120 + 12 sqrt(a) steps ConvergenceError.  The fraction
    needs up to 99 steps at shapes below 1 (x near a + 1) and 90 at a =
    1000, the series 233 at a = 1000, on log grids of x.  An a that is
    not finite and > 0, or an x that is negative or not finite, raises
    InvalidParameterError.

    Both multiply by the prefactor x^a e^{-x} / Gamma(a): below shape 10
    exp(a log x - x - lgamma(a)), whose exponent of size a log a rounds to
    a few ulp, from 10 on ``_temme_prefactor`` (5.6e-16 where the former
    reads up to 4.4e-13, at x = a +- 8 sqrt(a), a = 100 to 1000).
    """
    a = _as_real(a, "gammainc's a", 0, above=True)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise InvalidParameterError("gammainc needs finite x >= 0")
    steps = 120 + int(12.0 * math.sqrt(a))
    out = np.zeros(x.shape)
    series = (x > 0) & (x < a + 1.0)
    if series.any():
        xs = x[series]
        term, total, ap = np.ones(xs.shape), np.ones(xs.shape), a
        for _ in range(steps):
            ap += 1.0
            term *= xs / ap
            total += term
            if np.all(term <= _GAMMA_EPS * total):
                break
        else:
            raise ConvergenceError(f"gammainc series at a = {a} did not converge in {steps} terms")
        if a < _TEMME_SHAPE:
            out[series] = total * np.exp(a * np.log(xs) - xs - math.lgamma(a + 1.0))
        else:
            out[series] = total * _temme_prefactor(a, xs) / a
    fraction = x >= a + 1.0
    if fraction.any():
        xc = x[fraction]
        b = xc + (1.0 - a)
        c = np.full(xc.shape, 1.0 / _GAMMA_TINY)
        d = 1.0 / b
        h, live = d.copy(), np.ones(xc.shape, dtype=bool)
        for i in range(1, steps):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d[np.abs(d) < _GAMMA_TINY] = _GAMMA_TINY
            c = b + an / c
            c[np.abs(c) < _GAMMA_TINY] = _GAMMA_TINY
            d = 1.0 / d
            delta = d * c
            # a converged fraction stops at its first small step: later
            # steps only move it by rounding, up to 2 ulp from 1
            h = np.where(live, h * delta, h)
            live &= np.abs(delta - 1.0) > _GAMMA_EPS
            if not live.any():
                break
        else:
            raise ConvergenceError(f"gammainc continued fraction at a = {a} did not converge in {steps} steps")
        prefactor = np.exp(a * np.log(xc) - xc - math.lgamma(a)) if a < _TEMME_SHAPE else _temme_prefactor(a, xc)
        out[fraction] = 1.0 - prefactor * h
    return out


@dataclass(frozen=True)
class Circle:
    """Positively oriented circle |v - center| = radius; the radius must be a finite real > 0."""

    center: complex
    radius: float

    def __post_init__(self):
        _as_real(self.radius, "the circle radius", 0, above=True)

    def points(self, n: int) -> np.ndarray:
        # Half-step offset keeps nodes off symmetry axes where near-poles
        # of the integrands tend to sit.
        n = _as_int(n, "the node count n", 1)
        ang = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        return self.center + self.radius * np.exp(1j * ang)


_MAX_GRID = 1 << 20  # evaluate factor blocks in chunks beyond this many points
_MAX_LEVEL_POINTS = 1 << 26  # never contract a doubling level with more kept grid points


def _level_unaries(terms, contours: Sequence[Circle], n: int):
    """The unary pass of one level: every distinct unary (the same function
    object on the same axis) times its node weights, evaluated once on all n
    nodes of its axis.  A node where every term's unary on its axis is
    exactly 0 adds exactly 0 to every term and is dropped (NaN and inf count
    as nonzero, so they are kept and propagate).  Returns the kept nodes of
    each axis and {(j, fn): the vector on them}."""
    pts = [c.points(n) for c in contours]
    vecs = {}
    for unaries, _ in terms:
        for j, fn in enumerate(unaries):
            if (j, fn) not in vecs:
                vecs[j, fn] = np.asarray(fn(pts[j])) * (pts[j] - contours[j].center)
    kept = [np.flatnonzero(np.logical_or.reduce([v != 0 for (i, _), v in vecs.items() if i == j])) for j in range(len(pts))]
    return [p[k] for p, k in zip(pts, kept)], {(j, fn): v[kept[j]] for (j, fn), v in vecs.items()}


def _contract_level(terms, nodes, vecs, n: int) -> complex:
    # Each term is a tensor network: unary j is a vector on axis j, binary
    # (i, j) a matrix on axes i and j, all on the kept nodes of _level_unaries.
    # The kept rows of variable 0 go in blocks, so the binaries (0, j) are
    # evaluated per block and no block passes _MAX_GRID points; the other
    # binaries are evaluated once.  A binary shared by several terms (the same
    # function object on the same pair) is evaluated once per level, or once
    # per block for the pairs (0, j).  einsum contracts each block term by term
    # on a greedy path, planned once per subscript string.
    m = len(nodes)
    if not all(x.size for x in nodes):
        return 0j
    rows = max(1, _MAX_GRID // max((x.size for x in nodes[1:]), default=1))
    axis = [chr(ord("a") + j) for j in range(m)]

    def binary(memo, i, j, fn, x):
        # fn on (x, the kept nodes of j), evaluated once per memo
        if (i, j, fn) not in memo:
            memo[i, j, fn] = np.broadcast_to(fn(x[:, None], nodes[j][None, :]), (x.size, nodes[j].size))
        return memo[i, j, fn]

    level = {}
    plans = []
    for unaries, binaries in terms:
        edge0 = [(j, fn) for (i, j), fn in binaries.items() if i == 0]
        rest = [(i, j, fn) for (i, j), fn in binaries.items() if i > 0]
        spec = ",".join(
            ["a"] + ["a" + axis[j] for j, _ in edge0] + axis[1:] + [axis[i] + axis[j] for i, j, _ in rest]
        ) + "->"
        fixed = [vecs[j, unaries[j]] for j in range(1, m)]
        fixed += [binary(level, i, j, fn, nodes[i]) for i, j, fn in rest]
        plans.append((vecs[0, unaries[0]], edge0, fixed, spec))
    paths = {}
    total = 0.0 + 0.0j
    for start in range(0, nodes[0].size, rows):
        blk = slice(start, start + rows)
        v0 = nodes[0][blk]
        block = {}
        for unary0, edge0, fixed, spec in plans:
            ops = [unary0[blk]]
            ops += [binary(block, 0, j, fn, v0) for j, fn in edge0]
            ops += fixed
            if spec not in paths:
                paths[spec] = np.einsum_path(spec, *ops, optimize="greedy")[0]
            total += np.einsum(spec, *ops, optimize=paths[spec])
    return complex(total / float(n**m))


def contour_integral_factored(
    terms,
    contours: Sequence[Circle],
    nodes: int = 48,
    tol: float = 1e-9,
    node_cap: int = 1 << 14,
) -> complex:
    """Loop integral of a sum of factored terms, residue-normalized.

    Each term is a pair ``(unaries, binaries)``: ``unaries[j]`` maps the
    node array of contour j to the product of that term's univariate
    factors in v_j, and ``binaries[(i, j)]`` (i < j) maps broadcastable
    node arrays to the term's cross factor in (v_i, v_j).  Each level first
    evaluates every unary (times its node weights) once on all n nodes of
    its axis, and drops the nodes where every term's unary on that axis is
    exactly 0, as where an exponential factor underflows (NaN and inf are
    kept).  A dropped node adds 0 times a binary to every term, so binaries
    must be finite there; the level's estimate then changes only by
    summation order, and its normalization stays 1/n^m.  Each term is
    contracted on the kept nodes as a tensor network (``np.einsum`` on a
    greedy path) rather than multiplied out to the grid: the special
    functions run on O(n) vectors and kept x kept matrices only, and the
    binaries (0, j) are evaluated in row blocks of kept v_0 nodes, so no
    array of the contraction's factors exceeds ``_MAX_GRID`` (2^20) points.
    A unary or binary that several terms share (the same function object on
    the same axis or pair) is evaluated once per level, or once per row
    block for the pairs (0, j).

    The result carries the (2*pi*i)^-1 normalization per variable, i.e. it
    equals the residue-sum value of the m-fold loop integral.  Nodes are
    doubled (all variables simultaneously) until two successive estimates
    agree within ``tol`` relative to max(1, |estimate|), starting from
    ``nodes`` per circle.  A level beyond ``node_cap`` nodes per variable
    is never evaluated, and one whose kept nodes make more than
    ``_MAX_LEVEL_POINTS`` grid points in all is refused after its unary
    pass, before any binary runs: :class:`ConvergenceError` is raised
    instead, with the last two estimates attached.  Malformed terms, a
    ``tol`` that is not finite and > 0, a non-integral ``nodes`` or one
    below 16, and ``node_cap < nodes`` raise InvalidParameterError before
    any evaluation.
    """
    m = len(contours)
    for unaries, binaries in terms:
        if len(unaries) != m or not all(isinstance(k, tuple) and len(k) == 2 and 0 <= k[0] < k[1] < m for k in binaries):
            raise InvalidParameterError(f"a factored term needs {m} unaries and binary keys (i, j), 0 <= i < j < {m}")
    tol = _as_real(tol, "the tolerance", 0, above=True)
    n = _as_int(nodes, "the node count", 16)
    node_cap = _as_int(node_cap, "node_cap", n)
    older = prev = None

    def refuse(cap: str):
        return ConvergenceError(
            f"contour quadrature did not converge: the next level, {n} nodes/variable in {m} variables, passes {cap}",
            estimates=(older, prev),
        )

    while True:
        if n > node_cap:
            raise refuse(f"the cap of {node_cap} nodes/variable")
        kept, vecs = _level_unaries(terms, contours, n)
        points = math.prod(x.size for x in kept)
        if points > _MAX_LEVEL_POINTS:
            raise refuse(f"the cap of {_MAX_LEVEL_POINTS} grid points with {points} kept")
        cur = _contract_level(terms, kept, vecs, n)
        if prev is not None and abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        older, prev = prev, cur
        n *= 2
