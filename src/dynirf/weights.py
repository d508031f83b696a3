"""Plaquette weight families: plain, stochastic, hat-ratios, degenerations.

A plaquette is classified by how the up-right paths move through its
central vertex.  With k paths entering from below:

* A: k paths pass straight up, no horizontal arrows (weight a_k),
* B: one path enters from the left and turns up, k -> k+1 (weight b_k),
* C: one of k >= 1 paths turns right and exits, k -> k-1 (weight c_k),
* D: a path crosses horizontally, vertical occupation stays k (weight d_k).

``weight(..., stochastic=False)`` evaluates the coefficients of the
operators acting in the evaluation Verma module; ``stochastic=True``
evaluates the renormalized family whose two completions of a partially
fixed plaquette sum to one:

    a_k + c_k = 1  and  b_k + d_k = 1   (stochastic family).

These sum rules are exact identities of sin (and survive the rational
limit verbatim).  In elliptic mode they hold only up to corrections of
order exp(-2*pi*Im(tau)): the quantity a_k + c_k - 1 is a combination of
theta functions with mismatched quasi-periods that vanishes identically
only in the trigonometric limit.  The test suite pins this scaling down
numerically; callers who need exact stochasticity must use the
trigonometric or rational mode.

The hat-ratios a^stoch/a etc. are spectral-parameter independent and are
exposed separately; the four degenerations (higher-spin six vertex,
dynamic six vertex, rational spin-1/2 table) get their own entry points
with the parametrizations used in their own variable systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import FunctionMode, InvalidParameterError

__all__ = [
    "PLAQUETTE_KINDS",
    "WeightContext",
    "SingularParameterError",
    "weight",
    "plaquette_weights",
    "hat_ratio",
    "hs6v_weight",
    "dyn6v_weight",
    "rational_weight",
    "spin_half_weights",
    "DYN6V_SYMBOLS",
]

PLAQUETTE_KINDS = ("A", "B", "C", "D")

DYN6V_SYMBOLS = ("empty", "vertical", "turn_up", "turn_right", "horizontal", "crossing")


class SingularParameterError(ArithmeticError):
    """A weight denominator vanished (relative to the numerator scale)."""


@dataclass(frozen=True)
class WeightContext:
    """Everything a single plaquette weight depends on.

    ``lam`` is the filling of the top-left unit square of the plaquette;
    ``w`` the row spectral parameter; ``z``/``Lambda`` the column data.
    """

    lam: complex
    w: complex
    z: complex
    Lambda: complex
    eta: complex
    mode: FunctionMode


_SINGULAR_REL = 1e-13


def _ratio(f, num_args, den_args, label: str, check: bool):
    num = 1.0 + 0.0j
    for a in num_args:
        num = num * f(a)
    den = 1.0 + 0.0j
    for a in den_args:
        den = den * f(a)
    if check:
        scale = max(abs(num), 1e-290)
        if abs(den) < _SINGULAR_REL * scale:
            raise SingularParameterError(
                f"vanishing denominator in {label}: |den|={abs(den):.3e} vs scale {scale:.3e}"
            )
    return num / den


def _check_kind(kind: str, k: int) -> None:
    if kind not in PLAQUETTE_KINDS:
        raise InvalidParameterError(f"unknown plaquette kind {kind!r}")
    if kind == "C" and k < 1:
        raise InvalidParameterError("kind C needs k >= 1 (a path must turn right)")
    if k < 0:
        raise InvalidParameterError("occupation k must be nonnegative")


def _is_scalar(lam) -> bool:
    return np.isscalar(lam) or np.asarray(lam).shape == ()


def weight(kind: str, k: int, ctx: WeightContext, stochastic: bool = False):
    """Evaluate one plaquette weight; ``k`` is the incoming vertical count."""
    _check_kind(kind, k)
    return _weight(kind, k, ctx.lam, ctx.z - ctx.w, ctx.Lambda, ctx.eta, ctx.mode.f, _is_scalar(ctx.lam), stochastic)


def _weight(kind: str, k: int, lam, zw, L, eta, f, check: bool, stochastic: bool):
    # the formulas of ``weight`` on zw = z - w and an f supplied by the caller,
    # so that a row callback builds no WeightContext per plaquette
    if stochastic:
        if kind == "A":
            return _ratio(
                f,
                (zw + (L + 1 - 2 * k) * eta, -lam + 2 * (L + 1 - k) * eta),
                (zw + (L + 1) * eta, -lam + 2 * (L + 1 - 2 * k) * eta),
                "a_stoch",
                check,
            )
        if kind == "B":
            return _ratio(
                f,
                (-lam + zw + (L - 1 - 2 * k) * eta, 2 * (k - L) * eta),
                (zw + (L + 1) * eta, lam - 2 * (L - 1 - 2 * k) * eta),
                "b_stoch",
                check,
            )
        if kind == "C":
            return _ratio(
                f,
                (-lam - zw + (L + 1 - 2 * k) * eta, 2 * k * eta),
                (zw + (L + 1) * eta, -lam + 2 * (L + 1 - 2 * k) * eta),
                "c_stoch",
                check,
            )
        return _ratio(
            f,
            (zw + (-L + 1 + 2 * k) * eta, lam + 2 * (k + 1) * eta),
            (zw + (L + 1) * eta, lam - 2 * (L - 1 - 2 * k) * eta),
            "d_stoch",
            check,
        )
    if kind == "A":
        return _ratio(
            f,
            (zw + (L + 1 - 2 * k) * eta, lam + 2 * k * eta),
            (zw + (L + 1) * eta, lam),
            "a",
            check,
        )
    if kind == "B":
        return -_ratio(
            f,
            (-lam + zw + (L - 1 - 2 * k) * eta, 2 * eta),
            (zw + (L + 1) * eta, lam),
            "b",
            check,
        )
    if kind == "C":
        return -_ratio(
            f,
            (-lam - zw + (L + 1 - 2 * k) * eta, 2 * (L + 1 - k) * eta, 2 * k * eta),
            (zw + (L + 1) * eta, lam, 2 * eta),
            "c",
            check,
        )
    return _ratio(
        f,
        (zw + (-L + 1 + 2 * k) * eta, lam - 2 * (L - k) * eta),
        (zw + (L + 1) * eta, lam),
        "d",
        check,
    )


def plaquette_weights(params, w: complex, stochastic: bool = False):
    """Memoized weight callback ``fn(kind, m, x, lam_x)`` of one row with parameter ``w``.

    Column x supplies z and Lambda.  The memo, keyed on the exact arguments,
    lives as long as the callback.  An error is raised on every call, never
    stored.
    """
    memo: dict = {}
    f = params.mode.f

    def fn(kind, m, x, lam_x):
        key = (kind, m, x, lam_x)
        val = memo.get(key)
        if val is None:
            _check_kind(kind, m)
            val = memo[key] = _weight(kind, m, lam_x, params.z(x) - w, params.lam(x), params.eta, f, _is_scalar(lam_x), stochastic)
        return val

    return fn


def hat_ratio(kind: str, k: int, lam: complex, Lambda: complex, eta: complex, mode: FunctionMode):
    """w-independent ratio (stochastic weight)/(plain weight) for one kind."""
    if kind not in PLAQUETTE_KINDS:
        raise InvalidParameterError(f"unknown plaquette kind {kind!r}")
    if kind == "C" and k < 1:
        raise InvalidParameterError("kind C needs k >= 1")
    L, f = Lambda, mode.f
    check = _is_scalar(lam)
    if kind == "A":
        return _ratio(
            f,
            (lam, lam - 2 * (L + 1 - k) * eta),
            (lam - 2 * (L + 1 - 2 * k) * eta, lam + 2 * k * eta),
            "a_hat",
            check,
        )
    if kind == "B":
        return _ratio(
            f,
            (lam, 2 * (L - k) * eta),
            (lam - 2 * (L - 1 - 2 * k) * eta, 2 * eta),
            "b_hat",
            check,
        )
    if kind == "C":
        return _ratio(
            f,
            (lam, 2 * eta),
            (lam - 2 * (L + 1 - 2 * k) * eta, 2 * (L + 1 - k) * eta),
            "c_hat",
            check,
        )
    return _ratio(
        f,
        (lam, lam + 2 * (k + 1) * eta),
        (lam - 2 * (L - 1 - 2 * k) * eta, lam - 2 * (L - k) * eta),
        "d_hat",
        check,
    )


def hs6v_weight(table: str, i1: int, j1: int, i2: int, j2: int, q, s, xi, u):
    """Higher-spin six-vertex weights, plain (``"plain"``) or stochastic L.

    The occupation pattern must be one of (k,0;k,0), (k,1;k+1,0),
    (k,0;k-1,1), (k,1;k,1); anything else is rejected.
    """
    if table not in ("plain", "stochastic"):
        raise InvalidParameterError(f"unknown hs6v table {table!r}")
    if j1 not in (0, 1) or j2 not in (0, 1) or min(i1, i2) < 0 or i1 + j1 != i2 + j2:
        raise InvalidParameterError(
            f"illegal occupation pattern ({i1},{j1};{i2},{j2})"
        )
    k = i1
    den = 1 - s * xi * u
    if abs(den) < 1e-280:
        raise SingularParameterError("hs6v denominator 1 - s*xi*u vanished")
    if table == "plain":
        if (j1, j2) == (0, 0):
            return (1 - s * q**k * xi * u) / den
        if (j1, j2) == (1, 0):
            return (1 - q ** (k + 1)) / den
        if (j1, j2) == (0, 1):
            return (1 - s**2 * q ** (k - 1)) * xi * u / den
        return (xi * u - s * q**k) / den
    if (j1, j2) == (0, 0):
        return (1 - s * q**k * xi * u) / den
    if (j1, j2) == (1, 0):
        return (1 - s**2 * q**k) / den
    if (j1, j2) == (0, 1):
        return (-s * xi * u + s * q**k * xi * u) / den
    return (-s * xi * u + s**2 * q**k) / den


def dyn6v_weight(symbol: str, lam, q, xi, u):
    """Dynamic stochastic six-vertex weight in (q, xi*u, exp(2*pi*i*lam)) form.

    ``lam`` is the filling of the plaquette's top-left unit square; q**0.5
    is taken on the principal branch, which matches exp(-2*pi*i*eta) for
    the positive-real q used by the samplers.
    """
    if symbol not in DYN6V_SYMBOLS:
        raise InvalidParameterError(f"unknown dyn6v symbol {symbol!r}")
    if symbol in ("empty", "crossing"):
        return 1.0 + 0.0j
    a = np.exp(2j * np.pi * np.asarray(lam))
    rq = np.sqrt(complex(q))
    v = xi * u
    den1 = 1 - v / rq
    den2 = 1 - a
    scalar = np.isscalar(lam)
    if scalar and (abs(den1) < 1e-280 or abs(den2) < 1e-280):
        raise SingularParameterError("dyn6v weight denominator vanished")
    if symbol == "vertical":
        out = (1 - rq * v) / den1 * (1 / q - a) / den2
    elif symbol == "turn_up":
        out = (1 - 1 / q) / den1 * (rq * v - a) / den2
    elif symbol == "turn_right":
        out = (rq - 1 / rq) * v / den1 * (1 / (rq * v) - a) / den2
    else:  # horizontal
        out = (1 / q - v / rq) / den1 * (q - a) / den2
    return complex(out) if scalar else out


def rational_weight(symbol: str, lam, z, w):
    """Spin-1/2 weights of the rational limit (f(x) = x, 2*eta = 1)."""
    if symbol not in DYN6V_SYMBOLS:
        raise InvalidParameterError(f"unknown rational symbol {symbol!r}")
    if symbol in ("empty", "crossing"):
        return 1.0
    den = lam * (z - w + 1)
    scalar = np.isscalar(lam)
    if scalar and abs(den) < 1e-280:
        raise SingularParameterError("rational weight denominator vanished")
    if symbol == "vertical":
        return (lam - 1) * (z - w) / den
    if symbol == "turn_up":
        return (lam - z + w) / den
    if symbol == "turn_right":
        return (lam + z - w) / den
    return (lam + 1) * (z - w) / den


def spin_half_weights(lam, w, z, Lambda, eta, mode):
    """The six stochastic spin-1/2 weights (a0, a1, b0, c1, d0, d1).

    Vectorized over ``lam``; used by the quadrant sampler and by preset
    positivity validation.
    """
    mk = lambda kind, k: weight(kind, k, WeightContext(lam, w, z, Lambda, eta, mode), stochastic=True)
    one = np.ones_like(np.asarray(lam, dtype=complex)) if not np.isscalar(lam) else 1.0 + 0j
    return (one, mk("A", 1), mk("B", 0), mk("C", 1), mk("D", 0), one * mk("D", 1))
