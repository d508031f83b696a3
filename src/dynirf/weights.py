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
limit verbatim).  In elliptic mode they fail, by far more than
exp(-2*pi*Im tau) where eta and the fillings are imaginary: on
dyn6v-positive at tau = i*T the worst of |a_1 + c_1 - 1| and
|b_0 + d_0 - 1| (filling shifts -24..24, x, y <= 5) is 0.152, 0.023,
5.7e-5 and 3.7e-13 at T = 1, 2, 3, 6.  Each rule reads f(a)f(b) + f(c)f(d)
= f(e)f(g); the products theta_1(x)theta_1(S - x) of one sum S span a
two-dimensional space, so such a theta relation needs a + b = c + d =
e + g (argument-sum criterion), and has theta-ratio coefficients even
then.  In the b/d pair the d term and the right side sum to z - w + lam +
(4k + 3 - Lambda)*eta, the b term to z - w - lam - (Lambda + 1)*eta.  The
samplers refuse weights that miss one by more than 1e-9; callers who need
exact stochasticity must use the trigonometric or rational mode.

The hat-ratios a^stoch/a etc. are spectral-parameter independent and are
exposed separately; the three degenerations (the stochastic higher-spin
six-vertex L-table, the dynamic stochastic six-vertex table and the
rational spin-1/2 table) get their own entry points with the
parametrizations used in their own variable systems.  The last two are
verified against ``weight(..., stochastic=True)`` at Lambda = 1 by
``identities.check_degenerate_weights``, the reports dyn6v-weights-50draws
and rational-weights-50draws of ``dynirf verify --suite weights``.
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


def _ratio(f, num_args, den_args, label: str):
    """prod f(num_args) / prod f(den_args); a complex scalar denominator (numpy's pass) below
    1e-13 of the numerator raises SingularParameterError, one over an array goes unchecked."""
    num = 1.0 + 0.0j
    for a in num_args:
        num = num * f(a)
    den = 1.0 + 0.0j
    for a in den_args:
        den = den * f(a)
    if isinstance(den, complex):
        scale = max(abs(num), 1e-290)
        if abs(den) < _SINGULAR_REL * scale:
            raise SingularParameterError(
                f"vanishing denominator in {label}: |den|={abs(den):.3e} vs scale {scale:.3e}"
            )
    return num / den


def _not_probability(p) -> np.ndarray:
    """True where an array's entry is no probability: NaN, inf, |imag| > 1e-9 or real outside [-1e-9, 1 + 1e-9]."""
    return ~((np.abs(p.imag) <= 1e-9) & (p.real >= -1e-9) & (p.real <= 1 + 1e-9))


def _check_kind(kind: str, k: int) -> None:
    if kind not in PLAQUETTE_KINDS:
        raise InvalidParameterError(f"unknown plaquette kind {kind!r}")
    if kind == "C" and k < 1:
        raise InvalidParameterError("kind C needs k >= 1 (a path must turn right)")
    if k < 0:
        raise InvalidParameterError("occupation k must be nonnegative")


def weight(kind: str, k: int, ctx: WeightContext, stochastic: bool = False):
    """Evaluate one plaquette weight; ``k`` is the incoming vertical count."""
    _check_kind(kind, k)
    return _weight(kind, k, ctx.lam, ctx.z - ctx.w, ctx.Lambda, ctx.eta, ctx.mode.f, stochastic)


def _weight(kind: str, k: int, lam, zw, L, eta, f, stochastic: bool):
    # the formulas of ``weight`` on zw = z - w and an f supplied by the caller,
    # so that a row callback builds no WeightContext per plaquette
    if stochastic:
        if kind == "A":
            return _ratio(
                f,
                (zw + (L + 1 - 2 * k) * eta, -lam + 2 * (L + 1 - k) * eta),
                (zw + (L + 1) * eta, -lam + 2 * (L + 1 - 2 * k) * eta),
                "a_stoch",
            )
        if kind == "B":
            return _ratio(
                f,
                (-lam + zw + (L - 1 - 2 * k) * eta, 2 * (k - L) * eta),
                (zw + (L + 1) * eta, lam - 2 * (L - 1 - 2 * k) * eta),
                "b_stoch",
            )
        if kind == "C":
            return _ratio(
                f,
                (-lam - zw + (L + 1 - 2 * k) * eta, 2 * k * eta),
                (zw + (L + 1) * eta, -lam + 2 * (L + 1 - 2 * k) * eta),
                "c_stoch",
            )
        return _ratio(
            f,
            (zw + (-L + 1 + 2 * k) * eta, lam + 2 * (k + 1) * eta),
            (zw + (L + 1) * eta, lam - 2 * (L - 1 - 2 * k) * eta),
            "d_stoch",
        )
    if kind == "A":
        return _ratio(
            f,
            (zw + (L + 1 - 2 * k) * eta, lam + 2 * k * eta),
            (zw + (L + 1) * eta, lam),
            "a",
        )
    if kind == "B":
        return -_ratio(
            f,
            (-lam + zw + (L - 1 - 2 * k) * eta, 2 * eta),
            (zw + (L + 1) * eta, lam),
            "b",
        )
    if kind == "C":
        return -_ratio(
            f,
            (-lam - zw + (L + 1 - 2 * k) * eta, 2 * (L + 1 - k) * eta, 2 * k * eta),
            (zw + (L + 1) * eta, lam, 2 * eta),
            "c",
        )
    return _ratio(
        f,
        (zw + (-L + 1 + 2 * k) * eta, lam - 2 * (L - k) * eta),
        (zw + (L + 1) * eta, lam),
        "d",
    )


def plaquette_weights(params, w: complex, stochastic: bool = False):
    """Memoized weight callback ``fn(kind, m, x, lam_x)`` of one row with parameter ``w``.

    Column x supplies z and Lambda.  The memo, keyed on the exact arguments,
    lives as long as the callback; a key is hashable, so ``lam_x`` is a
    scalar and every denominator is checked.  An error is raised on every
    call, never stored.
    """
    memo: dict = {}
    f = params.mode.f

    def fn(kind, m, x, lam_x):
        key = (kind, m, x, lam_x)
        val = memo.get(key)
        if val is None:
            _check_kind(kind, m)
            val = memo[key] = _weight(kind, m, lam_x, params.z(x) - w, params.lam(x), params.eta, f, stochastic)
        return val

    return fn


def hat_ratio(kind: str, k: int, lam: complex, Lambda: complex, eta: complex, mode: FunctionMode):
    """w-independent ratio (stochastic weight)/(plain weight) for one kind;
    ``kind`` and ``k`` are checked as in :func:`weight`."""
    _check_kind(kind, k)
    L, f = Lambda, mode.f
    if kind == "A":
        return _ratio(
            f,
            (lam, lam - 2 * (L + 1 - k) * eta),
            (lam - 2 * (L + 1 - 2 * k) * eta, lam + 2 * k * eta),
            "a_hat",
        )
    if kind == "B":
        return _ratio(
            f,
            (lam, 2 * (L - k) * eta),
            (lam - 2 * (L - 1 - 2 * k) * eta, 2 * eta),
            "b_hat",
        )
    if kind == "C":
        return _ratio(
            f,
            (lam, 2 * eta),
            (lam - 2 * (L + 1 - 2 * k) * eta, 2 * (L + 1 - k) * eta),
            "c_hat",
        )
    return _ratio(
        f,
        (lam, lam + 2 * (k + 1) * eta),
        (lam - 2 * (L - 1 - 2 * k) * eta, lam - 2 * (L - k) * eta),
        "d_hat",
    )


def hs6v_weight(i1: int, j1: int, i2: int, j2: int, q, s, xi, u):
    """Stochastic higher-spin six-vertex weight L(i1, j1; i2, j2).

    The occupation pattern must be one of (k,0;k,0), (k,1;k+1,0),
    (k,0;k-1,1), (k,1;k,1); anything else is rejected.
    """
    if j1 not in (0, 1) or j2 not in (0, 1) or min(i1, i2) < 0 or i1 + j1 != i2 + j2:
        raise InvalidParameterError(
            f"illegal occupation pattern ({i1},{j1};{i2},{j2})"
        )
    k = i1
    den = 1 - s * xi * u
    if abs(den) < 1e-280:
        raise SingularParameterError("hs6v denominator 1 - s*xi*u vanished")
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
    if abs(den1) < 1e-280 or abs(den2) < 1e-280:
        raise SingularParameterError("dyn6v weight denominator vanished")
    if symbol == "vertical":
        out = (1 - rq * v) / den1 * (1 / q - a) / den2
    elif symbol == "turn_up":
        out = (1 - 1 / q) / den1 * (rq * v - a) / den2
    elif symbol == "turn_right":
        out = (rq - 1 / rq) * v / den1 * (1 / (rq * v) - a) / den2
    else:  # horizontal
        out = (1 / q - v / rq) / den1 * (q - a) / den2
    return complex(out)


def rational_weight(symbol: str, lam, z, w):
    """Spin-1/2 weights of the rational limit (f(x) = x, 2*eta = 1)."""
    if symbol not in DYN6V_SYMBOLS:
        raise InvalidParameterError(f"unknown rational symbol {symbol!r}")
    if symbol in ("empty", "crossing"):
        return 1.0
    den = lam * (z - w + 1)
    if abs(den) < 1e-280:
        raise SingularParameterError("rational weight denominator vanished")
    if symbol == "vertical":
        return (lam - 1) * (z - w) / den
    if symbol == "turn_up":
        return (lam - z + w) / den
    if symbol == "turn_right":
        return (lam + z - w) / den
    return (lam + 1) * (z - w) / den


def _turn_table(lam, zw, L, eta, f, M: int):
    """The stochastic weights of a column's vertex over an array of fillings
    ``lam``, by the arrows entering it: (stay, turn), each of shape (2, M + 1,
    *lam.shape), indexed [c, m] by c = 0 or 1 arrows from the left and m =
    0..M from below.  ``turn`` is the weight that an arrow leaves right (c_m
    at c = 0, d_m at c = 1), ``stay`` that none does (a_m, b_m); an empty
    vertex stays empty, with weights 1 and 0.  One ``_weight`` call per
    kind and m, on the array, so no denominator is checked."""
    w = lambda kind, m: _weight(kind, m, lam, zw, L, eta, f, True)
    zero = np.zeros(np.shape(lam), dtype=complex)
    stay = np.array([[zero + 1] + [w("A", m) for m in range(1, M + 1)], [w("B", m) for m in range(M + 1)]])
    turn = np.array([[zero] + [w("C", m) for m in range(1, M + 1)], [w("D", m) for m in range(M + 1)]])
    return stay, turn
