"""Complex special functions and the circle-contour quadrature engine.

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
are pure; the only state is a bounded cache of theta series tables, one
per (tau, truncation index).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FunctionMode",
    "Circle",
    "ConvergenceError",
    "InvalidParameterError",
    "theta",
    "theta_deriv",
    "f_eval",
    "f_deriv0",
    "contour_integral",
]


class InvalidParameterError(ValueError):
    """A parameter violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """Quadrature failed to converge within the node or grid cap.

    Carries the last two estimates so the caller can inspect how far the
    doubling sequence got.
    """

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


@dataclass(frozen=True)
class FunctionMode:
    """Which realization of f is in effect; elliptic mode carries tau."""

    kind: str  # "elliptic" | "trigonometric" | "rational"
    tau: complex | None = None

    def __post_init__(self):
        if self.kind not in ("elliptic", "trigonometric", "rational"):
            raise InvalidParameterError(f"unknown mode kind {self.kind!r}")
        if self.kind == "elliptic":
            if self.tau is None or complex(self.tau).imag <= 0:
                raise InvalidParameterError("elliptic mode needs Im(tau) > 0")
        elif self.tau is not None:
            raise InvalidParameterError(f"{self.kind} mode takes no tau")

    @classmethod
    def elliptic(cls, tau: complex) -> "FunctionMode":
        return cls("elliptic", complex(tau))

    @classmethod
    def trigonometric(cls) -> "FunctionMode":
        return cls("trigonometric")

    @classmethod
    def rational(cls) -> "FunctionMode":
        return cls("rational")


TRIG = FunctionMode.trigonometric()
RATIONAL = FunctionMode.rational()


def _theta_index_cutoff(max_abs_im_z: float, im_tau: float, tol: float) -> int:
    # |term_j| = exp(-pi*im_tau*(j+1/2)^2 - 2*pi*(j+1/2)*im_z); the tail past
    # |j+1/2| > J is dominated by a geometric series with ratio < 1/2 once
    # pi*im_tau*(2J) - 2*pi*|im_z| > ln 2, so bounding the first discarded
    # term by tol/2 bounds the whole tail by tol.
    shift = max_abs_im_z / im_tau
    j = shift + math.sqrt(max(0.0, shift * shift + math.log(1.0 / tol) / (math.pi * im_tau)))
    return int(math.ceil(j)) + 3


@functools.lru_cache(maxsize=256)
def _theta_table(tau: complex, cap: int) -> tuple:
    # (k_j, a_j) = (2*pi*i*(j+1/2), i*pi*tau*(j+1/2)^2) for j in [-cap, cap),
    # so term j of the series at z is exp(a_j + k_j*(z+1/2)).  Keeping the
    # exponent a_j rather than exp(a_j) avoids an underflowed coefficient
    # times an overflowed exp(k_j*(z+1/2)) when |Im z| is large.
    half = [j + 0.5 for j in range(-cap, cap)]
    return tuple(2j * math.pi * h for h in half), tuple(1j * math.pi * tau * h * h for h in half)


def _theta_series(z, tau, tol: float, order: int):
    # -sum_j k_j^order exp(a_j + k_j*(z+1/2)): theta for order 0, its z
    # derivative for order 1 (two extra terms cover the factor k_j).
    tau = complex(tau)
    if tau.imag <= 0:
        raise InvalidParameterError(f"theta needs Im(tau) > 0, got tau={tau}")
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if isinstance(z, (int, float, complex)):
        # scalar fast path: pure cmath over the cached table, no numpy
        w = z + 0.5
        ks, exps = _theta_table(tau, _theta_index_cutoff(abs(w.imag), tau.imag, tol) + 2 * order)
        exp = cmath.exp
        total = 0j
        if order:
            for k, a in zip(ks, exps):
                total += k * exp(a + k * w)
        else:
            for k, a in zip(ks, exps):
                total += exp(a + k * w)
        return -total
    zarr = np.asarray(z, dtype=complex)
    max_im = float(np.max(np.abs(zarr.imag))) if zarr.size else 0.0
    ks, exps = _theta_table(tau, _theta_index_cutoff(max_im, tau.imag, tol) + 2 * order)
    k = np.asarray(ks)[:, None]
    terms = np.exp(np.asarray(exps)[:, None] + k * (zarr.reshape(-1) + 0.5))
    if order:
        terms *= k
    out = -np.sum(terms, axis=0).reshape(zarr.shape)
    return complex(out) if zarr.shape == () else out


def theta(z, tau: complex, tol: float = 1e-14):
    """Odd theta series -sum_j exp(pi*i*(j+1/2)^2*tau + 2*pi*i*(j+1/2)*(z+1/2)).

    The sum is truncated over the symmetric index range |j+1/2| <= J with J
    chosen so the discarded tail is below ``tol`` in absolute value.
    Accepts scalar or ndarray ``z``; ``tau`` must have positive imaginary
    part.  Scalars are summed with ``cmath`` over a table cached per
    (tau, J); arrays use the same table with numpy.
    """
    return _theta_series(z, tau, tol, 0)


def theta_deriv(z, tau: complex, tol: float = 1e-14):
    """d/dz of ``theta`` via the termwise-differentiated series."""
    return _theta_series(z, tau, tol, 1)


def f_eval(mode: FunctionMode, z):
    """Evaluate f(z) in the given mode (elliptic theta, sin(pi z), or z)."""
    if mode.kind == "trigonometric":
        if isinstance(z, (int, float, complex)):
            return cmath.sin(math.pi * z)  # scalar fast path; hot in the row DPs
        return np.sin(np.pi * z)
    if mode.kind == "rational":
        return complex(z) if isinstance(z, (int, float, complex)) else np.asarray(z, dtype=complex)
    return theta(z, mode.tau)


def f_deriv0(mode: FunctionMode) -> complex:
    """f'(0): pi in trigonometric mode, theta'(0, tau) in elliptic, 1 rational."""
    if mode.kind == "trigonometric":
        return math.pi
    if mode.kind == "rational":
        return 1.0
    return complex(theta_deriv(0.0, mode.tau))


@dataclass(frozen=True)
class Circle:
    """Positively oriented circle |v - center| = radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise InvalidParameterError("circle radius must be positive")

    def points(self, n: int) -> np.ndarray:
        # Half-step offset keeps nodes off symmetry axes where near-poles
        # of the integrands tend to sit.
        ang = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        return self.center + self.radius * np.exp(1j * ang)

    def contains(self, point: complex, margin: float = 0.0) -> bool:
        return abs(point - self.center) < self.radius - margin


_MAX_GRID = 1 << 22  # evaluate grids and factor blocks in chunks beyond this many points
_MAX_LEVEL_POINTS = 1 << 26  # never evaluate a doubling level with a larger n**m grid


def _grid_value(integrand: Callable, contours: Sequence[Circle], n: int) -> complex:
    m = len(contours)
    pts = [c.points(n) for c in contours]
    if m == 1:
        vals = np.asarray(integrand([pts[0]]))
        return complex(np.mean(vals * (pts[0] - contours[0].center)))
    # tensor grid, chunked along the first variable to bound memory
    chunk = max(1, _MAX_GRID // (n ** (m - 1)))
    total = 0.0 + 0.0j
    mesh_rest = np.meshgrid(*pts[1:], indexing="ij")
    weight_rest = np.ones_like(mesh_rest[0])
    for arr, c in zip(mesh_rest, contours[1:]):
        weight_rest = weight_rest * (arr - c.center)
    flat_rest = [arr.ravel() for arr in mesh_rest]
    wflat = weight_rest.ravel()
    for start in range(0, n, chunk):
        v0 = pts[0][start : start + chunk]
        args = [np.repeat(v0, wflat.size)]
        args += [np.tile(fr, v0.size) for fr in flat_rest]
        vals = np.asarray(integrand(args))
        w0 = np.repeat(v0 - contours[0].center, wflat.size)
        total += np.sum(vals * w0 * np.tile(wflat, v0.size))
    return complex(total / float(n**m))


def _factored_grid_value(terms, contours: Sequence[Circle], n: int) -> complex:
    # Each term is a tensor network: unary j (times its node weights) is a
    # vector on axis j, binary (i, j) a matrix on axes i and j.  The rows of
    # variable 0 go in blocks of _MAX_GRID // n, so unary 0 and the binaries
    # (0, j) are evaluated per block and never as a whole n x n matrix; the
    # other factors are evaluated once.  einsum contracts each block on a
    # greedy path, planned once per distinct subscript string.
    m = len(contours)
    pts = [c.points(n) for c in contours]
    weights = [pts[j] - contours[j].center for j in range(m)]
    rows = max(1, _MAX_GRID // n)
    axis = [chr(ord("a") + j) for j in range(m)]
    paths = {}
    total = 0.0 + 0.0j
    for unaries, binaries in terms:
        edge0 = [(j, fn) for (i, j), fn in binaries.items() if i == 0]
        rest = [(i, j, fn) for (i, j), fn in binaries.items() if i > 0]
        spec = ",".join(
            ["a"] + ["a" + axis[j] for j, _ in edge0] + axis[1:] + [axis[i] + axis[j] for i, j, _ in rest]
        ) + "->"
        fixed = [np.asarray(unaries[j](pts[j])) * weights[j] for j in range(1, m)]
        fixed += [np.broadcast_to(fn(pts[i][:, None], pts[j][None, :]), (n, n)) for i, j, fn in rest]
        for start in range(0, n, rows):
            blk = slice(start, start + rows)
            v0 = pts[0][blk]
            ops = [np.asarray(unaries[0](v0)) * weights[0][blk]]
            ops += [np.broadcast_to(fn(v0[:, None], pts[j][None, :]), (v0.size, n)) for j, fn in edge0]
            ops += fixed
            if spec not in paths:
                paths[spec] = np.einsum_path(spec, *ops, optimize="greedy")[0]
            total += np.einsum(spec, *ops, optimize=paths[spec])
    return complex(total / float(n**m))


def _node_doubling(level_value: Callable, m: int, nodes: int, tol: float, node_cap: int) -> complex:
    # Shared doubling loop: stop when two successive levels agree within tol
    # relative to max(1, |estimate|); raise before evaluating a level beyond
    # the per-variable node cap (past the first) or the n**m grid cap.
    if nodes < 16:
        raise InvalidParameterError("need at least 16 quadrature nodes")
    n = int(nodes)
    older = prev = None
    while True:
        if (prev is not None and n > node_cap) or n**m > _MAX_LEVEL_POINTS:
            raise ConvergenceError(
                f"contour quadrature did not converge: the next level, {n} nodes/variable in {m} "
                f"variables, passes the cap of {node_cap} nodes/variable or {_MAX_LEVEL_POINTS} grid points",
                estimates=(older, prev),
            )
        cur = level_value(n)
        if prev is not None and abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        older, prev = prev, cur
        n *= 2


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
    node arrays to the term's cross factor in (v_i, v_j).  Each term is
    contracted as a tensor network (``np.einsum`` on a greedy path) rather
    than multiplied out to the n^m grid: the special functions run on
    O(n) vectors and n x n matrices only, and the factors in v_0 are
    evaluated in row blocks of ``_MAX_GRID // n`` nodes, so no array of
    the contraction's factors exceeds ``_MAX_GRID`` points.

    Same node-doubling policy as :func:`contour_integral`.
    """
    return _node_doubling(
        lambda n: _factored_grid_value(terms, contours, n), len(contours), nodes, tol, node_cap
    )


def contour_integral(
    integrand: Callable,
    contours: Sequence[Circle],
    nodes: int = 32,
    tol: float = 1e-10,
    node_cap: int = 1 << 14,
) -> complex:
    """Iterated trapezoidal quadrature of an analytic integrand over circles.

    ``integrand`` receives a list of m equal-length complex arrays (one per
    contour) and must return the integrand values elementwise.  The result
    carries the (2*pi*i)^-1 normalization per variable, i.e. it equals the
    residue-sum value of the m-fold loop integral.

    Nodes are doubled (all variables simultaneously) until two successive
    estimates agree within ``tol`` relative to max(1, |estimate|), starting
    from ``nodes`` per circle.  A level beyond ``node_cap`` per variable, or
    with more than ``_MAX_LEVEL_POINTS`` tensor-grid points in all, is never
    evaluated: :class:`ConvergenceError` is raised instead, with the last
    two estimates attached.
    """
    return _node_doubling(
        lambda n: _grid_value(integrand, contours, n), len(contours), nodes, tol, node_cap
    )
