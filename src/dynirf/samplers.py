"""Random and exact realizations: quadrant sampler, enumeration DP, exclusion processes.

Randomness is counter-based throughout: every variate is a pure hash of
(seed, site/vertex, event counter), so trajectories are reproducible
bit-for-bit regardless of scheduling, vectorization, or thread counts.
Trajectory i of a run seeded s uses ``trajectory_seed(s, i)``, a SplitMix64
hash of s and i as separate keys, so runs at different seeds share no
trajectories (counter-based streams in the style of Salmon et al., SC'11).
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .params import IrfParams
from .special import InvalidParameterError
from .symfunc import _row_sweep, _strip
from .weights import plaquette_weights, spin_half_weights

__all__ = [
    "PositivityError",
    "QuadrantState",
    "ExclusionState",
    "uniform_hash",
    "trajectory_seed",
    "sample_irf",
    "sample_irf_batch",
    "filling",
    "height",
    "enumerate_distribution",
    "enumerate_heights",
    "enumerate_heights_hs6v",
    "batch_heights",
    "step_exclusion_state",
    "simulate_exclusion",
    "exclusion_farm",
]

_MASK = 0xFFFF_FFFF_FFFF_FFFF
_K1, _K2, _K3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_C1, _C2, _C3, _S11, _S27, _S30, _S31 = (np.uint64(c) for c in (_K1, _K2, _K3, 11, 27, 30, 31))
_INT64 = range(-(1 << 63), 1 << 63)
_DRAW_KEYS = np.array([1, 2], dtype=np.uint64)  # the last key of a farm step's two draws
_MAX_WINDOW = 1 << 20  # sites; simulate_exclusion never grows its window past this
_SPAN3, _SPAN5 = np.arange(3), np.arange(5)


class PositivityError(InvalidParameterError):
    """A sampled weight left [0, 1] beyond tolerance: the parameters give no
    probabilities there."""


def _mix(x):
    """SplitMix64 on uint64 values, which wrap mod 2^64; a scalar ``x`` needs ``np.errstate(over="ignore")``."""
    x = x + _C1
    x = (x ^ (x >> _S30)) * _C2
    x = (x ^ (x >> _S27)) * _C3
    return x ^ (x >> _S31)


def _hash64(seed, *keys):
    """The uint64 hash of (seed, keys...): ``h = _mix(h ^ k)`` for each in turn; array-safe."""
    with np.errstate(over="ignore"):
        if isinstance(seed, (int, np.integer)):
            h = _mix(np.uint64(int(seed) & _MASK))
        else:
            h = _mix(np.asarray(seed, dtype=np.int64).view(np.uint64))
        for k in keys:
            h = _mix(h ^ np.asarray(k, dtype=np.int64).view(np.uint64))
    return h


def _unit(h):
    return (h >> _S11).astype(np.float64) * (2.0**-53)


def uniform_hash(seed, *keys):
    """Deterministic uniform in [0,1) keyed by (seed, keys...); array-safe.

    When ``seed`` and every key are plain ``int`` and each key fits in
    int64, SplitMix64 runs on Python ints; any other input (arrays, numpy
    scalars, bools) takes the numpy path.  Both return the same bits.
    """
    if type(seed) is int and all(type(k) is int and k in _INT64 for k in keys):
        return (_fold(0, seed, *keys) >> 11) * 2.0**-53
    out = _unit(_hash64(seed, *keys))
    return out if out.shape else float(out)


def _fold(h: int, *keys: int) -> int:
    """SplitMix64 on Python ints: ``h = _mix(h ^ k)`` for each key, as in _hash64."""
    for k in keys:
        h = ((h ^ k) + _K1) & _MASK
        h = ((h ^ (h >> 30)) * _K2) & _MASK
        h = ((h ^ (h >> 27)) * _K3) & _MASK
        h ^= h >> 31
    return h


def trajectory_seed(seed, index):
    """Seed of trajectory ``index`` in a run seeded ``seed``; array-safe.

    The 64-bit hash of (seed, index) as two separate keys, as a signed
    integer.  Unlike ``seed ^ index``, nearby seeds do not reuse each
    other's trajectories.
    """
    out = _hash64(seed, index).view(np.int64)
    return out if out.shape else int(out)


@dataclass
class QuadrantState:
    """Edge occupations of a finite quadrant window.

    ``vout[x, y]`` is the occupation of the vertical edge leaving vertex
    (x, y) upward (1 <= x <= X, 1 <= y <= Y); ``hout[x, y]`` the horizontal
    occupation leaving it rightward.  Boundary: one path enters each row
    from the left, none from below.
    """

    X: int
    Y: int
    vout: np.ndarray
    hout: np.ndarray
    params: IrfParams

    def v_in(self, x: int, y: int) -> int:
        return int(self.vout[x, y - 1]) if y >= 2 else 0

    def h_in(self, x: int, y: int) -> int:
        return int(self.hout[x - 1, y]) if x >= 2 else 1

    def validate(self) -> None:
        """Arrow conservation at every vertex, plus the finite-spin cap."""
        for x in range(1, self.X + 1):
            for y in range(1, self.Y + 1):
                if self.v_in(x, y) + self.h_in(x, y) != int(self.vout[x, y]) + int(self.hout[x, y]):
                    raise InvalidParameterError(f"conservation violated at vertex ({x},{y})")
        lam_int = self.params.lam(1)
        if abs(lam_int - round(lam_int.real)) < 1e-12:
            cap = int(round(lam_int.real))
            if self.vout.max() > cap:
                raise InvalidParameterError("finite-spin occupation cap violated")


def filling(state: QuadrantState, x: int, y: int, check: bool = False) -> complex:
    """Dynamic parameter of the unit square [x, x+1] x [y, y+1].

    Computed by walking right along row y from the left boundary value
    lambda_0 - 2*eta*y; with ``check`` also walks an up-then-right route
    and asserts path independence.
    """
    if not (0 <= x <= state.X and 0 <= y <= state.Y):
        raise InvalidParameterError("square outside the sampled window")
    p = state.params
    two_eta = 2 * p.eta
    val = p.lambda0 - two_eta * y
    for col in range(1, x + 1):
        vocc = int(state.vout[col, y]) if y >= 1 else 0
        val += 2 * two_eta * vocc - two_eta * p.lam(col)
    if check and y >= 1:
        alt = p.lambda0
        for col in range(1, x + 1):  # along the bottom, no vertical arrows
            alt -= two_eta * p.lam(col)
        for row in range(1, y + 1):  # climb at fixed x crossing h-edges
            h = state.h_in(x + 1, row) if x + 1 <= state.X else state.h_in(state.X, row)
            if x + 1 > state.X:
                raise InvalidParameterError("path-independence check needs x < X")
            alt += (1 - 2 * h) * two_eta
        if abs(alt - val) > 1e-12 * max(1.0, abs(val)):
            raise InvalidParameterError(f"filling not path-independent at ({x},{y})")
    return val


def height(state: QuadrantState, x: int, N: int) -> int:
    """Paths crossing the column-x line at height <= N."""
    if x < 1 or x > state.X or N < 0 or N > state.Y:
        raise InvalidParameterError("height outside the sampled window")
    return sum(state.h_in(x, y) for y in range(1, N + 1))


def sample_irf(params: IrfParams, X: int, Y: int, seed: int) -> QuadrantState:
    """Sweep the quadrant window in increasing x+y, tossing one Bernoulli
    variable per vertex with the stochastic plaquette biases.

    Works for any spin; weights must be probabilities (validated within
    1e-9 at every vertex).
    """
    from .weights import WeightContext, weight

    vout = np.zeros((X + 1, Y + 1), dtype=np.int64)
    hout = np.zeros((X + 1, Y + 1), dtype=np.int64)
    state = QuadrantState(X, Y, vout, hout, params)
    eps = 1e-9
    for s in range(2, X + Y + 1):
        for x in range(max(1, s - Y), min(X, s - 1) + 1):
            y = s - x
            i1, j1 = state.v_in(x, y), state.h_in(x, y)
            lam_v = filling(state, x - 1, y)
            ctx = WeightContext(lam_v, params.w(y), params.z(x), params.lam(x), params.eta, params.mode)
            if j1 == 0:
                # outcomes: straight (a) or turn right (c)
                p_turn = weight("C", i1, ctx, stochastic=True) if i1 >= 1 else 0.0
            else:
                # outcomes: absorb up (b) or pass through (d)
                p_turn = weight("D", i1, ctx, stochastic=True)
            p_val = complex(p_turn)
            # written so that a NaN weight fails too
            if not (abs(p_val.imag) <= eps and -eps <= p_val.real <= 1 + eps):
                raise PositivityError(f"weight {p_val} outside [0,1] at vertex ({x},{y})")
            u = uniform_hash(seed, x, y)
            turn = u < min(max(p_val.real, 0.0), 1.0)
            if j1 == 0:
                i2, j2 = (i1 - 1, 1) if turn else (i1, 0)
            else:
                i2, j2 = (i1, 1) if turn else (i1 + 1, 0)
            vout[x, y] = i2
            hout[x, y] = j2
    return state


def sample_irf_batch(params: IrfParams, X: int, Y: int, seed: int, n_traj: int) -> dict:
    """Vectorized spin-1/2 sampler: all trajectories sweep together.

    Returns {"vout": (n_traj, X+1, Y+1), "hout": ...} with the same
    per-trajectory values as ``sample_irf`` at ``trajectory_seed(seed, i)``
    (also returned, as "seeds").
    Requires Lambda = 1 columns (the positivity presets).

    A row's trajectories share few fillings: each carries an index into a
    table of the row's distinct fillings, which are weighed once per vertex.
    The table takes one entry per (filling, vertical occupation) pair present,
    by the same complex additions a per-trajectory filling would.  Every
    trajectory's turn probability is checked to lie in [0, 1].
    """
    if any(abs(l - 1.0) > 1e-12 for _, l in params.columns[1 : X + 1]):
        raise InvalidParameterError("batch sampler is spin-1/2 only")
    two_eta = 2 * params.eta
    vout = np.zeros((n_traj, X + 1, Y + 1), dtype=np.int64)
    hout = np.zeros((n_traj, X + 1, Y + 1), dtype=np.int64)
    seeds = trajectory_seed(seed, np.arange(n_traj, dtype=np.int64))
    eps = 1e-9
    for y in range(1, Y + 1):
        fill = np.array([params.lambda0 - two_eta * y], dtype=complex)  # the row's fillings; trajectory i's is fill[which[i]]
        which = np.zeros(n_traj, dtype=np.intp)
        carry = np.ones(n_traj, dtype=np.int64)  # path entering from the left
        for x in range(1, X + 1):
            i1 = vout[:, x, y - 1] if y >= 2 else np.zeros(n_traj, dtype=np.int64)
            _, _, _, c1, d0, d1 = spin_half_weights(fill, params.w(y), params.z(x), 1.0, params.eta, params.mode)
            # probability that a horizontal arrow exits right, by filling,
            # carry and occupied vertical edge: c at k=1 for a fresh turn, d0
            # for a pass-through, d1 = 1 when the vertical edge is occupied
            # (spin-1/2 forces the crossing)
            p_fill = np.stack([np.zeros_like(c1), c1, d0, d1], axis=1).ravel()
            p_turn = p_fill.take(4 * which + 2 * carry + (i1 >= 1))
            ok = (np.abs(p_turn.imag) <= eps) & (p_turn.real >= -eps) & (p_turn.real <= 1 + eps)
            if not ok.all():
                bad = p_turn[~ok][0]
                raise PositivityError(f"weight {bad} outside [0,1] at vertex ({x},{y})")
            u = uniform_hash(seeds, np.int64(x), np.int64(y))
            turn = u < np.clip(p_turn.real, 0.0, 1.0)
            j2 = turn.astype(np.int64)  # turn == a horizontal arrow exits right
            i2 = i1 + carry - j2
            vout[:, x, y] = i2
            hout[:, x, y] = j2
            # the next filling is fill[which] + 2 * two_eta * i2 - two_eta * lam(x)
            pair = which + fill.size * i2
            present = np.bincount(pair) > 0
            kept = np.flatnonzero(present)
            fill = fill[kept % fill.size] + 2 * two_eta * (kept // fill.size) - two_eta * params.lam(x)
            which = (np.cumsum(present) - 1)[pair]
            carry = j2
    return {"vout": vout, "hout": hout, "seeds": seeds}


def batch_heights(batch: dict, x: int, N: int) -> np.ndarray:
    """Heights h(x, N) for every trajectory of a batch sample."""
    hout = batch["hout"]
    if x == 1:
        return np.full(hout.shape[0], N, dtype=np.int64)
    return hout[:, x - 1, 1 : N + 1].sum(axis=1)


def enumerate_distribution(params: IrfParams, N: int, X: int, lam0: complex | None = None):
    """Exact law of the crossing signature at height N + 1/2, truncated at
    parts <= X; complex weights are fine.  Returns (dist, escaped_mass).

    The law is one stochastic ``symfunc._strip`` of the empty signature:
    row y (bottom first) carries (lam0 - 2*eta*y + 2*eta*Lambda_0, w_y).
    N outside 0..n_rows or X past the pack's columns raises
    InvalidParameterError.
    """
    if not 0 <= N <= params.n_rows:
        raise InvalidParameterError(f"need 0 <= N <= {params.n_rows} rows, got N = {N}")
    lam0 = params.lambda0 if lam0 is None else lam0
    ws = [params.w(y) for y in range(N, 0, -1)]
    dist = _strip((), lam0 - 2 * params.eta * (N - params.lam(0)), ws, params, "stoch", cap=X)
    return dist, 1.0 - sum(dist.values())


def enumerate_heights(params: IrfParams, N: int, xs, lam0: complex | None = None, row_weights=None):
    """Exact joint law of the heights h(x, N) for x in ``xs``.

    Unlike :func:`enumerate_distribution`, whose strip drops the paths that
    carry past its cap, there is no truncation error: heights at columns
    <= max(xs) only see vertices left of max(xs), and paths escaping beyond
    are absorbed with total weight one.  Works with complex weights.
    ``row_weights(y)`` gives row y's plaquette weight callback (kind, m, x,
    lam_x) (default: the stochastic IRF weights).  Each row is one
    ``symfunc._row_sweep`` of the whole law; as every path enters at
    column 1, h(x, N) = N at x <= 1.  Returns {heights: amplitude}.  An
    empty ``xs``, N outside 0..n_rows or a site past the pack's columns
    raises InvalidParameterError.
    """
    if not 0 <= N <= params.n_rows:
        raise InvalidParameterError(f"need 0 <= N <= {params.n_rows} rows, got N = {N}")
    if not len(xs):
        raise InvalidParameterError("need at least one site in xs")
    cap = max(xs)
    if cap >= params.n_cols:
        raise InvalidParameterError(f"sites reach column {cap}; the parameter pack has {params.n_cols} columns")
    lam0 = params.lambda0 if lam0 is None else lam0
    two_eta = 2 * params.eta
    if row_weights is None:
        row_weights = lambda y: plaquette_weights(params, params.w(y), True)
    # one stochastic row over columns 1..cap at a time; a path still carrying
    # past column cap is absorbed with weight exactly 1 (the remaining strip's
    # weights sum to one), and y - sum(occupations) of y paths are absorbed
    dist = {(0,) * cap: 1.0 + 0.0j}
    for y in range(1, N + 1):
        new: dict = {}
        for (top, _), amp in _row_sweep(params, dist, 1, lam0 - two_eta * y, row_weights(y)).items():
            new[top] = new.get(top, 0.0) + amp
        dist = new
    out: dict = {}
    for occ, amp in dist.items():
        hs = tuple(N - sum(occ[: max(xi - 1, 0)]) for xi in xs)
        out[hs] = out.get(hs, 0.0 + 0.0j) + amp
    return out


def enumerate_heights_hs6v(params: IrfParams, N: int, xs):
    """Same joint height law for the stochastic higher-spin six-vertex model.

    Uses the L-weights in the six-vertex variables matched to ``params``;
    an entirely lambda-free computation, which is what the dynamic model's
    averages are compared against in the lambda -> -i*infinity limit.
    """
    from .params import to_six_vertex
    from .weights import hs6v_weight

    sv = to_six_vertex(params)
    patt = {"A": (0, 0, 0, 0), "B": (0, 1, 1, 0), "C": (0, 0, -1, 1), "D": (0, 1, 0, 1)}

    def row_weights(y):
        @functools.cache  # the weights ignore lam_x: one evaluation per (kind, m, x) in each row
        def row(kind, m, x):
            di1, dj1, di2, dj2 = patt[kind]
            return hs6v_weight(
                "stochastic", m + di1, dj1, m + di2, dj2, sv.q, sv.s[x - 1], sv.xi[x - 1], sv.u[y - 1]
            )

        return lambda kind, m, x, lam_x: row(kind, m, x)

    return enumerate_heights(params, N, xs, lam0=0.0, row_weights=row_weights)


# ---------------------------------------------------------------------------
# Dynamic exclusion processes.
# ---------------------------------------------------------------------------


@dataclass
class ExclusionState:
    """Step-type height state s_x on a finite active window.

    ``s`` holds every site of [lo, hi]; outside it the state is frozen at
    s_x = |x|.  The window grows so that flips never come near its edges,
    which keeps the restriction exact rather than approximate.
    """

    kind: str  # "asep" | "ssep"
    rate_params: tuple
    lo: int
    hi: int
    s: dict
    t: float = 0.0
    events: list = field(default_factory=list)

    def value(self, x: int) -> int:
        return self.s.get(x, abs(x))

    def heights(self, xs) -> list:
        return [(self.value(x) - x) // 2 for x in xs]

    def particles(self) -> list:
        """Occupied half-integer sites x + 1/2 within the window."""
        return [x for x in range(self.lo, self.hi) if self.value(x + 1) - self.value(x) == -1]


_RATES = {"asep": ("(q, alpha) with q > 0, alpha >= 0 or q > 1, alpha > -1", 2), "ssep": ("(lambda_bar,) with lambda_bar > 0", 1)}


def _check_rates(kind: str, rate_params) -> tuple:
    """The rates of a dynamic exclusion process as a tuple: (q, alpha) for
    "asep", (lambda_bar,) for "ssep", in the ranges ``_RATES`` names.  Any
    other kind, shape or value raises InvalidParameterError."""
    if kind not in _RATES:
        raise InvalidParameterError(f"unknown exclusion kind {kind!r}")
    rule, size = _RATES[kind]
    rates = tuple(rate_params) if np.ndim(rate_params) == 1 else ()
    ok = len(rates) == size and all(isinstance(r, numbers.Real) for r in rates)
    if ok and kind == "asep":
        q, alpha = rates
        ok = (q > 0 and alpha >= 0) or (q > 1 and alpha > -1)
    elif ok:
        ok = rates[0] > 0
    if not ok:
        raise InvalidParameterError(f"{kind} rates are {rule}, got {rate_params!r}")
    return rates


def step_exclusion_state(kind: str, rate_params) -> ExclusionState:
    """The step state s_x = |x| on [-6, 6]; ``_check_rates`` checks the rates."""
    rates = _check_rates(kind, rate_params)
    lo, hi = -6, 6
    return ExclusionState(kind, rates, lo, hi, {x: abs(x) for x in range(lo, hi + 1)})


def _rate(kind: str, rate_params, s_x, delta):
    """Rate of the height flip s_x -> s_x + delta (delta = -2 down, +2 up); array-safe.

    With d = delta/2 the ASEP rate is q^((1-d)/2) (1 + alpha q^-s)/(1 + alpha q^(-s-d))
    and the SSEP rate (s + lambda_bar)/(s + d + lambda_bar).  No denominator
    vanishes where the flip can happen: up-rates are positive for admissible
    (q, alpha, lambda_bar), and a down-flip needs a local maximum, s_x >= 1
    (at s_x = 0, lambda_bar = 1 the down-rate's denominator would be 0).
    """
    d = delta // 2
    if kind == "asep":
        q, alpha = rate_params
        return q ** ((1 - d) / 2) * (1 + alpha * q ** (-s_x)) / (1 + alpha * q ** (-s_x - d))
    (lam_bar,) = rate_params
    return (s_x + lam_bar) / (s_x + d + lam_bar)


def _grow_window(state: ExclusionState) -> None:
    margin = state.hi - state.lo
    new_lo, new_hi = state.lo - margin // 2, state.hi + margin // 2
    for x in range(new_lo, state.lo):
        state.s[x] = abs(x)
    for x in range(state.hi + 1, new_hi + 1):
        state.s[x] = abs(x)
    state.lo, state.hi = new_lo, new_hi


def _check_horizon(T) -> float:
    T = float(T)
    if not (math.isfinite(T) and T >= 0):
        raise InvalidParameterError(f"time horizon T must be finite and >= 0, got {T!r}")
    return T


def simulate_exclusion(initial: ExclusionState, T: float, seed: int, record: bool = False) -> ExclusionState:
    """Event-driven next-reaction simulation up to time T.

    A binary heap holds tentative firing times; entries are invalidated by
    per-site version counters whenever a flip changes the site's (or a
    neighbor's) move.  Exponential clocks come from the counter-based
    uniforms keyed (seed, site, per-site draw counter), so the trajectory
    is reproducible independent of heap internals.  The seed is hashed once
    per trajectory, and with each site once.  Each (height, flip) rate is
    computed once per run; a rate that is not finite and > 0 raises
    InvalidParameterError.
    """
    T = _check_horizon(T)
    state = replace(initial, s=dict(initial.s), events=[])
    heights = state.s  # holds every site of the window
    sites: dict = {}  # x -> [version, draws, hash of (seed, x)]
    rates: dict = {}  # (s, delta) -> rate
    heap: list = []
    push, pop, log1p = heapq.heappush, heapq.heappop, math.log1p
    # uniform_hash(seed, x, n) is (_fold(h_seed, x, n) >> 11) * 2**-53
    h_seed = _fold(0, seed) if type(seed) is int else int(_hash64(seed))

    def schedule(x: int) -> None:
        site = sites.get(x)
        if site is None:
            site = sites[x] = [0, 0, _fold(h_seed, x)]
        site[0] += 1
        s, left = heights[x], heights[x - 1]
        if left != heights[x + 1] or abs(left - s) != 1:
            return  # no admissible flip at x
        delta = 2 * (left - s)  # local max flips down, local min flips up
        rate = rates.get((s, delta))
        if rate is None:
            rate = rates[s, delta] = _rate(state.kind, state.rate_params, s, delta)
            if not 0 < rate < math.inf:
                raise InvalidParameterError(f"nonpositive or singular {'down' if delta < 0 else 'up'}-rate at site {x}")
        site[1] += 1
        u = (_fold(site[2], site[1]) >> 11) * 2.0**-53
        push(heap, (state.t - log1p(-u) / rate, x, site[0], delta))

    for x in range(state.lo + 1, state.hi):
        schedule(x)

    while heap:
        t_fire, x, ver, delta = pop(heap)
        if sites[x][0] != ver:
            continue
        if t_fire > T:
            # the winning clock fires past the horizon: freeze here
            break
        state.t = t_fire
        heights[x] += delta
        if record:
            state.events.append((t_fire, x, heights[x]))
        if x - state.lo < 3 or state.hi - x < 3:
            # lo, hi never flip, and the window grows before lo + 1 or hi - 1
            # can, so x - 1 and x + 1 are inner sites
            if x - state.lo < 2 or state.hi - x < 2:
                raise InvalidParameterError("exclusion boundary was touched; window policy broken")
            if state.hi - state.lo >= _MAX_WINDOW:
                raise InvalidParameterError(f"exclusion window exceeded its cap of {_MAX_WINDOW} sites")
            old_lo, old_hi = state.lo, state.hi
            _grow_window(state)
            for xx in range(state.lo + 1, old_lo + 1):
                schedule(xx)
            for xx in range(old_hi, state.hi):
                schedule(xx)
        for xx in (x - 1, x, x + 1):
            schedule(xx)
    state.t = T
    return state


def _rate_table(kind: str, rate_params, W: int):
    """Flip rates in a farm window of half-width W, by site code l + 4 h + r.

    A site at height h between heights l and r (each h +- 1) has code
    6h - 2 at a local maximum (a down-flip), 6h + 2 at a local minimum (an
    up-flip) and 6h otherwise (rate 0).  Heights in the window lie in
    0 .. 2W, and 0 is never a local maximum, so the down-rate at 0 is not
    stored; it may be singular (lambda_bar = 1), and computing it must not
    raise.  The rates are ``_rate`` on arrays; one that is not finite and
    >= 0 is stored as NaN, for ``_farm_rates`` to catch if a step uses it.
    """
    h = np.arange(2 * W + 1, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        up, down = (_rate(kind, rate_params, h, np.full(h.size, d, dtype=np.int8)) for d in (2, -2))
    table = np.zeros(12 * W + 3)
    table[2::6], table[4::6] = up, down[1:]
    table[~((table >= 0) & (table < np.inf))] = np.nan
    return table


def _codes(heights):
    """The codes (see ``_rate_table``) of the inner sites along the last axis."""
    return heights[..., :-2] + 4 * heights[..., 1:-1] + heights[..., 2:]


# heights h0..h4 of a 5-site window @ _FLIP: the codes of its middle three
# sites and its middle height once the middle flips, h2 -> h1 + h3 - h2;
# float64 like the farm's heights, exact on these small integers
_FLIP = np.array([[1.0, 0, 0, 0], [5, 5, 1, 1], [-1, -4, -1, -1], [1, 5, 5, 1], [0, 0, 1, 0]])


def _farm_rates(table, codes):
    """The rates of site ``codes`` (see ``_rate_table``, integer-valued floats); none may be NaN."""
    rates = table.take(codes.astype(np.intp))
    if np.isnan(rates.min()):
        raise InvalidParameterError("nonpositive or singular jump rate encountered")
    return rates


def _grow_farm(s, W: int):
    """Pad a (rows, 2W + 1) height array with W untouched step sites on each side."""
    pad = np.broadcast_to(np.arange(W + 1, 2 * W + 1, dtype=np.float64), (s.shape[0], W))
    return np.concatenate([pad[:, ::-1], s, pad], axis=1), 2 * W


def _farm_draws(prefix, step: int, k: int):
    """The draws of steps step + 1 .. step + k of each row, as (log1p(-u1), u2), each (rows, k).

    u1, u2 are uniform_hash(0, trajectory seed, step, 1 | 2); ``prefix``
    holds each row's hash of (0, trajectory seed).
    """
    steps = np.arange(step + 1, step + k + 1, dtype=np.uint64)
    u = _unit(_mix(_mix(prefix[:, None] ^ steps)[:, :, None] ^ _DRAW_KEYS))
    return np.log1p(-u[:, :, 0]), u[:, :, 1].copy()


def exclusion_farm(kind: str, rate_params, T: float, n_traj: int, seed: int, xs):
    """Vectorized direct Gillespie across trajectories; exact CTMC law.

    Returns an (n_traj, len(xs)) int array of s_x(T); sites outside the
    final window were never disturbed and read |x|.  Each trajectory's
    variates are keyed (``trajectory_seed(seed, index)``, event number), so
    results do not depend on the batch size.  The shared window starts at
    [-8, 8] and grows whenever a flip comes within three sites of its edge.

    The uniforms of a block of steps are hashed in one pass, at most
    2^14 (row, step) pairs and 64 steps (one step above 8192 live rows).
    Each live trajectory keeps a row of site rates, priced from the step row
    once for all.  A flip at x changes only the rates at x - 1, x and x + 1,
    so only those three are repriced (Gibson & Bruck, J. Phys. Chem. A 104,
    2000), by a lookup in a table of up- and down-rates by height that is
    rebuilt when the window grows; the rates a step looks up must be finite
    and >= 0.  A growing window adds zero rates and prices its two old edge
    sites.  Columns no flip has touched keep rate 0, so the site pick sums
    only the touched span.  A trajectory whose next clock passes T is read
    out and dropped, with its rows of heights, rates and draws, so no later
    hash, sum or site pick touches it.  A flip next to the frozen outermost
    site means the window fell behind its disturbance; it is caught on the
    step it happens.
    """
    rate_params = _check_rates(kind, rate_params)
    T = _check_horizon(T)
    W = 8
    table = _rate_table(kind, rate_params, W)
    step_row = np.abs(np.arange(-W, W + 1, dtype=np.float64))
    s = np.broadcast_to(step_row, (n_traj, 2 * W + 1)).copy()
    rates = np.repeat(_farm_rates(table, _codes(step_row))[None], n_traj, axis=0)
    a, b = W - 1, W  # rate columns a flip has touched: so far the origin, the step's one local minimum
    t = np.zeros(n_traj)
    # the hash of each trajectory's common prefix (0, trajectory seed) is computed once
    prefix = _hash64(0, trajectory_seed(seed, np.arange(n_traj, dtype=np.int64)))
    index = np.arange(n_traj)  # output row of each live trajectory
    out = np.empty((n_traj, len(xs)), dtype=np.int64)
    step = 0
    while index.size:
        k = max(1, min(64, (1 << 14) // index.size))
        log_u1, u2 = _farm_draws(prefix, step, k)
        zero_u2 = not u2.all()  # a draw u2 = 0 picks column 0 (every live row has total > 0)
        n, m = rates.shape
        # s_row + c and r_row + c: the flat index of each row's height and rate column c - 1
        s_row, r_row = np.arange(n) * (m + 2) - 1, np.arange(n) * m - 1
        for j in range(k):
            step += 1
            total = rates.sum(axis=1)
            t = t - log_u1[:, j] / np.maximum(total, 1e-300)  # the next clock
            if t.max() > T:
                stop, keep = np.flatnonzero(t > T), np.flatnonzero(t <= T)
                for c, x in enumerate(xs):
                    out[index[stop], c] = s[stop, x + W] if -W <= x <= W else abs(x)
                s, rates, t, prefix, log_u1, u2, index, total = (
                    v.take(keep, axis=0) for v in (s, rates, t, prefix, log_u1, u2, index, total)
                )
                if not index.size:
                    break
                n = index.size
                s_row, r_row = s_row[:n], r_row[:n]
            # the full row's cumulative sum is 0 left of the span and flat right of
            # it, so its sites below u2 * total (a prefix, as rates >= 0) are the
            # span's plus the a left of it (none at u2 * total = 0); m - 1 if all
            thr = u2[:, j] * total
            below = rates[:, a:b].cumsum(axis=1) < thr[:, None]
            cols = np.where(below[:, -1], m - 1, a + below.argmin(axis=1))
            if zero_u2:
                cols[thr == 0] = 0
            lo, hi = int(cols.min()), int(cols.max())
            if lo < 1 or hi > m - 2:  # the window grows before an edge column can flip
                raise InvalidParameterError("exclusion boundary was touched; window policy broken")
            # the window of the fired site (height column cols + 1): it and two
            # neighbours on each side; the fired site and its neighbours get new rates
            first = s_row + cols
            flip = s.take(first[:, None] + _SPAN5) @ _FLIP
            s.put(first + 2, flip[:, 3])
            rates.put((r_row + cols)[:, None] + _SPAN3, _farm_rates(table, flip[:, :3]))
            a, b = min(a, lo - 1), max(b, hi + 2)
            if lo < 3 or hi > m - 3:
                s, grown = _grow_farm(s, W)
                g = grown - W  # every new site lies on the monotone step: rate 0
                rates, a, b, W = np.pad(rates, ((0, 0), (g, g))), a + g, b + g, grown
                if g:  # the old edge sites, now inner at rate columns g - 1 and m + g (a frozen window has none)
                    table = _rate_table(kind, rate_params, W)
                    near = s[:, np.array([g - 1, m + g])[:, None] + _SPAN3]
                    rates[:, [g - 1, m + g]] = _farm_rates(table, _codes(near)[..., 0])
                n, m = rates.shape
                s_row, r_row = np.arange(n) * (m + 2) - 1, np.arange(n) * m - 1
    return out
