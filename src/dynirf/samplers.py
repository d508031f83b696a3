"""Random and exact realizations: quadrant sampler, enumeration DP, exclusion processes.

Randomness is counter-based throughout: every variate is a pure hash of
(seed, site/vertex, event counter), so trajectories are reproducible
bit-for-bit regardless of scheduling, vectorization, or thread counts.
Trajectory i of a run seeded s uses ``trajectory_seed(s, i)``, a SplitMix64
hash of s and i as separate keys, so runs at different seeds share no
trajectories (counter-based streams in the style of Salmon et al., SC'11).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .params import IrfParams
from .special import InvalidParameterError
from .symfunc import Signature, _plaquette_weights, _row_walk, row_transfer
from .weights import spin_half_weights

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

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)


class PositivityError(RuntimeError):
    """A sampled weight left [0, 1] beyond tolerance."""


def _mix(x):
    x = (x + _C1) & _M64
    x = ((x ^ (x >> np.uint64(30))) * _C2) & _M64
    x = ((x ^ (x >> np.uint64(27))) * _C3) & _M64
    return x ^ (x >> np.uint64(31))


def _hash64(seed, *keys):
    with np.errstate(over="ignore"):
        if isinstance(seed, (int, np.integer)):
            h = _mix(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
        else:
            h = _mix(np.asarray(seed, dtype=np.int64).view(np.uint64))
        for k in keys:
            arr = np.asarray(k, dtype=np.int64).view(np.uint64)
            h = _mix((h ^ arr) & _M64)
    return h


def uniform_hash(seed, *keys):
    """Deterministic uniform in [0,1) keyed by (seed, keys...); array-safe."""
    out = (_hash64(seed, *keys) >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    return out if out.shape else float(out)


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


def _filling_row_walk(state: QuadrantState, x: int, y: int) -> complex:
    p = state.params
    two_eta = 2 * p.eta
    val = p.lambda0 - two_eta * y
    for col in range(1, x + 1):
        vocc = int(state.vout[col, y]) if y >= 1 else 0
        val += 2 * two_eta * vocc - two_eta * p.lam(col)
    return val


def filling(state: QuadrantState, x: int, y: int, check: bool = False) -> complex:
    """Dynamic parameter of the unit square [x, x+1] x [y, y+1].

    Computed by walking right along row y from the left boundary value
    lambda_0 - 2*eta*y; with ``check`` also walks an up-then-right route
    and asserts path independence.
    """
    if not (0 <= x <= state.X and 0 <= y <= state.Y):
        raise InvalidParameterError("square outside the sampled window")
    val = _filling_row_walk(state, x, y)
    if check and y >= 1:
        p = state.params
        two_eta = 2 * p.eta
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
    """
    if any(abs(l - 1.0) > 1e-12 for _, l in params.columns[1 : X + 1]):
        raise InvalidParameterError("batch sampler is spin-1/2 only")
    two_eta = 2 * params.eta
    vout = np.zeros((n_traj, X + 1, Y + 1), dtype=np.int64)
    hout = np.zeros((n_traj, X + 1, Y + 1), dtype=np.int64)
    seeds = trajectory_seed(seed, np.arange(n_traj, dtype=np.int64))
    eps = 1e-9
    for y in range(1, Y + 1):
        lam_v = np.full(n_traj, params.lambda0 - two_eta * y, dtype=complex)
        carry = np.ones(n_traj, dtype=np.int64)  # path entering from the left
        for x in range(1, X + 1):
            i1 = vout[:, x, y - 1] if y >= 2 else np.zeros(n_traj, dtype=np.int64)
            a0, a1, b0, c1, d0, d1 = spin_half_weights(
                lam_v, params.w(y), params.z(x), 1.0, params.eta, params.mode
            )
            # probability that a horizontal arrow exits right: c at k=1 for
            # a fresh turn, d0 for a pass-through, d1 = 1 when the vertical
            # edge is occupied (spin-1/2 forces the crossing)
            p_turn = np.where(carry == 0, np.where(i1 >= 1, c1, 0.0), np.where(i1 >= 1, d1, d0))
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
            lam_v = lam_v + 2 * two_eta * i2 - two_eta * params.lam(x)
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
    """
    lam0 = params.lambda0 if lam0 is None else lam0
    two_eta = 2 * params.eta
    dist = {Signature(()): 1.0 + 0.0j}
    for y in range(1, N + 1):
        lam_row = lam0 - two_eta * y + two_eta * params.lam(0)
        dist = row_transfer(dist, lam_row, params.w(y), params, X)
    total = sum(dist.values())
    return dist, 1.0 - total


def enumerate_heights(params: IrfParams, N: int, xs, lam0: complex | None = None, row_weights=None):
    """Exact joint law of the heights h(x, N) for x in ``xs``.

    Unlike :func:`enumerate_distribution` there is no truncation error:
    heights at columns <= max(xs) only see vertices left of max(xs), and
    paths escaping beyond are absorbed with total weight one.  Works with
    complex weights.  ``row_weights(y)`` gives row y's plaquette weight
    callback (kind, m, x, lam_x) (default: the stochastic IRF weights).
    Returns a dict mapping height tuples to amplitudes.
    """
    lam0 = params.lambda0 if lam0 is None else lam0
    cap = max(xs)
    two_eta = 2 * params.eta
    if row_weights is None:
        row_weights = lambda y: _plaquette_weights(params, params.w(y), True)
    # one stochastic row over columns 1..cap at a time; a path still carrying
    # past column cap is absorbed: the remaining strip's weights sum to one
    # for any filling, so absorption carries weight exactly 1
    dist = {((0,) * cap, 0): 1.0 + 0.0j}
    for y in range(1, N + 1):
        lam_row = lam0 - two_eta * y
        weight_fn = row_weights(y)
        new: dict = {}
        for (bot, n_abs), amp in dist.items():
            for (top, inc), wgt in _row_walk(params, dict(enumerate(bot, 1)), 1, cap, lam_row, weight_fn).items():
                key = (top + (0,) * (cap - len(top)), n_abs + inc)
                new[key] = new.get(key, 0.0 + 0.0j) + amp * wgt
        dist = new
    out: dict = {}
    for (occ, n_abs), amp in dist.items():
        hs = tuple(sum(occ[x - 1] for x in range(xi, cap + 1)) + n_abs for xi in xs)
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
        def weight_fn(kind, m, x, lam_x):
            di1, dj1, di2, dj2 = patt[kind]
            return hs6v_weight(
                "stochastic", m + di1, dj1, m + di2, dj2, sv.q, sv.s[x - 1], sv.xi[x - 1], sv.u[y - 1]
            )

        return weight_fn

    return enumerate_heights(params, N, xs, lam0=0.0, row_weights=row_weights)


# ---------------------------------------------------------------------------
# Dynamic exclusion processes.
# ---------------------------------------------------------------------------


@dataclass
class ExclusionState:
    """Step-type height state s_x on a finite active window.

    Outside [lo, hi] the state is frozen at s_x = |x|; the window grows so
    that flips never come near its edges, which keeps the restriction
    exact rather than approximate.
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


def step_exclusion_state(kind: str, rate_params, half_width: int = 6) -> ExclusionState:
    if kind == "asep":
        q, alpha = rate_params
        if not (q > 0 and alpha >= 0) and not (q > 1 and alpha > -1):
            raise InvalidParameterError("need q, alpha > 0 (or q > 1, alpha > -1) for dynamic ASEP")
    elif kind == "ssep":
        (lam_bar,) = rate_params
        if not lam_bar > 0:
            raise InvalidParameterError("dynamic SSEP from the step state needs lambda_bar > 0")
    else:
        raise InvalidParameterError(f"unknown exclusion kind {kind!r}")
    lo, hi = -half_width, half_width
    return ExclusionState(kind, tuple(rate_params), lo, hi, {x: abs(x) for x in range(lo, hi + 1)})


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


def _site_move(state: ExclusionState, x: int):
    """(delta, rate) of the unique admissible flip at x, or None."""
    s = state.value(x)
    left, right = state.value(x - 1), state.value(x + 1)
    if left != right or abs(left - s) != 1:
        return None
    delta = 2 * (left - s)  # local max flips down, local min flips up
    rate = _rate(state.kind, state.rate_params, s, delta)
    if rate <= 0:
        raise InvalidParameterError(f"nonpositive {'down' if delta < 0 else 'up'}-rate at site {x}")
    return (delta, rate)


def _grow_window(state: ExclusionState) -> None:
    margin = state.hi - state.lo
    new_lo, new_hi = state.lo - margin // 2, state.hi + margin // 2
    for x in range(new_lo, state.lo):
        state.s[x] = abs(x)
    for x in range(state.hi + 1, new_hi + 1):
        state.s[x] = abs(x)
    state.lo, state.hi = new_lo, new_hi


def simulate_exclusion(initial: ExclusionState, T: float, seed: int, max_window: int = 1 << 20, record: bool = False) -> ExclusionState:
    """Event-driven next-reaction simulation up to time T.

    A binary heap holds tentative firing times; entries are invalidated by
    per-site version counters whenever a flip changes the site's (or a
    neighbor's) move.  Exponential clocks come from the counter-based
    uniforms keyed (seed, site, per-site draw counter), so the trajectory
    is reproducible independent of heap internals.
    """
    state = ExclusionState(
        initial.kind,
        initial.rate_params,
        initial.lo,
        initial.hi,
        dict(initial.s),
        initial.t,
        [],
    )
    version: dict = {}
    draws: dict = {}
    heap: list = []

    def schedule(x: int) -> None:
        version[x] = version.get(x, 0) + 1
        move = _site_move(state, x)
        if move is None:
            return
        delta, rate = move
        draws[x] = draws.get(x, 0) + 1
        u = uniform_hash(seed, x, draws[x])
        dt = -math.log1p(-u) / rate
        heapq.heappush(heap, (state.t + dt, x, version[x], delta))

    for x in range(state.lo + 1, state.hi):
        schedule(x)

    while heap:
        t_fire, x, ver, delta = heapq.heappop(heap)
        if version.get(x) != ver:
            continue
        if t_fire > T:
            # the winning clock fires past the horizon: freeze here
            break
        state.t = t_fire
        state.s[x] += delta
        if record:
            state.events.append((t_fire, x, state.s[x]))
        if x - state.lo < 3 or state.hi - x < 3:
            if state.hi - state.lo >= max_window:
                raise InvalidParameterError("exclusion window exceeded the configured cap")
            old_lo, old_hi = state.lo, state.hi
            _grow_window(state)
            for xx in range(state.lo + 1, old_lo + 1):
                schedule(xx)
            for xx in range(old_hi, state.hi):
                schedule(xx)
        for xx in (x - 1, x, x + 1):
            if state.lo < xx < state.hi:
                schedule(xx)
    state.t = T
    # boundary sites must never have flipped
    if state.value(state.lo) != abs(state.lo) or state.value(state.hi) != abs(state.hi):
        raise InvalidParameterError("exclusion boundary was touched; window policy broken")
    return state


def exclusion_farm(kind: str, rate_params, T: float, n_traj: int, seed: int, xs, half_width: int = 8):
    """Vectorized direct Gillespie across trajectories; exact CTMC law.

    Returns an (n_traj, len(xs)) int array of s_x(T).  Each trajectory's
    variates are keyed (``trajectory_seed(seed, index)``, event number), so
    results do not depend on the batch size.  The shared window grows
    whenever any trajectory's disturbance approaches its edge.
    """
    step_exclusion_state(kind, rate_params)  # parameter validation
    W = half_width
    sites = np.arange(-W, W + 1)
    s = np.abs(np.broadcast_to(sites, (n_traj, sites.size))).astype(np.float64).copy()
    t = np.zeros(n_traj)
    seeds = trajectory_seed(seed, np.arange(n_traj, dtype=np.int64))
    counter = np.zeros(n_traj, dtype=np.int64)
    done = np.zeros(n_traj, dtype=bool)

    def rates_array(sarr):
        inner = sarr[:, 1:-1]
        is_max = (sarr[:, :-2] == inner - 1) & (sarr[:, 2:] == inner - 1)
        is_min = (sarr[:, :-2] == inner + 1) & (sarr[:, 2:] == inner + 1)
        # every other site is priced as an up-flip and masked out
        delta = np.where(is_max, np.int8(-2), np.int8(2))
        rates = _rate(kind, rate_params, inner, delta) * (is_max | is_min)
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise InvalidParameterError("nonpositive or singular jump rate encountered")
        return rates, is_max

    while not done.all():
        rates, is_max = rates_array(s)
        total = rates.sum(axis=1)
        counter += 1
        u1 = uniform_hash(0, seeds, counter, np.int64(1))
        u2 = uniform_hash(0, seeds, counter, np.int64(2))
        dt = -np.log1p(-u1) / np.maximum(total, 1e-300)
        fire = ~done & (t + dt <= T)
        t = np.where(~done, np.minimum(t + dt, T), t)
        done |= ~fire
        if fire.any():
            cum = np.cumsum(rates, axis=1)
            target = u2 * total
            idx = (cum < target[:, None]).sum(axis=1)
            idx = np.minimum(idx, rates.shape[1] - 1)
            rows = np.nonzero(fire)[0]
            cols = idx[rows]
            delta = np.where(is_max[rows, cols], -2.0, 2.0)
            s[rows, cols + 1] += delta
            near_edge = (cols < 3) | (cols > s.shape[1] - 5)
            if near_edge.any():
                grow = W
                left = np.abs(np.broadcast_to(np.arange(-W - grow, -W), (n_traj, grow))).astype(float)
                right = np.abs(np.broadcast_to(np.arange(W + 1, W + grow + 1), (n_traj, grow))).astype(float)
                s = np.concatenate([left, s, right], axis=1)
                W += grow
    out = np.empty((n_traj, len(xs)), dtype=np.int64)
    for j, x in enumerate(xs):
        out[:, j] = s[:, x + W].astype(np.int64)
    return out
