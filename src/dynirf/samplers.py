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
import operator
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .params import IrfParams, to_six_vertex
from .special import InvalidParameterError, _as_int, _as_real
from .symfunc import _row_sweep
from .weights import _not_probability, _turn_table, hs6v_weight, plaquette_weights

__all__ = [
    "PositivityError",
    "ExclusionState",
    "uniform_hash",
    "trajectory_seed",
    "enumerate_heights",
    "enumerate_heights_hs6v",
    "step_exclusion_state",
    "simulate_exclusion",
    "exclusion_farm",
]

_MASK = 0xFFFF_FFFF_FFFF_FFFF
_K1, _K2, _K3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_C1, _C2, _C3, _S11, _S27, _S30, _S31 = (np.uint64(c) for c in (_K1, _K2, _K3, 11, 27, 30, 31))
_DRAW_KEYS = np.array([1, 2], dtype=np.uint64)  # the last key of a farm step's two draws
_MAX_WINDOW = 1 << 20  # sites; simulate_exclusion never grows its window past this, so x and s fit int32
# trajectories per block of the batch engines, and (row, step) pairs per farm
# hash pass; of 2^12, 2^13 and 2^14, 2^13 ran 10^5 mc_E samples fastest, and
# a farm block holds half the state of 2^14
_BLOCK = 1 << 13
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
    """Deterministic uniform in [0,1) keyed by (seed, keys...); array-safe."""
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


def _check_turn(x: int, y: int, p_turn, sums) -> None:
    """At vertex (x, y), a turn weight outside [0, 1] raises PositivityError,
    then a completion a + c or b + d in ``sums`` that misses one raises
    InvalidParameterError, as elliptic weights do (see ``weights``): each
    within 1e-9, on scalars or arrays over fillings; NaN fails too."""
    p = np.atleast_1d(p_turn)
    bad = _not_probability(p)
    if bad.any():
        raise PositivityError(f"weight {complex(p[bad][0])} outside [0,1] at vertex ({x},{y})")
    residual = float(np.abs(sums - 1.0).max())
    if not residual <= 1e-9:  # a NaN fails too
        raise InvalidParameterError(f"stochastic weights at vertex ({x},{y}) do not sum to one: residual {residual:.2e}")


def _check_rows(params: IrfParams, N) -> int:
    """The row index N as an int; one not an integer in 0..params.n_rows raises InvalidParameterError."""
    return _as_int(N, f"the row index N (the parameter pack has {params.n_rows} rows)", 0, params.n_rows)


def _check_sites(params: IrfParams, xs, what: str = "site x", low: int | None = None) -> tuple:
    """The sites ``xs`` as a tuple of ints, each at least ``low`` and below the
    pack's column count; none, or one that is not such an int, raises
    InvalidParameterError naming ``what``."""
    if not len(xs):
        raise InvalidParameterError("need at least one site in xs")
    return tuple(_as_int(x, f"{what} (the parameter pack has {params.n_cols} columns)", low, params.n_cols - 1) for x in xs)


def _blocks(n_traj: int):
    """The trajectory ranges [lo, hi) of a run of ``n_traj``, in blocks of ``_BLOCK``."""
    return [(lo, min(lo + _BLOCK, n_traj)) for lo in range(0, n_traj, _BLOCK)]


def _column_cap(params: IrfParams, x: int, Y: int) -> int:
    """The most arrows column x holds in rows 1..Y: Lambda_x where it is an integer >= 0, else Y."""
    lam = params.lam(x)
    return min(int(lam.real), Y) if lam.imag == 0 and lam.real >= 0 and lam.real.is_integer() else Y


def _irf_batch(params: IrfParams, X: int, Y: int, seed: int, lo: int, hi: int) -> dict:
    """Vectorized sampler at any spin: trajectories lo .. hi - 1 of the run
    seeded ``seed`` sweep the quadrant window row by row, bottom row first,
    tossing one Bernoulli variable per vertex, keyed by (trajectory seed, x,
    y), with the stochastic plaquette biases.

    Returns {"vout": (hi - lo, X+1, Y+1), "hout": ...}: ``vout[i, x, y]`` is
    the occupation of the vertical edge leaving vertex (x, y) upward,
    ``hout[i, x, y]`` the horizontal one leaving it rightward, for
    trajectory lo + i, whose variates are keyed by ``trajectory_seed(seed,
    lo + i)``.  One path enters each row from the left, none from below.
    The occupations are int8, or int64 where a column can hold more than
    127 arrows.

    On row y the filling at column x is lambda0 - 2 eta (y + Lambda_1 + ...
    + Lambda_{x-1}) + 4 eta c, where c counts the arrows the trajectory has
    sent up in the row so far: at most y, and at most the columns' caps
    summed, a column's cap being its Lambda where that is an integer (else
    y).  Each trajectory carries its count; column x weighs its reachable
    fillings once per vertex, the same table in every block, by c, the
    arrows m <= min(y - 1, cap) entering from below and the one entering
    from the left or not (``weights._turn_table``).  Every trajectory's
    turn probability is checked to lie in [0, 1], and every a_m + c_m and
    b_m + d_m in the table to be one, within 1e-9 (``_check_turn``).

    A sweep holds 2 (X+1)(Y+1) bytes of int8 occupations per trajectory;
    ``_irf_height_blocks`` sweeps a run in blocks of 2^13 trajectories and
    keeps only their heights.
    """
    two_eta = 2 * params.eta
    n_traj = hi - lo
    caps = [_column_cap(params, x, Y) for x in range(1, X + 1)]
    dtype = np.int8 if max(caps, default=0) <= 127 else np.int64
    vout = np.zeros((n_traj, X + 1, Y + 1), dtype=dtype)
    hout = np.zeros((n_traj, X + 1, Y + 1), dtype=dtype)
    seeds = trajectory_seed(seed, np.arange(lo, hi, dtype=np.int64))
    for y in range(1, Y + 1):
        count = np.zeros(n_traj, dtype=np.int64)  # arrows sent up in this row so far
        carry = np.ones(n_traj, dtype=np.int64)  # path entering from the left
        for x in range(1, X + 1):
            i1 = vout[:, x, y - 1]
            n_c, M = min(y, sum(caps[: x - 1])) + 1, min(y - 1, caps[x - 1])
            fill = params.lambda0 - two_eta * (y + params.lam_sum(1, x)) + 2 * two_eta * np.arange(n_c)
            stay, turn = _turn_table(fill, params.z(x) - params.w(y), params.lam(x), params.eta, params.mode.f, M)
            # the probability that an arrow exits right, by carry, m and c
            p_turn = turn.ravel().take((carry * (M + 1) + i1) * n_c + count)
            _check_turn(x, y, p_turn, stay + turn)
            u = uniform_hash(seeds, np.int64(x), np.int64(y))
            j2 = (u < np.clip(p_turn.real, 0.0, 1.0)).astype(np.int64)  # an arrow exits right
            i2 = i1 + carry - j2
            vout[:, x, y] = i2
            hout[:, x, y] = j2
            count += i2
            carry = j2
    return {"vout": vout, "hout": hout}


def _irf_height_blocks(params: IrfParams, xs: tuple, N: int, seed: int, n_traj: int):
    """Heights h(x, N), x in checked ``xs``, of the batch sampler's run of
    ``n_traj`` trajectories seeded ``seed``: one (block size, len(xs)) int64
    array per block of ``_BLOCK`` trajectories, in order.

    h(x, N) counts the arrows leaving column x - 1 rightward in rows 1..N,
    and paths never move left, so the sweep stops at column X = max(xs) - 1
    (h = N at x <= 1), and only swept columns' weights are checked.  Each
    trajectory is keyed by its index in the whole run and each column weighs
    the same table of fillings in every block, so in every mode the blocks,
    concatenated, are the heights of one ``_irf_batch(params, X', N, seed,
    0, n_traj)`` sweep at any X' >= X and any block size, bit for bit.
    """
    X = max(xs) - 1
    for lo, hi in _blocks(n_traj):
        out = np.full((hi - lo, len(xs)), N, dtype=np.int64)
        if X >= 1:
            hout = _irf_batch(params, X, N, seed, lo, hi)["hout"]
            for c, x in enumerate(xs):
                if x > 1:
                    out[:, c] = hout[:, x - 1, 1 : N + 1].sum(axis=1, dtype=np.int64)
        yield out


def enumerate_heights(params: IrfParams, N: int, xs, row_weights=None):
    """Exact joint law of the heights h(x, N) for x in ``xs``.

    h(x, N) is N minus the paths that stop in columns 1..x-1, and paths
    never move left, so the sweep covers columns 1..max(xs) - 1 only.
    This cut is exact: a path carrying past the last column is absorbed
    with total weight one, as the rest of the strip's stochastic weights
    sum to one.  Works with complex weights.
    ``row_weights(y)`` gives row y's plaquette weight callback (kind, m, x,
    lam_x) (default: the stochastic IRF weights).  Each row is one
    ``symfunc._row_sweep`` of the whole law, row y from the filling
    lambda0 - 2*eta*y; as every path enters at column 1, h(x, N) = N at
    x <= 1.  Returns {heights: amplitude}.  An empty ``xs``, an N that
    fails ``_check_rows`` or a site past the pack's columns raises
    InvalidParameterError.
    """
    N, xs = _check_rows(params, N), _check_sites(params, xs)
    lam0, two_eta = params.lambda0, 2 * params.eta
    if row_weights is None:
        row_weights = lambda y: plaquette_weights(params, params.w(y), True)
    # one stochastic row over columns 1..max(xs) - 1 at a time; a path still
    # carrying past the last is absorbed with weight exactly 1, and y -
    # sum(occupations) of y paths are absorbed
    dist = {(0,) * max(max(xs) - 1, 0): 1.0 + 0.0j}
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
    sv = to_six_vertex(params)
    patt = {"A": (0, 0, 0, 0), "B": (0, 1, 1, 0), "C": (0, 0, -1, 1), "D": (0, 1, 0, 1)}

    def row_weights(y):
        @functools.cache  # the weights ignore lam_x: one evaluation per (kind, m, x) in each row
        def row(kind, m, x):
            di1, dj1, di2, dj2 = patt[kind]
            return hs6v_weight(m + di1, dj1, m + di2, dj2, sv.q, sv.s[x - 1], sv.xi[x - 1], sv.u[y - 1])

        return lambda kind, m, x, lam_x: row(kind, m, x)

    return enumerate_heights(params, N, xs, row_weights=row_weights)


# ---------------------------------------------------------------------------
# Dynamic exclusion processes.
# ---------------------------------------------------------------------------


_EVENT = np.dtype([("t", np.float64), ("x", np.int32), ("s", np.int32)])  # 16 bytes a record
_NO_EVENTS = np.empty(0, dtype=_EVENT)  # the one empty log, shared: it has no record to change
_NO_EVENTS.flags.writeable = False
# the step state's heights on [-6, 6]: they pass _check_heights, so the
# constructor does not check a state built on them (step_exclusion_state's)
_STEP_HEIGHTS = MappingProxyType({x: abs(x) for x in range(-6, 7)})


@dataclass
class ExclusionState:
    """Step-type height state s_x on a finite active window.

    ``s`` holds every site of [lo, hi]; outside it the state is frozen at
    s_x = |x|.  The window grows so that flips never come near its edges,
    which keeps the restriction exact rather than approximate.  The rates
    pass ``_check_rates``, lo and hi must be integers and t a finite real >= 0;
    then ``s`` must be a dict of integer heights on exactly [lo, hi], lo < 0
    < hi, with steps of +-1 and s_x = |x| at lo, lo + 1, hi - 1 and hi, so
    that neither end can flip (``_check_heights``).  The state keeps its own
    dict of ints.

    ``events``, filled by ``simulate_exclusion(..., record=True)``, holds one
    16-byte ``_EVENT`` record (t float64, x int32, s int32: the flip's time,
    site and new height) per flip in time order; rows unpack as ``t, x, s``.
    Any other state holds an empty log of that dtype, and ``==`` ignores it.
    """

    kind: str  # "asep" | "ssep"
    rate_params: tuple
    lo: int
    hi: int
    s: dict
    t: float = 0.0
    events: np.ndarray = field(default_factory=lambda: _NO_EVENTS, compare=False)

    def __post_init__(self):
        self.rate_params = _check_rates(self.kind, self.rate_params)
        self.lo, self.hi = _as_int(self.lo, "the window end lo"), _as_int(self.hi, "the window end hi")
        self.t = _as_real(self.t, "the state's time t", 0)
        step = self.s is _STEP_HEIGHTS and (self.lo, self.hi) == (-6, 6)
        self.s = dict(self.s) if step else _check_heights(self.lo, self.hi, self.s)

    def value(self, x: int) -> int:
        """s_x; a site x that is not an integer raises InvalidParameterError."""
        x = _as_int(x, "site x")
        return self.s.get(x, abs(x))


_RATES = {  # the rule each kind's rates follow, and their names
    "asep": ("(q, alpha) with q > 0, alpha >= 0 or q > 1, alpha > -1", ("q", "alpha")),
    "ssep": ("(lambda_bar,) with lambda_bar > 0", ("lambda_bar",)),
}


def _check_heights(lo: int, hi: int, s) -> dict:
    """A new dict of the heights ``s``, which must be integers on exactly the
    sites of [lo, hi], lo < 0 < hi, stepping by +-1 and equal to |x| at lo,
    lo + 1, hi - 1 and hi; any other ``s`` raises InvalidParameterError."""
    sites = range(lo, hi + 1)
    if not (isinstance(s, dict) and lo < 0 < hi and len(s) == len(sites)):
        raise InvalidParameterError(f"the heights s must hold exactly the sites of [lo, hi] = [{lo}, {hi}], lo < 0 < hi")
    h = list(map(s.get, sites))
    if set(map(type, h)) != {int}:  # a site missing from s reads None here
        h = [_as_int(v, f"the height s_{x}") for x, v in zip(sites, h)]
        s = dict(zip(sites, h))
    # s_x = |x| at lo, lo + 1, hi - 1 and hi, as lo < 0 < hi
    if (h[0], h[1], h[-2], h[-1]) != (-lo, -lo - 1, hi - 1, hi) or not set(map(operator.sub, h[1:], h)) <= {-1, 1}:
        raise InvalidParameterError("the heights s step by +-1 and equal |x| at lo, lo + 1, hi - 1 and hi")
    return dict(s)


def _check_rates(kind: str, rate_params) -> tuple:
    """The rates of a dynamic exclusion process as a tuple: (q, alpha) for
    "asep", (lambda_bar,) for "ssep", each a finite real
    (``special._as_real``), in the ranges ``_RATES`` names.  Any other
    kind, shape or value raises InvalidParameterError."""
    if kind not in _RATES:
        raise InvalidParameterError(f"unknown exclusion kind {kind!r}")
    rule, names = _RATES[kind]
    rates = tuple(rate_params) if np.iterable(rate_params) else ()
    ok = len(rates) == len(names)
    if ok:
        r = [_as_real(v, f"the {kind} rate {name}") for v, name in zip(rates, names)]
        ok = (r[0] > 0 and r[1] >= 0) or (r[0] > 1 and r[1] > -1) if kind == "asep" else r[0] > 0
    if not ok:
        raise InvalidParameterError(f"{kind} rates are {rule}, got {rate_params!r}")
    return rates


def step_exclusion_state(kind: str, rate_params) -> ExclusionState:
    """The step state s_x = |x| on [-6, 6]; ``ExclusionState`` checks the rates."""
    return ExclusionState(kind, rate_params, -6, 6, _STEP_HEIGHTS)


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


def simulate_exclusion(initial: ExclusionState, T: float, seed: int, record: bool = False) -> ExclusionState:
    """Event-driven next-reaction simulation up to time T.

    A binary heap holds tentative firing times; entries are invalidated by
    per-site version counters whenever a flip changes the site's (or a
    neighbor's) move.  Exponential clocks come from the counter-based
    uniforms keyed (seed, site, per-site draw counter), so the trajectory
    is reproducible independent of heap internals.  The seed, an integer,
    is hashed once per trajectory, and with each site once.  Each (height,
    flip) rate is computed once per run; a rate that is not finite and > 0,
    a T that is not a finite real >= 0 or a seed that is not an integer
    raises InvalidParameterError.  A flip within three sites of an edge
    grows the window before lo + 1 or hi - 1 can flip, so its new sites and
    old edges lie on the slope |x|, and only the flip's x - 1, x, x + 1 are rescheduled.

    The returned state is new, at time T.  With ``record`` its ``events``
    log every flip: three lists grow during the run, and the record array
    is built from them once at the end.
    """
    T = _as_real(T, "the time horizon T", 0)
    seed = _as_int(seed, "the seed")
    # replace() checks the heights (once: a step state's constructor skipped
    # it), so a state edited after it was built is refused, and the new state
    # gets its own dict of them
    state = replace(initial, events=_NO_EVENTS)
    heights = state.s  # holds every site of the window
    log_t, log_x, log_s = [], [], []  # the event log's columns (lists append faster than array.array)
    add_t, add_x, add_s = log_t.append, log_x.append, log_s.append
    sites: dict = {}  # x -> [version, draws, hash of (seed, x)]
    rates: dict = {}  # (s, delta) -> rate
    heap: list = []
    push, pop, log1p = heapq.heappush, heapq.heappop, math.log1p
    # uniform_hash(seed, x, n) is (_fold(h_seed, x, n) >> 11) * 2**-53
    h_seed = _fold(0, seed)

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
            add_t(t_fire)
            add_x(x)
            add_s(heights[x])
        if x - state.lo < 3 or state.hi - x < 3:
            # lo, hi never flip, and the window grows before lo + 1 or hi - 1
            # can, so x - 1 and x + 1 are inner sites
            if x - state.lo < 2 or state.hi - x < 2:
                raise InvalidParameterError("exclusion boundary was touched; window policy broken")
            if state.hi - state.lo >= _MAX_WINDOW:
                raise InvalidParameterError(f"exclusion window exceeded its cap of {_MAX_WINDOW} sites")
            _grow_window(state)  # the new sites and both old edges lie on the slope |x|: nothing to schedule
        for xx in (x - 1, x, x + 1):
            schedule(xx)
    state.t = T
    if record:
        state.events = events = np.empty(len(log_t), dtype=_EVENT)
        events["t"], events["x"], events["s"] = log_t, log_x, log_s
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
    variates are keyed (``trajectory_seed(seed, index)``, event number).
    Trajectories run in blocks of 2^13 (``_farm_blocks``), each to the end
    before the next starts, so a run holds the state of one block at a time
    besides its output: a block's window starts at [-8, 8] and grows
    whenever a flip comes within three sites of its edge.

    The uniforms of a block of steps are hashed in one pass, at most
    2^13 (row, step) pairs and 64 steps (one step above 4096 live rows).
    Each live trajectory keeps a row of site rates, priced from the step row
    once for all.  A flip at x changes only the rates at x - 1, x and x + 1,
    so only those three are repriced (Gibson & Bruck, J. Phys. Chem. A 104,
    2000), by a lookup in a table of up- and down-rates by height that is
    rebuilt when the window grows; the rates a step looks up must be finite
    and >= 0.  A growing window adds zero rates only: its new sites and old
    edges lie on the slope |x|, as in ``simulate_exclusion``.  Columns no
    flip has touched keep rate 0, so a step sums each row's rates over the
    touched span only, left to right: the last sum is the clock's total
    rate, and the first site whose sum passes u2 times it fires (the direct
    method, Gillespie, J. Comput. Phys. 22, 1976; at u2 = 0 the first site
    of positive rate).  A row's sums do not depend on the span or window
    that the other rows of its block set, so the output does not depend on
    the block size, bit for bit.  A
    trajectory whose next clock passes T is read out and dropped, with its
    rows of heights, rates and draws, so no later hash, sum or site pick
    touches it.  A flip next to the frozen outermost site means the window
    fell behind its disturbance; it is caught on the step it happens.
    """
    rate_params = _check_rates(kind, rate_params)
    T = _as_real(T, "the time horizon T", 0)
    n_traj, seed = _as_int(n_traj, "the trajectory count", 0), _as_int(seed, "the seed")
    xs = tuple(_as_int(x, "site x") for x in xs)
    return np.concatenate([np.empty((0, len(xs)), dtype=np.int64), *_farm_blocks(kind, rate_params, T, seed, n_traj, xs)])


def _farm_blocks(kind: str, rate_params: tuple, T: float, seed: int, n_traj: int, xs: tuple):
    """``exclusion_farm``'s output for checked input, one array per block of ``_BLOCK`` trajectories, in order."""
    for lo, hi in _blocks(n_traj):
        yield _farm_block(kind, rate_params, T, seed, lo, hi, xs)


def _farm_block(kind: str, rate_params: tuple, T: float, seed: int, lo: int, hi: int, xs):
    """``exclusion_farm``'s trajectories lo .. hi - 1, for checked rates and horizon."""
    n_traj = hi - lo
    W = 8
    table = _rate_table(kind, rate_params, W)
    step_row = np.abs(np.arange(-W, W + 1, dtype=np.float64))
    s = np.broadcast_to(step_row, (n_traj, 2 * W + 1)).copy()
    codes = step_row[:-2] + 4 * step_row[1:-1] + step_row[2:]  # of the step's inner sites (see ``_rate_table``)
    rates = np.repeat(_farm_rates(table, codes)[None], n_traj, axis=0)
    a, b = W - 1, W  # rate columns a flip has touched: so far the origin, the step's one local minimum
    t = np.zeros(n_traj)
    # the hash of each trajectory's common prefix (0, trajectory seed) is computed once
    prefix = _hash64(0, trajectory_seed(seed, np.arange(lo, hi, dtype=np.int64)))
    index = np.arange(n_traj)  # output row of each live trajectory
    out = np.empty((n_traj, len(xs)), dtype=np.int64)
    step = 0
    while index.size:
        k = max(1, min(64, _BLOCK // index.size))
        log_u1, u2 = _farm_draws(prefix, step, k)
        n, m = rates.shape
        # s_row + c and r_row + c: the flat index of each row's height and rate column c - 1
        s_row, r_row = np.arange(n) * (m + 2) - 1, np.arange(n) * m - 1
        for j in range(k):
            step += 1
            # the running sum over the touched span, left to right: the rates
            # outside it are 0, so each row's sums, its total among them, do
            # not depend on the span or window the block's other rows set
            cum = rates[:, a:b].cumsum(axis=1)
            t = t - log_u1[:, j] / np.maximum(cum[:, -1], 1e-300)  # the next clock
            if t.max() > T:
                stop, keep = np.flatnonzero(t > T), np.flatnonzero(t <= T)
                for c, x in enumerate(xs):
                    out[index[stop], c] = s[stop, x + W] if -W <= x <= W else abs(x)
                s, rates, t, prefix, log_u1, u2, index, cum = (
                    v.take(keep, axis=0) for v in (s, rates, t, prefix, log_u1, u2, index, cum)
                )
                if not index.size:
                    break
                n = index.size
                s_row, r_row = s_row[:n], r_row[:n]
            # the first site whose running sum passes u2 * total fires; left of
            # the span the full row's sum is 0, at most u2 * total, and the
            # total itself, the span's last, passes it, as u2 < 1
            thr = u2[:, j] * cum[:, -1]
            cols = a + (cum <= thr[:, None]).argmin(axis=1)
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
                g = grown - W  # every new site and both old edges lie on the slope |x|: rate 0
                rates, a, b, W = np.pad(rates, ((0, 0), (g, g))), a + g, b + g, grown
                table = _rate_table(kind, rate_params, W)
                n, m = rates.shape
                s_row, r_row = np.arange(n) * (m + 2) - 1, np.arange(n) * m - 1
    return out
