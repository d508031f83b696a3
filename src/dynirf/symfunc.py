"""Closed-form symmetric-function evaluators and lattice-path skew functions.

Two independent computation routes exist for everything here:

* symmetrization formulas (sums over permutations / index subsets), and
* lattice-path dynamic programming over rows of plaquettes,

and both are pinned to the brute-force operator oracle in the tests.

Every lattice route walks its rows with the one kernel ``_row_walk``: the
skew B and D rows (top and bottom fixed), ``row_transfer`` (all tops below
a cap) and ``samplers.enumerate_heights`` (tops of a finite window, with
the paths that leave it absorbed).  Each reads its answer off the returned
{(top occupations, carry past the last column): amplitude} map.

Conventions.  Signatures are weakly decreasing tuples of nonnegative
integers; ``D_nu`` means the skew function against the zero signature of
the same length, so zero parts matter.  The dynamic-parameter shifts
follow the operator composition: the top row of a k-row strip carries
lambda, the row below lambda + 2*eta, and so on; stochastic strips start
at column 1 with the top-left unit square filled by lambda - 2*eta*Lambda_0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .params import IrfParams, PQGrid, pq_grid
from .special import FunctionMode, InvalidParameterError, f_eval
from .weights import WeightContext, weight

__all__ = [
    "Signature",
    "phi",
    "psi",
    "B_mu",
    "D_nu",
    "normalize",
    "c_mu",
    "D_rho",
    "skew_B_lattice",
    "skew_D_lattice",
    "stoch_B_formula",
    "stoch_B_sum",
    "c_matrix_formula",
    "signatures_in_box",
    "TailInfo",
]

MAX_FACTORIAL_SUM = 9
MAX_SUBSET_BIJECTION = 6


@dataclass(frozen=True)
class Signature:
    """Weakly decreasing tuple of nonnegative integers."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p < 0 for p in parts):
            raise InvalidParameterError("signature parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InvalidParameterError(f"parts {parts} not weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicity(self, value: int) -> int:
        return sum(1 for p in self.parts if p == value)

    def multiplicities(self) -> dict:
        out: dict = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def n_less(self, value: int) -> int:
        """Number of parts strictly smaller than ``value``."""
        return sum(1 for p in self.parts if p < value)

    def max_part(self) -> int:
        return self.parts[0] if self.parts else 0

    def nonzero(self) -> tuple:
        return tuple(p for p in self.parts if p > 0)


def _sig(s) -> Signature:
    return s if isinstance(s, Signature) else Signature(tuple(s))


def phi(k: int, u, grid: PQGrid, mode: FunctionMode):
    """phi_k(u) = [prod_{i<k} f(u - p_i)/f(u - q_i)] / f(u - q_k)."""
    f = lambda x: f_eval(mode, x)
    out = 1.0 / f(u - grid.q[k])
    for i in range(k):
        out = out * f(u - grid.p[i]) / f(u - grid.q[i])
    return out


def psi(l: int, v, grid: PQGrid, mode: FunctionMode):
    """psi_l(v) = [prod_{j<l} f(v - q_j)/f(v - p_j)] / f(v - p_l)."""
    f = lambda x: f_eval(mode, x)
    out = 1.0 / f(v - grid.p[l])
    for j in range(l):
        out = out * f(v - grid.q[j]) / f(v - grid.p[j])
    return out


def _bmu_prefactor(mu: Signature, lam: complex, params: IrfParams):
    """B_mu's permutation-free data: the prefactor
    (-1)^M f(2 eta)^M / prod_i f(lam + 2 eta i) times the multiplicity
    factors, and the shift of each part's f(shift + u) factor."""
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    M = mu.length
    pref = (-1.0) ** M * f(2 * eta) ** M
    for i in range(M):
        pref /= f(lam + 2 * eta * i)
    for mult in mu.multiplicities().values():
        for j in range(1, mult + 1):
            pref *= f(2 * eta) / f(2 * eta * j)
    shifts = [
        lam - grid.q[mu.parts[i]] + 2 * eta + 4 * eta * (M - 1 - i) - 2 * eta * params.lam_sum(0, mu.parts[i])
        for i in range(M)
    ]
    return pref, shifts


def B_mu(mu, lam: complex, us, params: IrfParams):
    """Symmetrization formula for B_mu(lambda; u_1..u_M), M = len(mu).

    The u's may be numpy arrays (quadrature grids); the permutation sum is
    explicit, so M is capped at MAX_FACTORIAL_SUM.
    """
    mu = _sig(mu)
    M = mu.length
    if len(us) != M:
        raise InvalidParameterError("B_mu needs exactly len(mu) spectral arguments")
    if M == 0:
        return 1.0 + 0.0j
    if M > MAX_FACTORIAL_SUM:
        raise InvalidParameterError(f"factorial sum capped at M <= {MAX_FACTORIAL_SUM}")
    grid = pq_grid(params)
    eta = params.eta
    f = params.f
    pref, shifts = _bmu_prefactor(mu, lam, params)
    total = 0.0
    for perm in itertools.permutations(range(M)):
        term = 1.0
        for a in range(M):
            for b in range(a + 1, M):
                d = us[perm[a]] - us[perm[b]]
                term = term * f(d - 2 * eta) / f(d)
        for i in range(M):
            u = us[perm[i]]
            term = term * phi(mu.parts[i], u, grid, params.mode) * f(shifts[i] + u)
        total = total + term
    return pref * total


def D_nu(nu, lam: complex, vs, params: IrfParams):
    """Symmetrization formula for D_nu(lambda; v_1..v_n), zero parts included."""
    nu = _sig(nu)
    N = nu.length
    n = len(vs)
    if n < 1:
        raise InvalidParameterError("D_nu needs at least one spectral argument")
    n0 = nu.multiplicity(0)
    r = N - n0  # number of nonzero parts
    if r > n:
        return 0.0 + 0.0j
    if r > MAX_SUBSET_BIJECTION:
        raise InvalidParameterError(
            f"subset-bijection sum capped at {MAX_SUBSET_BIJECTION} nonzero parts"
        )
    grid = pq_grid(params)
    eta = params.eta
    f = params.f
    lam_t = lam + 2 * eta * n
    lam0_col = params.lam(0)

    pref = f(2 * eta) ** r
    for i in range(n):
        pref /= f(lam + 2 * eta * i)
    for i in range(N, n + n0):
        pref *= f(lam + 2 * eta * (i - lam0_col)) / f(lam + 2 * eta * (i + n0 - lam0_col))
    for value, mult in nu.multiplicities().items():
        if value == 0:
            continue
        nless = nu.n_less(value)
        for j in range(mult):
            pref *= f(2 * eta * (params.lam(value) - j))
            pref /= f(lam_t + 2 * eta * (2 * nless + mult + j - params.lam_sum(0, value + 1)))
            pref /= f(lam_t + 2 * eta * (2 * nless + 1 + j - params.lam_sum(0, value)))

    nz = nu.nonzero()  # nu_1 >= ... >= nu_r >= 1
    shifts = [
        lam_t + grid.p[nz[i]] + 2 * eta + 4 * eta * (N - 1 - i) - 2 * eta * params.lam_sum(0, nz[i])
        for i in range(r)
    ]
    total = 0.0 + 0.0j
    for I in itertools.combinations(range(n), r):
        inside = set(I)
        s_fac = 1.0 + 0.0j
        for i in I:
            s_fac *= f(lam + vs[i] - grid.q[0] + 2 * eta * N) / f(vs[i] - grid.q[0])
        for j in range(n):
            if j in inside:
                continue
            s_fac *= f(vs[j] - grid.p[0] - 2 * eta * n0) / f(vs[j] - grid.p[0])
            for i in I:
                s_fac *= f(vs[j] - vs[i] - 2 * eta) / f(vs[j] - vs[i])
        bij_total = 0.0 + 0.0j
        for sigma in itertools.permutations(I):
            term = 1.0 + 0.0j
            for a in range(r):
                for b in range(a + 1, r):
                    d = vs[sigma[a]] - vs[sigma[b]]
                    term *= f(d + 2 * eta) / f(d)
            for i in range(r):
                v = vs[sigma[i]]
                term *= psi(nz[i], v, grid, params.mode) * f(shifts[i] - v)
            bij_total += term
        total += s_fac * bij_total
    return pref * total


def normalize(value, lam: complex, count: int, params: IrfParams):
    """Multiply a B- or D-value by prod_{i<count} f(lambda + 2*eta*i)."""
    out = value
    for i in range(count):
        out = out * params.f(lam + 2 * params.eta * i)
    return out


def c_mu(mu, lam: complex, params: IrfParams) -> complex:
    """Squared-norm constant of the orthogonality relations."""
    mu = _sig(mu)
    M = mu.length
    f = params.f
    eta = params.eta
    out = (f(2 * eta) / params.fp0()) ** M
    for i in range(M):
        out /= f(lam + 2 * eta * i)
    for value, mult in mu.multiplicities().items():
        mless = mu.n_less(value)
        for j in range(mult):
            out *= f(lam + 2 * eta * (2 * mless + mult + j - params.lam_sum(0, value + 1)))
            out *= f(lam + 2 * eta * (2 * mless + 1 + j - params.lam_sum(0, value)))
            out /= f(2 * eta * (params.lam(value) - j))
    return out


def D_rho(nu, lam: complex, params: IrfParams) -> complex:
    """Specialized D^norm_nu(lambda; rho): the closed trigonometric form."""
    if params.mode.kind != "trigonometric":
        raise InvalidParameterError("the rho specialization lives in trigonometric mode")
    nu = _sig(nu)
    N = nu.length
    if N == 0:
        return 1.0 + 0.0j
    if nu.parts[-1] < 1:
        return 0.0 + 0.0j
    f = params.f
    eta = params.eta
    out = (-1.0) ** N * f(2 * eta) ** N / (math.pi**N * c_mu(nu, lam, params))
    for i in range(N):
        out *= f(lam - 2 * eta * params.lam(0) + 2 * eta * (i + 1)) / f(lam + 2 * eta * i)
    return out


# ---------------------------------------------------------------------------
# Lattice-path dynamic programming (single rows composed by branching).
# ---------------------------------------------------------------------------

_ROW_KIND = {(0, 0): "A", (1, 0): "B", (0, 1): "C", (1, 1): "D"}


def signatures_in_box(lows, highs):
    """Weakly decreasing kappa with lows[i] <= kappa_i <= highs[i], in lexicographic order.

    Every interlacing and truncation range of the lattice sums is such a
    box: callers fold their interlacing bounds into ``lows`` and ``highs``.
    """
    n = len(lows)

    def rec(prefix: tuple):
        i = len(prefix)
        if i == n:
            yield Signature(prefix)
            return
        hi = highs[i] if i == 0 else min(highs[i], prefix[-1])
        for part in range(lows[i], hi + 1):
            yield from rec(prefix + (part,))

    return rec(())


def _plaquette_weights(params: IrfParams, w: complex, stochastic: bool):
    """Per-column weight callback of a row with spectral parameter ``w``."""

    def fn(kind, m, x, lam_x):
        ctx = WeightContext(lam_x, w, params.z(x), params.lam(x), params.eta, params.mode)
        return weight(kind, m, ctx, stochastic=stochastic)

    return fn


def _row_walk(params: IrfParams, bot: dict, first: int, last: int, lam_start: complex, weight_fn, top: dict | None = None) -> dict:
    """Every configuration of one row of plaquettes over columns first..last.

    One path enters from the left at column ``first``, whose top-left unit
    square has filling ``lam_start``; ``bot`` maps columns to the incoming
    vertical occupations.  At column x the carry out of the plaquette fixes
    the top occupation n = m + carry - carry_out, and crossing the column
    advances the filling by 4*eta*n - 2*eta*Lambda_x.  ``weight_fn(kind, m,
    x, lam_x)`` weighs a plaquette; with ``top`` (column -> occupation) only
    the configuration with those top occupations is followed.

    Returns {(top occupations from column ``first`` on, carry past the last
    column walked): amplitude}.  A path whose carry is 0 past the last
    occupied column stops there, since every further plaquette is an empty
    A, which weighs exactly 1.  Branches share their prefixes, so a full
    expansion costs far less than evaluating each top separately.
    """
    eta = params.eta
    occupied = [x for x, m in bot.items() if m] + [x for x, n in (top or {}).items() if n]
    stop = max(occupied, default=first - 1)
    out: dict = {}
    stack = [(first, 1, lam_start, 1.0 + 0.0j, ())]
    while stack:
        x, carry, lam_x, amp, tops = stack.pop()
        if x > last or (carry == 0 and x > stop):
            key = (tops, carry)
            out[key] = out.get(key, 0.0 + 0.0j) + amp
            continue
        m = bot.get(x, 0)
        for carry_out in (0, 1):
            n = m + carry - carry_out
            if n < 0 or (top is not None and n != top.get(x, 0)):
                continue
            kind = _ROW_KIND[(carry, carry_out)]
            wgt = 1.0 + 0.0j if (kind == "A" and m == 0) else weight_fn(kind, m, x, lam_x)
            if wgt == 0:
                continue
            stack.append((x + 1, carry_out, lam_x + 4 * eta * n - 2 * eta * params.lam(x), amp * wgt, tops + (n,)))
    return out


def _walk_amplitude(walk: dict, carry: int) -> complex:
    """Total amplitude of the row configurations that end with ``carry``."""
    return sum((amp for (_, c), amp in walk.items() if c == carry), 0.0 + 0.0j)


def skew_B_lattice(kappa, nu, lam: complex, ws, params: IrfParams, stochastic: bool = False) -> complex:
    """Skew B via the row-by-row plaquette DP (plain or stochastic weights).

    Rows compose by the branching rule: the top row carries (lambda, w_1),
    the next (lambda + 2*eta, w_2), and so on.  Stochastic rows start at
    column 1 with top-left filling lambda_row - 2*eta*Lambda_0; signatures
    must then have all parts >= 1.  Each row is read off the row walk with
    both its top and its bottom fixed; a path must leave the row with carry 0.
    """
    kappa, nu = _sig(kappa), _sig(nu)
    k = len(ws)
    if kappa.length != nu.length + k:
        raise InvalidParameterError("need len(kappa) = len(nu) + len(ws)")
    start_col = 1 if stochastic else 0
    if stochastic and ((kappa.parts and kappa.parts[-1] < 1) or (nu.parts and nu.parts[-1] < 1)):
        raise InvalidParameterError("stochastic skew B needs all parts >= 1")
    if k == 0:
        return 1.0 + 0.0j if kappa == nu else 0.0 + 0.0j

    eta = params.eta
    lam0_shift = 2 * eta * params.lam(0) if stochastic else 0.0

    def rec(top: Signature, lam_row: complex, depth: int) -> complex:
        if depth == k:
            return 1.0 + 0.0j  # the bounds below leave only mid = nu here
        t = top.parts
        # mid interlaces below top, dominates nu, and is nu on the last row
        lows = [max(t[i + 1], start_col, nu.parts[i] if i < nu.length else 0) for i in range(len(t) - 1)]
        highs = nu.parts if depth == k - 1 else t[:-1]
        weight_fn = _plaquette_weights(params, ws[depth], stochastic)
        top_mult = top.multiplicities()
        total = 0.0 + 0.0j
        for mid in signatures_in_box(lows, highs):
            last = max(top.max_part(), mid.max_part(), start_col)
            if last >= params.n_cols:
                raise InvalidParameterError("parameter pack has too few columns for this row")
            walk = _row_walk(params, mid.multiplicities(), start_col, last, lam_row - lam0_shift, weight_fn, top_mult)
            row = _walk_amplitude(walk, 0)
            if row == 0:
                continue
            total += row * rec(mid, lam_row + 2 * eta, depth + 1)
        return total

    return rec(kappa, lam, 0)


def skew_D_lattice(nu, mu, lam: complex, ws, params: IrfParams) -> complex:
    """Multivariate skew D composed from single rows by the D-branching rule.

    A single row D_{nu/kappa}(lambda; w) is the row walk with bottom nu and
    top kappa that leaves with carry 1, times the path-independent factor
    prod_x f(z_x - w + (Lambda_x+1) eta) / f(z_x - w + (1-Lambda_x) eta).
    The infinite product over empty columns telescopes against the
    normalization, leaving 1/f(lambda_X) at the first untouched column X;
    no numerical depth limit enters.
    """
    nu, mu = _sig(nu), _sig(mu)
    if nu.length != mu.length:
        raise InvalidParameterError("skew D needs equal lengths")
    n = len(ws)
    if n == 0:
        return 1.0 + 0.0j if nu == mu else 0.0 + 0.0j
    eta = params.eta
    f = params.f
    w = ws[-1]
    lam_row = lam + 2 * eta * (n - 1)
    weight_fn = _plaquette_weights(params, w, False)
    nu_mult = nu.multiplicities()
    # D_{nu/mu}(lam; w_1..w_n) = sum_kappa D_{kappa/mu}(lam; w_1..w_{n-1})
    #                                       * D_{nu/kappa}(lam + 2*eta*(n-1); w_n),
    # nu > kappa >= mu, and kappa = mu for a single row
    lows = [max(mu.parts[i], nu.parts[i + 1] if i + 1 < nu.length else 0) for i in range(nu.length)]
    highs = mu.parts if n == 1 else nu.parts
    total = 0.0 + 0.0j
    for kappa in signatures_in_box(lows, highs):
        last = max(nu.max_part(), kappa.max_part(), 0)
        if last + 1 >= params.n_cols:
            raise InvalidParameterError("parameter pack has too few columns for this row")
        kappa_mult = kappa.multiplicities()
        t2 = _walk_amplitude(_row_walk(params, nu_mult, 0, last, lam_row, weight_fn, kappa_mult), 1)
        if t2 == 0:
            continue
        lam_x = lam_row
        for x in range(0, last + 1):
            t2 *= f(params.z(x) - w + (params.lam(x) + 1) * eta) / f(params.z(x) - w + (-params.lam(x) + 1) * eta)
            lam_x = lam_x + 4 * eta * kappa_mult.get(x, 0) - 2 * eta * params.lam(x)
        total += skew_D_lattice(kappa, mu, lam, ws[:-1], params) * (t2 / f(lam_x))
    return total


# ---------------------------------------------------------------------------
# Stochastic B-functions: conjugated-formula route and truncated sums.
# ---------------------------------------------------------------------------


def stoch_B_formula(kappa, nu, lam: complex, us, params: IrfParams) -> complex:
    """Stochastic skew B from the D^norm(rho)-conjugation of the plain skew B.

    Independent of the stochastic-weight DP route; agreement of the two is
    the numerical content of the plaquette-renormalization theorem.
    """
    kappa, nu = _sig(kappa), _sig(nu)
    k = len(us)
    grid = pq_grid(params)
    f = params.f
    eta = params.eta
    pref = (-1.0) ** k / f(2 * eta) ** k
    for u in us:
        pref *= f(u - grid.q[0]) / f(u - grid.p[0])
    ratio = D_rho(kappa, lam, params) / D_rho(nu, lam + 2 * eta * k, params)
    plain = skew_B_lattice(kappa, nu, lam, us, params, stochastic=False)
    return pref * ratio * normalize(plain, lam, k, params)


@dataclass(frozen=True)
class TailInfo:
    terms_used: int
    tail_estimate: float
    converged: bool


def row_transfer(dist: dict, lam_row: complex, w: complex, params: IrfParams, max_part: int) -> dict:
    """Push a signature-indexed amplitude map through one stochastic row of plaquettes.

    Returns sum over tops of row(top/bot) * amp with top_1 <= max_part.
    Up-right paths only ever move parts rightward, so capping every row at
    the final cap loses exactly the mass of configurations whose crossing
    signature would exceed the cap: their paths still carry 1 past it.
    """
    lam_start = lam_row - 2 * params.eta * params.lam(0)
    weight_fn = _plaquette_weights(params, w, True)
    out: dict = {}
    for bot, amp in dist.items():
        if bot.max_part() > max_part:
            continue  # every path through this bottom runs past the cap
        for (tops, carry), val in _row_walk(params, bot.multiplicities(), 1, max_part, lam_start, weight_fn).items():
            if carry == 0:
                top = Signature(tuple(col for col in range(len(tops), 0, -1) for _ in range(tops[col - 1])))
                out[top] = out.get(top, 0.0 + 0.0j) + amp * val
    return out


def stoch_B_sum(nu, lam: complex, us, params: IrfParams, max_part: int | None = None, rel_tol: float = 1e-12):
    """sum_kappa B^stoch_{kappa/nu}(lambda; u's) with monitored geometric tail.

    Evaluated by a forward row DP (bottom row first, i.e. the last spectral
    argument, at lambda + 2*eta*(k-1)); the result is grouped by kappa_1
    and declared converged once the last three groups are each below
    ``rel_tol`` of the total with decaying ratios.
    """
    nu = _sig(nu)
    k = len(us)
    cap = max_part if max_part is not None else params.n_cols - 2
    eta = params.eta
    dist = {nu: 1.0 + 0.0j}
    for j in range(k, 0, -1):
        dist = row_transfer(dist, lam + 2 * eta * (j - 1), us[j - 1], params, cap)
    groups: dict = {}
    for kappa, amp in dist.items():
        top = kappa.max_part()
        groups[top] = groups.get(top, 0.0 + 0.0j) + amp
    total = 0.0 + 0.0j
    mags = []
    for top in sorted(groups):
        total += groups[top]
        mags.append(abs(groups[top]))
    converged = False
    tail = mags[-1] * 2 if mags else 0.0
    if len(mags) >= 3:
        last3 = mags[-3:]
        small = all(g < rel_tol * max(1e-30, abs(total)) for g in last3)
        noise = last3[2] < 1e-13 * max(abs(total), 1e-30)
        converged = small and (noise or last3[2] <= 0.5 * max(last3[1], 1e-300))
        tail = 2 * last3[2]
    return total, TailInfo(terms_used=len(dist), tail_estimate=tail, converged=converged)


def c_matrix_formula(ws, ks, lam: complex, params: IrfParams) -> complex:
    """Symmetrized closed form of the c-string matrix element.

    Columns 1..m of the parameter pack host the tensor factors (no
    boundary column), k_i is the occupation of column i, and the result
    is the coefficient of the all-highest-weight vector.
    """
    p = len(ws)
    ks = tuple(ks)
    m = len(ks)
    if sum(ks) != p:
        return 0.0 + 0.0j
    if m + 1 > params.n_cols:
        raise InvalidParameterError("parameter pack has too few columns")
    f = params.f
    eta = params.eta
    grid = pq_grid(params)
    lam_hat = lam - 2 * eta * p
    lam_1m = params.lam_sum(1, m + 1)

    pref = 1.0 + 0.0j
    for i in range(p):
        pref *= f(lam - 2 * eta * lam_1m + 2 * eta * i)
    for i in range(1, m + 1):
        k_less = sum(ks[: i - 1])
        for j in range(ks[i - 1]):
            pref *= f(2 * eta * (params.lam(i) - j))
            pref /= f(lam_hat + 2 * eta * (2 * k_less + ks[i - 1] + j - params.lam_sum(1, i + 1)))
            pref /= f(lam_hat + 2 * eta * (2 * k_less + 1 + j - params.lam_sum(1, i)))

    # kappa = 1^{k_1} 2^{k_2} ... m^{k_m}, weakly decreasing
    kappa = []
    for col in range(m, 0, -1):
        kappa.extend([col] * ks[col - 1])

    def phi_tilde(k_col: int, w):
        out = 1.0 / f(w - grid.q[k_col])
        for j in range(k_col + 1, m + 1):
            out = out * f(w - grid.p[j]) / f(w - grid.q[j])
        return out

    shifts = [
        lam_hat + grid.p[kappa[i]] + 2 * eta + 4 * eta * (p - 1 - i) - 2 * eta * params.lam_sum(1, kappa[i])
        for i in range(p)
    ]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(p)):
        term = 1.0 + 0.0j
        for a in range(p):
            for b in range(a + 1, p):
                d = ws[perm[a]] - ws[perm[b]]
                term *= f(d + 2 * eta) / f(d)
        for i in range(p):
            w = ws[perm[i]]
            term *= phi_tilde(kappa[i], w) * f(shifts[i] - w)
        total += term
    return pref * (-1.0) ** p * total
