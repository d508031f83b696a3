"""Closed-form symmetric-function evaluators and lattice-path skew functions.

Two independent computation routes exist for everything here:

* symmetrization formulas (sums over permutations / index subsets), and
* lattice-path dynamic programming over rows of plaquettes,

and both are pinned to the brute-force operator oracle in the tests.

Every permutation sum (``B_mu``, ``c_matrix_formula``, the bijection sum of
``D_nu``, ``identities.check_symmetrization_lemma`` and
``observables._irf_residue_sum``) is one ``_perm_sum`` over a table of
one-point and a table of two-point factors, each filled once.

Every lattice route crosses its rows with the one kernel ``_row_sweep``,
which pushes a {bottom occupations: amplitude} map across a row column by
column and returns a {(tops, carry): amplitude} map.  Rows compose in one
place, ``_strip``: it pushes a bottom signature up a strip one merged law
per row, and either returns the whole {Signature: amplitude} law up to a
column cap (``stoch_B_sum`` and the kappa-sums of ``identities``) or,
pruned to the states that can still reach a given top, that top's value
(``skew_B_lattice``, ``skew_D_lattice``).  ``samplers.enumerate_heights``
sweeps its rows itself, since it absorbs the paths that leave its window.

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
from .special import FunctionMode, InvalidParameterError, _as_int
from .weights import SingularParameterError, plaquette_weights

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
]

MAX_FACTORIAL_SUM = 9
MAX_SUBSET_BIJECTION = 6


@dataclass(frozen=True)
class Signature:
    """Weakly decreasing tuple of nonnegative integers; each part is read by
    ``special._as_int``, so 2.5 or NaN is refused, not truncated."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(_as_int(p, "a signature part", 0) for p in self.parts)
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

    def occupations(self, first: int, last: int) -> tuple:
        """Number of parts equal to each column first..last."""
        return tuple(map(self.parts.count, range(first, last + 1)))


def _sig(s) -> Signature:
    return s if isinstance(s, Signature) else Signature(tuple(s))


def _ratio_chain(u, k: int, cols, grid: PQGrid, f):
    """[prod_{i in cols} f(u - p_i)/f(u - q_i)] / f(u - q_k), multiplied in the order of ``cols``."""
    out = 1.0 / f(u - grid.q[k])
    for i in cols:
        out = out * f(u - grid.p[i]) / f(u - grid.q[i])
    return out


def phi(k: int, u, grid: PQGrid, mode: FunctionMode):
    """phi_k(u) = [prod_{i<k} f(u - p_i)/f(u - q_i)] / f(u - q_k); k is a column of the grid."""
    k = _as_int(k, "the column index", 0, len(grid.q) - 1)
    return _ratio_chain(u, k, range(k), grid, mode.f)


def psi(l: int, v, grid: PQGrid, mode: FunctionMode):
    """psi_l(v) = [prod_{j<l} f(v - q_j)/f(v - p_j)] / f(v - p_l): phi with p and q swapped."""
    return phi(l, v, PQGrid(grid.q, grid.p), mode)


def _perm_sum(U, C):
    """(sum, sum of |term|) of the terms prod_{a<b} C[t_a][t_b] * prod_i U[i][t_i]
    over the injective maps t from the slots 0..n-1 to the points 0..N-1.

    U is n x N and C is N x N; only C's off-diagonal entries are read (none
    if n < 2).  A term multiplies its pair factors in lexicographic (a, b)
    order, then its one-point factors in slot order.
    """
    n = len(U)
    total, size = 0.0 + 0.0j, 0.0
    for t in itertools.permutations(range(len(U[0]) if n else 0), n):
        term = 1.0 + 0.0j
        for a in range(n - 1):
            row = C[t[a]]
            for b in range(a + 1, n):
                term *= row[t[b]]
        for a in range(n):
            term *= U[a][t[a]]
        total += term
        size += abs(term)
    return total, size


def _pair_table(xs, g):
    """The two-point table g(x_i - x_j) of ``_perm_sum``; the diagonal is None."""
    return [[g(x - y) if i != j else None for j, y in enumerate(xs)] for i, x in enumerate(xs)]


def _part_shift(lam: complex, point: complex, i: int, M: int, part: int, params: IrfParams, first: int = 0):
    """The shift of the i-th of M parts in its f(shift +- u) factor:
    lam + point + 2*eta + 4*eta*(M-1-i) - 2*eta*Lambda_[first, part)."""
    eta = params.eta
    return lam + point + 2 * eta + 4 * eta * (M - 1 - i) - 2 * eta * params.lam_sum(first, part)


def _block_factors(groups, lam: complex, params: IrfParams, first: int = 0):
    """The multiplicity-block factors of c_mu, D_nu's prefactor and the c-string:
    for each (v, m, n_less) of ``groups`` (a part value, its multiplicity and
    the number of parts below it) and each j < m, the triple f(2*eta*(Lambda_v - j)),
    f(lam + 2*eta*(2*n_less + m + j - Lambda_[first, v+1))), f(lam + 2*eta*(2*n_less + 1 + j - Lambda_[first, v)))."""
    f, two_eta = params.f, 2 * params.eta
    for v, m, n_less in groups:
        for j in range(m):
            yield (f(two_eta * (params.lam(v) - j)), f(lam + two_eta * (2 * n_less + m + j - params.lam_sum(first, v + 1))),
                   f(lam + two_eta * (2 * n_less + 1 + j - params.lam_sum(first, v))))


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
    return pref, [_part_shift(lam, -grid.q[part], i, M, part, params) for i, part in enumerate(mu.parts)]


def B_mu(mu, lam: complex, us, params: IrfParams):
    """Symmetrization formula for B_mu(lambda; u_1..u_M), M = len(mu).

    The permutation sum is explicit, so M is capped at MAX_FACTORIAL_SUM.
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
    U = [[phi(part, u, grid, params.mode) * f(shift + u) for u in us] for part, shift in zip(mu.parts, shifts)]
    return pref * _perm_sum(U, _pair_table(us, lambda d: f(d - 2 * eta) / f(d)))[0]


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
    groups = ((value, mult, nu.n_less(value)) for value, mult in nu.multiplicities().items() if value)
    for norm, upper, lower in _block_factors(groups, lam_t, params):
        pref = pref * norm / upper / lower

    nz = nu.nonzero()  # nu_1 >= ... >= nu_r >= 1
    shifts = [_part_shift(lam_t, grid.p[part], i, N, part, params) for i, part in enumerate(nz)]
    U = [[psi(part, v, grid, params.mode) * f(shift - v) for v in vs] for part, shift in zip(nz, shifts)]
    # at r = 0 no pair factor is read, so coincident v's stay finite there
    C = _pair_table(vs, lambda d: f(d + 2 * eta) / f(d)) if r else None
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
        bij_total, _ = _perm_sum([[row[i] for i in I] for row in U], [[C[a][b] for b in I] for a in I])
        total += s_fac * bij_total
    return pref * total


def normalize(value, lam: complex, count: int, params: IrfParams):
    """Multiply a B- or D-value by prod_{i<count} f(lambda + 2*eta*i), count an integer >= 0."""
    out = value
    for i in range(_as_int(count, "the factor count", 0)):
        out = out * params.f(lam + 2 * params.eta * i)
    return out


def c_mu(mu, lam: complex, params: IrfParams) -> complex:
    """Squared-norm constant of the orthogonality relations; a zero block norm
    f(2*eta*(Lambda_v - j)), a part repeated past an integer spin, raises SingularParameterError."""
    mu = _sig(mu)
    M = mu.length
    f = params.f
    eta = params.eta
    out = (f(2 * eta) / params.mode.fp0) ** M
    for i in range(M):
        out /= f(lam + 2 * eta * i)
    groups = ((value, mult, mu.n_less(value)) for value, mult in mu.multiplicities().items())
    for norm, upper, lower in _block_factors(groups, lam, params):
        if norm == 0:
            raise SingularParameterError(f"c_mu of {mu.parts} divides by a zero block norm: a part repeats past its column's integer spin")
        out = out * upper * lower / norm
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
# Lattice-path dynamic programming (row sweeps composed into strips).
# ---------------------------------------------------------------------------

_ROW_KIND = {(0, 0): "A", (1, 0): "B", (0, 1): "C", (1, 1): "D"}


def signatures_in_box(lows, highs):
    """Weakly decreasing kappa with lows[i] <= kappa_i <= highs[i], in lexicographic order.

    Every truncated kappa-range of the identity checks is such a box:
    callers fold their interlacing bounds into ``lows`` and ``highs``, integers.
    """
    lows, highs = ([_as_int(b, "a box bound") for b in bounds] for bounds in (lows, highs))
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


def _row_sweep(params: IrfParams, dist: dict, first: int, lam_start: complex, weight_fn, top: tuple | None = None) -> dict:
    """Push a {bottom occupations: amplitude} map through one row of plaquettes.

    Occupation tuples cover columns first, first + 1, ...  One path enters
    from the left at column ``first``, whose top-left unit square has
    filling ``lam_start``.  At column x the carry out of the plaquette fixes
    the top occupation n = m + carry - carry_out, and crossing the column
    advances the filling by 4*eta*n - 2*eta*Lambda_x.  ``weight_fn(kind, m,
    x, lam_x)`` weighs a plaquette (``weights.plaquette_weights``); with
    ``top`` only the configuration with those top occupations is followed.
    The sweep state before column x is (tops left of x and bottoms from x
    on, carry); it fixes lam_x, so paths from different bottoms that reach
    it add up there.  Each column keeps a branch table {(carry, m, lam_x):
    [(carry_out, n, weight, next filling)]}, built the first time the sweep
    meets that key, so ``weight_fn`` is asked once per distinct plaquette of
    the column.  Returns {(top occupations, carry out of the row): amplitude}.
    """
    four_eta = 4 * params.eta
    states = {(occ, 1): [lam_start, amp] for occ, amp in dist.items()}
    for i in range(len(next(iter(dist), ()))):
        x = first + i
        shift = 2 * params.eta * params.lam(x)
        new, table = {}, {}
        for (occ, carry), (lam_x, amp) in states.items():
            m = occ[i]
            branches = table.get((carry, m, lam_x))
            if branches is None:
                branches = table[carry, m, lam_x] = []
                for carry_out in (0, 1):
                    n = m + carry - carry_out
                    if n < 0 or (top is not None and n != top[i]):
                        continue
                    # an empty plaquette weighs exactly 1
                    wgt = 1.0 if carry == carry_out == m == 0 else weight_fn(_ROW_KIND[carry, carry_out], m, x, lam_x)
                    if wgt != 0:
                        branches.append((carry_out, n, wgt, lam_x + four_eta * n - shift))
            for carry_out, n, wgt, lam_next in branches:
                key = (occ if n == m else occ[:i] + (n,) + occ[i + 1 :], carry_out)
                entry = new.get(key)
                if entry is None:
                    new[key] = [lam_next, amp * wgt]
                else:
                    entry[1] += amp * wgt
        states = new
    return {key: amp for key, (_, amp) in states.items()}


def _strip(start, lam: complex, ws, params: IrfParams, kind: str, end=None, cap: int | None = None):
    """Push the signature ``start`` up through the rows of ``ws``, bottom row first.

    Row j carries (lambda + 2*eta*(j-1), w_j), so the strip runs w_k first
    and w_1 last; each row is one ``_row_sweep`` of the whole law, in which
    the paths from different bottoms that reach the same state merge.
    ``kind``:

    * "B": one path enters at column 0 and stops in the row (carry out 0);
    * "stoch": the same with stochastic weights from column 1, whose
      top-left filling is lambda_row - 2*eta*Lambda_0;
    * "D": the path enters at column 0 and leaves with carry 1, times the
      path-independent factor prod_x f(z_x - w + (Lambda_x+1) eta) /
      f(z_x - w + (1-Lambda_x) eta).  The infinite product over empty
      columns telescopes against the normalization, leaving 1/f(lambda_X)
      at the first untouched column X, so appending empty columns leaves a
      D row unchanged: every D row runs over columns 0..start_1.

    With a Signature ``end`` only the states that can still interlace into
    it are kept, the last row's tops are fixed to it, and its value is
    returned.  Without it the whole {Signature: amplitude} law over the
    columns up to ``cap`` (which must hold ``start``; D laws stop at
    start_1) is returned, dropping the paths that carry past the cap.
    """
    start = _sig(start)
    first = 1 if kind == "stoch" else 0
    last = start.max_part() if kind == "D" else cap if end is None else end.max_part()
    if last + (kind == "D") >= params.n_cols:
        raise InvalidParameterError(f"the strip reaches column {last + (kind == 'D')}; the parameter pack has {params.n_cols} columns")
    eta, f = params.eta, params.f
    parts = lambda occ: tuple(first + i for i in reversed(range(len(occ))) for _ in range(occ[i]))

    def reaches_end(sig: tuple, rows: int) -> bool:
        # Gelfand-Tsetlin bounds of ``rows`` more interlacing rows
        if kind == "D":
            return all(end.parts[i] <= p and (i < rows or p <= end.parts[i - rows]) for i, p in enumerate(sig))
        return all(end.parts[i + rows] <= p <= end.parts[i] for i, p in enumerate(sig))

    dist = {start.occupations(first, last): 1.0 + 0.0j}
    for j in range(len(ws), 0, -1):
        w, lam_row = ws[j - 1], lam + 2 * eta * (j - 1)
        top = end.occupations(first, last) if end is not None and j == 1 else None
        lam_start = lam_row - 2 * eta * params.lam(0) if kind == "stoch" else lam_row
        sweep = _row_sweep(params, dist, first, lam_start, plaquette_weights(params, w, kind == "stoch"), top)
        if kind == "D":
            cols = [f(params.z(x) - w + (params.lam(x) + 1) * eta) / f(params.z(x) - w + (-params.lam(x) + 1) * eta) for x in range(last + 1)]
        dist = {}
        for (tops, carry), amp in sweep.items():
            if carry != (kind == "D") or (end is not None and not reaches_end(parts(tops), j - 1)):
                continue
            if kind == "D":
                lam_x = lam_row
                for x, col in enumerate(cols):
                    amp *= col
                    lam_x = lam_x + 4 * eta * tops[x] - 2 * eta * params.lam(x)
                amp = amp / f(lam_x)
            dist[tops] = amp
    law = {Signature(parts(occ)): amp for occ, amp in dist.items()}
    return law if end is None else law.get(end, 0.0 + 0.0j)


def skew_B_lattice(kappa, nu, lam: complex, ws, params: IrfParams, stochastic: bool = False) -> complex:
    """Skew B via the row-by-row plaquette DP (plain or stochastic weights).

    One ``_strip`` from nu up to kappa: the top row carries (lambda, w_1),
    the next (lambda + 2*eta, w_2), and so on.  Stochastic rows start at
    column 1 with top-left filling lambda_row - 2*eta*Lambda_0; signatures
    must then have all parts >= 1.
    """
    kappa, nu = _sig(kappa), _sig(nu)
    if kappa.length != nu.length + len(ws):
        raise InvalidParameterError("need len(kappa) = len(nu) + len(ws)")
    if stochastic and ((kappa.parts and kappa.parts[-1] < 1) or (nu.parts and nu.parts[-1] < 1)):
        raise InvalidParameterError("stochastic skew B needs all parts >= 1")
    return _strip(nu, lam, ws, params, "stoch" if stochastic else "B", end=kappa)


def skew_D_lattice(nu, mu, lam: complex, ws, params: IrfParams) -> complex:
    """Multivariate skew D_{nu/mu}(lambda; w_1..w_n): one D ``_strip`` from nu down to mu.

    Each row lowers the signature by the D-branching rule, nu > kappa >= mu,
    with w_n at lambda + 2*eta*(n-1) first; no numerical depth limit enters.
    """
    nu, mu = _sig(nu), _sig(mu)
    if nu.length != mu.length:
        raise InvalidParameterError("skew D needs equal lengths")
    return _strip(nu, lam, ws, params, "D", end=mu)


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


def stoch_B_sum(nu, lam: complex, us, params: IrfParams):
    """sum_kappa B^stoch_{kappa/nu}(lambda; u's) with monitored geometric tail.

    Evaluated as one stochastic ``_strip`` law of nu over the columns
    1..n_cols - 2, the cap; a path carrying past the cap loses the mass of
    the kappa's that would exceed it.  The law is grouped by kappa_1 and
    declared converged once the last three groups are each below 1e-12 of
    the total with decaying ratios.  Returns (total, tail), the tail as the
    dict {"terms_used", "tail_estimate", "converged"} that a report stores.
    A cap below max(nu_1, 1) or a nu with a zero part (the stochastic
    columns start at 1) raises InvalidParameterError.
    """
    nu = _sig(nu)
    if nu.parts and nu.parts[-1] < 1:
        raise InvalidParameterError("stochastic sums need all parts of nu >= 1")
    cap = params.n_cols - 2
    if cap < max(nu.max_part(), 1):
        raise InvalidParameterError(f"the cap n_cols - 2 = {cap} is below max(nu_1, 1) = {max(nu.max_part(), 1)}: no kappa fits")
    dist = _strip(nu, lam, us, params, "stoch", cap=cap)
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
        small = all(g < 1e-12 * max(1e-30, abs(total)) for g in last3)
        noise = last3[2] < 1e-13 * max(abs(total), 1e-30)
        converged = small and (noise or last3[2] <= 0.5 * max(last3[1], 1e-300))
        tail = 2 * last3[2]
    return total, {"terms_used": len(dist), "tail_estimate": tail, "converged": converged}


def c_matrix_formula(ws, ks, lam: complex, params: IrfParams) -> complex:
    """Symmetrized closed form of the c-string matrix element.

    Columns 1..m of the parameter pack host the tensor factors (no
    boundary column), k_i is the occupation of column i, and the result
    is the coefficient of the all-highest-weight vector.
    """
    p = len(ws)
    ks = tuple(_as_int(k, "an occupation k_i", 0) for k in ks)
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
    for norm, upper, lower in _block_factors(((i, ks[i - 1], sum(ks[: i - 1])) for i in range(1, m + 1)), lam_hat, params, first=1):
        pref = pref * norm / upper / lower

    # kappa = 1^{k_1} 2^{k_2} ... m^{k_m}, weakly decreasing
    kappa = []
    for col in range(m, 0, -1):
        kappa.extend([col] * ks[col - 1])

    shifts = [_part_shift(lam_hat, grid.p[part], i, p, part, params, first=1) for i, part in enumerate(kappa)]
    U = [[_ratio_chain(w, part, range(part + 1, m + 1), grid, f) * f(shift - w) for w in ws] for part, shift in zip(kappa, shifts)]
    return pref * (-1.0) ** p * _perm_sum(U, _pair_table(ws, lambda d: f(d + 2 * eta) / f(d)))[0]
