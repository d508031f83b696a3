"""Executable verification of the named identities; every check returns a
``special.CheckReport``, passed or failed by ``special._rel``.

Each gate is a constant of its check, which no caller can scale: 1e-10
closed form (TOL_CLOSED, the two degenerate weight tables included), 1e-7
truncated series (TOL_SERIES), 1e-6 quadrature (TOL_QUAD; off the
orthogonality diagonal times max(1, |c_mu|)) and stochastic sums, 1e-12
hat ratios and the nested sum, 1e-8 the oracle and the stochastic
two-route reports.  A passing check whose monitored truncation tail
exceeds a tenth of its gate is "passed-with-warning".

Every truncated kappa-sum (skew-Cauchy, the two Pieri rules, Cauchy,
rho-Cauchy) runs through :func:`_capped_sum`, whose tail is the mass on
kappa_1 = cap; each but skew-Cauchy reports through :func:`_series_report`.
A lattice factor with a fixed bottom (B_{kappa/nu} in skew-Cauchy and pieri2,
D_{nu/rho} in skew-Cauchy, the lattice rho-Cauchy B_kappa) is read off one
``symfunc._strip`` law of that bottom, not one lattice call per kappa.  The
skew-Cauchy, Pieri and Cauchy right-hand sides take their Cauchy-kernel
product from :func:`_cauchy_kernel`.  The contour checks (orthogonality,
the D and D-rho integrals) take their nested circles from
:func:`_strong_family`; the two D integrals share :func:`_kernel_integral`.

The random-draw batteries (``check_stochasticity`` to
``check_stochastic_weights``) draw a fixed number of times from the caller's
numpy Generator; a report names its worst draw by ``_rel`` and its inputs.
``SUITES`` is the one declaration of ``dynirf verify``: suite name -> (seed
salt, battery), in run order; a battery maps (Generator, pack) to reports.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .oracle import c_matrix_element, skew_B_oracle, skew_D_oracle
from .params import IrfParams, _pair_guard, check_admissible, params_to_json_dict, pq_grid, preset, random_pack, _c2pair as _c
from .special import CheckReport, FunctionMode, InvalidParameterError, _as_int, _rel, contour_integral_factored
from .symfunc import (
    B_mu,
    _bmu_prefactor,
    _part_shift,
    _pair_table,
    _perm_sum,
    _strip,
    c_matrix_formula,
    phi,
    D_nu,
    D_rho,
    Signature,
    c_mu,
    normalize,
    psi,
    signatures_in_box,
    skew_B_lattice,
    skew_D_lattice,
    stoch_B_formula,
    stoch_B_sum,
)
from .weights import SingularParameterError, WeightContext, dyn6v_weight, hat_ratio, rational_weight, weight

__all__ = [
    "TOL_CLOSED",
    "TOL_SERIES",
    "TOL_QUAD",
    "check_symmetrization_lemma",
    "check_skew_cauchy",
    "check_pieri2",
    "check_pieri",
    "check_cauchy",
    "check_cauchy_rho",
    "check_orthogonality",
    "check_D_integral",
    "check_D_rho_integral",
    "check_stoch_sum",
    "check_nested_sum_lemma",
    "check_stochasticity",
    "check_sine_identity",
    "check_hat_ratios",
    "check_degenerate_weights",
    "check_oracle_formulas",
    "check_stochastic_weights",
    "SUITES",
]

TOL_CLOSED = 1e-10
TOL_SERIES = 1e-7
TOL_QUAD = 1e-6


def check_symmetrization_lemma(m: int, vs: Sequence[complex], beta: complex, mode: FunctionMode) -> CheckReport:
    """Permutation sum against f(beta)f(2beta)...f(m beta)/f(beta)^m.

    The terms divide by f(v_i - v_j), f(v_k) and f(beta): a zero among them
    raises SingularParameterError before the sum.  truncation_info carries
    the sum's conditioning sum|term| / |sum term|, the factor by which close
    v's amplify rounding in the lhs; both sums come from one
    ``symfunc._perm_sum``.
    """
    m = _as_int(m, "the symmetrization order m", 1, 7)
    if len(vs) != m:
        raise InvalidParameterError("need exactly m points")
    f = mode.f
    poles = [vs[a] - vs[b] for a in range(m) for b in range(a + 1, m)] + list(vs) + [beta]
    if min(abs(f(x)) for x in poles) <= 1e-12:
        raise SingularParameterError("symmetrization check needs distinct v's and f(v_k), f(beta) away from 0")
    U = [[f(v + (m - 2 * k - 1) * beta) / f(v) for v in vs] for k in range(m)]
    total, size = _perm_sum(U, _pair_table(vs, lambda d: f(d - beta) / f(d)))
    rhs = 1.0 + 0.0j
    for j in range(1, m + 1):
        rhs *= f(j * beta)
    rhs /= f(beta) ** m
    return CheckReport(
        name=f"symmetrization-m{m}-{mode.kind}",
        parameters={"m": m, "beta": _c(beta), "vs": [_c(v) for v in vs]},
        lhs=total,
        rhs=rhs,
        tolerance=TOL_CLOSED,
        truncation_info={"conditioning": size / abs(total) if total else math.inf},
    )


def _capped_sum(kappas, first, second, cap: int):
    """Sum of first(kappa) * second(kappa) over kappas, and its tail.

    A kappa whose first factor is 0 is skipped before its second factor is
    evaluated.  The tail sums |term| over kappa_1 = cap, the last layer a
    sum truncated at kappa_1 <= cap keeps.
    """
    total, tail = 0.0 + 0.0j, 0.0
    for kappa in kappas:
        a = first(kappa)
        if a == 0:
            continue
        term = a * second(kappa)
        total += term
        if kappa.max_part() == cap:
            tail += abs(term)
    return total, tail


def _cauchy_kernel(us, vs, params: IrfParams) -> complex:
    """The Cauchy-kernel product prod_{u in us, v in vs} f(v - u - 2*eta) / f(v - u)."""
    f, eta = params.f, params.eta
    return math.prod(f(v - u - 2 * eta) / f(v - u) for u in us for v in vs)


def _convergence_monitor(u: complex, v: complex, lam: complex, n: int, params: IrfParams, depth: int) -> float:
    """|product| in the skew-Cauchy convergence condition at a given depth."""
    f, eta = params.f, params.eta
    out = f(u - v + lam - 2 * eta * (params.lam_sum(0, depth + 1) - 2 * n)) / f(
        lam - 2 * eta * (params.lam_sum(0, depth + 1) - 2 * n)
    )
    for i in range(depth + 1):
        z_i, L_i = params.columns[i]
        out *= f(z_i - u + (-L_i + 1) * eta) / f(z_i - u + (L_i + 1) * eta)
        out *= f(z_i - v + (L_i + 1) * eta) / f(z_i - v + (-L_i + 1) * eta)
    return abs(out)


def check_skew_cauchy(mu, nu, us, vs, params: IrfParams) -> CheckReport:
    """Skew-Cauchy identity at lam = params.lambda0 with k = len(us), l = len(vs),
    kappa-sum truncated at kappa_1 <= 12; a mu_1 past 12 is refused.

    At k = l = 1 the report also carries the convergence-condition product
    at two depths.
    """
    mu, nu, cap = Signature(tuple(mu)), Signature(tuple(nu)), 12
    k, l = len(us), len(vs)
    if not k or not l or mu.length != nu.length + k:
        raise InvalidParameterError("need len(mu) = len(nu) + len(us) and at least one u and one v")
    if cap < mu.max_part():
        raise InvalidParameterError(f"mu_1 = {mu.max_part()} is past the kappa-sum's cap {cap}: the kappa-box would be empty")
    lam, eta = params.lambda0, params.eta
    b_law = _strip(nu, lam + 2 * eta * l, us, params, "B", cap=cap)
    lhs, tail = _capped_sum(
        signatures_in_box(mu.parts, (cap,) * mu.length),
        lambda kappa: skew_D_lattice(kappa, mu, lam, vs, params),
        lambda kappa: b_law.get(kappa, 0.0 + 0.0j),
        cap,
    )
    # rho runs over the whole D law of nu: every rho that nu lowers to
    d_law = _strip(nu, lam + 2 * eta * k, vs, params, "D")
    rhs, _ = _capped_sum(d_law, lambda rho: skew_B_lattice(mu, rho, lam, us, params), d_law.get, mu.max_part())
    rhs *= _cauchy_kernel(us, vs, params)
    info = {"cap": cap, "tail_estimate": tail}
    if k == l == 1:
        depth = (params.n_cols - 1) // 2
        info["convergence_product"] = [_convergence_monitor(us[0], vs[0], lam, mu.length, params, d) for d in (depth, 2 * depth)]
    return CheckReport(
        name=f"skew-cauchy-{mu.parts}-{nu.parts}-l{l}",
        parameters={"mu": mu.parts, "nu": nu.parts, "us": [_c(u) for u in us], "vs": [_c(v) for v in vs], "lam": _c(lam)},
        lhs=lhs,
        rhs=rhs,
        tolerance=TOL_SERIES,
        truncation_info=info,
    )


def _b0k_norm_factor(count: int, lam: complex, u: complex, params: IrfParams) -> complex:
    # B^norm of the column-zero stack: the per-variable closed factor of the
    # Cauchy identity right-hand side.
    f, eta = params.f, params.eta
    z0, L0 = params.columns[0]
    return f(2 * eta) * f(lam - z0 + u + eta * (-L0 + 2 * count - 1)) / f(z0 - u + (L0 + 1) * eta)


def _series_report(name: str, parameters: dict, lhs, rhs, cap: int, tail) -> CheckReport:
    """The report of a kappa-sum truncated at kappa_1 <= cap, gated at TOL_SERIES."""
    return CheckReport(name, parameters, lhs, rhs, TOL_SERIES, {"cap": cap, "tail_estimate": tail})


def check_pieri2(nu, u, vs, params: IrfParams) -> CheckReport:
    """The second Pieri rule at lam = params.lambda0, truncated at kappa_1 <= 12:
    sum_kappa D_kappa(lam; vs) B_{kappa/nu}(lam + 2*eta*l; u), l = len(vs)."""
    lam, eta, f, cap = params.lambda0, params.eta, params.f, 12
    nu, l = Signature(tuple(nu)), len(vs)
    b_law = _strip(nu, lam + 2 * eta * l, [u], params, "B", cap=cap)
    lhs, tail = _capped_sum(
        signatures_in_box(nu.parts + (0,), (cap,) + nu.parts),
        lambda kappa: D_nu(kappa, lam, list(vs), params),
        lambda kappa: b_law.get(kappa, 0.0 + 0.0j),
        cap,
    )
    rhs = _b0k_norm_factor(nu.length + 1, lam, u, params) / f(lam) * _cauchy_kernel([u], vs, params)
    rhs *= D_nu(nu, lam + 2 * eta, list(vs), params)
    pars = {"nu": nu.parts, "u": _c(u), "vs": [_c(x) for x in vs], "lam": _c(lam)}
    return _series_report(f"pieri2-nu{nu.parts}-l{l}", pars, lhs, rhs, cap, tail)


def check_pieri(nu, us, v, params: IrfParams) -> CheckReport:
    """The Pieri rule at lam = params.lambda0, truncated at kappa_1 <= 12, len(nu) = len(us) = k:
    sum_kappa D^norm_{kappa/nu}(lam; v) B^norm_kappa(lam + 2*eta; us)."""
    lam, eta, cap = params.lambda0, params.eta, 12
    nu, k = Signature(tuple(nu)), len(us)
    if nu.length != k:
        raise InvalidParameterError("pieri needs len(nu) = len(us)")
    lhs, tail = _capped_sum(
        signatures_in_box(nu.parts, (cap,) * nu.length),
        lambda kappa: normalize(skew_D_lattice(kappa, nu, lam, [v], params), lam, 1, params),
        lambda kappa: normalize(B_mu(kappa, lam + 2 * eta, list(us), params), lam + 2 * eta, k, params),
        cap,
    )
    rhs = normalize(B_mu(nu, lam, list(us), params), lam, k, params) * _cauchy_kernel(us, [v], params)
    pars = {"mu": nu.parts, "v": _c(v), "us": [_c(x) for x in us], "lam": _c(lam)}
    return _series_report(f"pieri-mu{nu.parts}", pars, lhs, rhs, cap, tail)


def check_cauchy(us, vs, params: IrfParams) -> CheckReport:
    """The Cauchy identity at lam = params.lambda0, truncated at kappa_1 <= 12, k = len(us), l = len(vs):
    sum_kappa D^norm_kappa(lam; vs) B^norm_kappa(lam + 2*eta*l; us)."""
    lam, eta, cap = params.lambda0, params.eta, 12
    k, l = len(us), len(vs)
    if not k or not l:
        raise InvalidParameterError("cauchy needs us and vs")
    lhs, tail = _capped_sum(
        signatures_in_box((0,) * k, (cap,) * k),
        lambda kappa: normalize(D_nu(kappa, lam, list(vs), params), lam, l, params),
        lambda kappa: normalize(B_mu(kappa, lam + 2 * eta * l, list(us), params), lam + 2 * eta * l, k, params),
        cap,
    )
    rhs = math.prod(_b0k_norm_factor(k, lam, u_i, params) for u_i in us) * _cauchy_kernel(us, vs, params)
    pars = {"us": [_c(x) for x in us], "vs": [_c(x) for x in vs], "lam": _c(lam)}
    return _series_report(f"cauchy-k{k}l{l}", pars, lhs, rhs, cap, tail)


def check_cauchy_rho(N: int, us, params: IrfParams) -> CheckReport:
    """rho-specialized Cauchy identity at lam = params.lambda0, truncated at
    kappa_1 <= 14 (trigonometric mode only)."""
    lam, cap = params.lambda0, 14
    N = _as_int(N, "the variable count N", 0)
    if len(us) != N:
        raise InvalidParameterError("need exactly N spectral arguments")
    f, eta = params.f, params.eta
    grid = pq_grid(params)
    # the symmetrization formula has removable singularities at coincident
    # u's; the lattice DP is the natural evaluator there
    distinct = all(
        abs(us[a] - us[b]) > 1e-8 for a in range(N) for b in range(a + 1, N)
    )
    if distinct:
        route, b_eval = "symmetrization", lambda kappa: B_mu(kappa, lam, list(us), params)
    else:
        route, b_law = "lattice", _strip((), lam, list(us), params, "B", cap=cap)
        b_eval = lambda kappa: b_law.get(kappa, 0.0 + 0.0j)
    lhs, tail = _capped_sum(
        signatures_in_box((1,) * N, (cap,) * N),
        lambda kappa: D_rho(kappa, lam, params),
        lambda kappa: normalize(b_eval(kappa), lam, N, params),
        cap,
    )
    rhs = (-f(2 * eta)) ** N
    for u in us:
        rhs *= f(u - grid.p[0]) / f(u - grid.q[0])
    return _series_report(f"cauchy-rho-N{N}-{route}", {"us": [_c(u) for u in us], "lam": _c(lam)}, lhs, rhs, cap, tail)


def _strong_family(params: IrfParams, M: int) -> tuple:
    """The nested (strong) circles of an M-fold kernel integral, pair-guarded."""
    gammas = check_admissible(params, M, strong=True)
    _pair_guard(gammas, -2 * params.eta, params)
    return gammas


def _kernel_unary(nu: Signature, lam: complex, params: IrfParams):
    """Per-variable factors of the orthogonality kernel (psi's and shifts)."""
    grid = pq_grid(params)
    f, M = params.f, nu.length
    shifts = [_part_shift(lam, grid.p[part], i, M, part, params) for i, part in enumerate(nu.parts)]
    return [lambda x, part=part, shift=shift: psi(part, x, grid, params.mode) * f(shift - x) for part, shift in zip(nu.parts, shifts)]


def _bmu_factored_terms(mu: Signature, nu: Signature, lam: complex, params: IrfParams):
    """Factored terms for B_mu(lam; u) times the psi-kernel of nu.

    Returns (prefactor, terms) for :func:`contour_integral_factored`; the
    permutation sum of B_mu contributes one term per sigma.  B_mu's cross
    factor for a pair a < b that sigma keeps in order cancels the kernel's,
    so a term carries a binary on the pairs sigma inverts only; as f is odd,
    that binary is -f(y - x - 2*eta) / f(x - y - 2*eta).  The M^2 unaries,
    one per (slot, variable), are shared across the terms.
    """
    grid = pq_grid(params)
    f, eta = params.f, params.eta
    M = mu.length
    pref, shifts_b = _bmu_prefactor(mu, lam, params)
    kern = _kernel_unary(nu, lam, params)

    def reversed_(x, y):
        return -f(y - x - 2 * eta) / f(x - y - 2 * eta)

    def unary(i, v):
        part, shift = mu.parts[i], shifts_b[i]
        return lambda x: phi(part, x, grid, params.mode) * f(shift + x) * kern[v](x)

    unaries_at = [[unary(i, v) for v in range(M)] for i in range(M)]  # [slot][variable]
    terms = []
    for sigma in itertools.permutations(range(M)):
        pos = [0] * M  # pos[v] = i with sigma(i) = v
        for i, v in enumerate(sigma):
            pos[v] = i
        unaries = [unaries_at[pos[v]][v] for v in range(M)]
        binaries = {(a, b): reversed_ for a in range(M) for b in range(a + 1, M) if pos[a] > pos[b]}
        terms.append((unaries, binaries))
    return pref, terms


def check_orthogonality(mu, nu, params: IrfParams) -> CheckReport:
    """M-fold contour integral of B_mu against the psi-kernel vs c_mu 1_{nu=mu},
    at lam = params.lambda0."""
    mu, nu = Signature(tuple(mu)), Signature(tuple(nu))
    if mu.length != nu.length:
        raise InvalidParameterError("orthogonality needs equal lengths")
    lam = params.lambda0
    gammas = _strong_family(params, mu.length)
    pref, terms = _bmu_factored_terms(mu, nu, lam, params)
    lhs = pref * contour_integral_factored(terms, gammas, tol=1e-9)
    norm = c_mu(mu, lam, params)
    rhs = norm if mu == nu else 0.0 + 0.0j
    return CheckReport(
        name=f"orthogonality-{mu.parts}-{nu.parts}",
        parameters={"mu": mu.parts, "nu": nu.parts, "lam": _c(lam), "c_mu": _c(norm)},
        lhs=lhs,
        rhs=rhs,
        tolerance=TOL_QUAD if mu == nu else TOL_QUAD * max(1.0, abs(norm)),
    )


def _kernel_integral(nu: Signature, n: int, extra, gammas, params: IrfParams, lam: complex) -> complex:
    """(-1)^N f(2*eta)^N / (c_nu prod_{i=-n}^{N-1} f(lam + 2*eta*i)) times the
    N-fold contour integral of the psi-kernel of nu with ``extra`` on each variable."""
    f, eta = params.f, params.eta
    N = nu.length
    unaries = [lambda x, k=k: k(x) * extra(x) for k in _kernel_unary(nu, lam, params)]
    cross = lambda x, y: f(x - y) / f(x - y - 2 * eta)
    binaries = {(a, b): cross for a in range(N) for b in range(a + 1, N)}
    integral = contour_integral_factored([(unaries, binaries)], gammas, tol=1e-9)
    pref = (-1.0) ** N * f(2 * eta) ** N / c_mu(nu, lam, params)
    for i in range(-n, N):
        pref /= f(lam + 2 * eta * i)
    return pref * integral


def check_D_integral(nu, n: int, vs, params: IrfParams) -> CheckReport:
    """Integral representation of D_nu(lam - 2*eta*n; vs) vs the formula, lam = params.lambda0."""
    nu = Signature(tuple(nu))
    n = _as_int(n, "the spectral point count n", 1)
    if len(vs) != n:
        raise InvalidParameterError("need exactly n spectral points")
    lam = params.lambda0
    N = nu.length
    f, eta = params.f, params.eta
    grid = pq_grid(params)
    gammas = _strong_family(params, N)
    if any(abs(v - g.center) <= g.radius for g in gammas for v in vs):
        raise InvalidParameterError("v-points must lie outside the contours")

    def extra(x):
        out = f(lam + x - grid.q[0] + 2 * eta * (N - n)) / f(x - grid.q[0])
        for v in vs:
            out = out * f(x - v + 2 * eta) / f(x - v)
        return out

    return CheckReport(
        name=f"D-integral-{nu.parts}-n{n}",
        parameters={"nu": nu.parts, "n": n, "vs": [_c(v) for v in vs], "lam": _c(lam)},
        lhs=_kernel_integral(nu, n, extra, gammas, params, lam),
        rhs=D_nu(nu, lam - 2 * eta * n, list(vs), params),
        tolerance=TOL_QUAD,
    )


def check_D_rho_integral(nu, params: IrfParams) -> CheckReport:
    """rho-specialized integral of D^norm vs the closed form at lam =
    params.lambda0 (incl. the vanishing at nu_N = 0)."""
    nu = Signature(tuple(nu))
    lam, f, grid = params.lambda0, params.f, pq_grid(params)
    gammas = _strong_family(params, nu.length)
    return CheckReport(
        name=f"D-rho-integral-{nu.parts}",
        parameters={"nu": nu.parts, "lam": _c(lam)},
        lhs=_kernel_integral(nu, 0, lambda x: f(x - grid.p[0]) / f(x - grid.q[0]), gammas, params, lam),
        rhs=D_rho(nu, lam, params),
        tolerance=TOL_QUAD,
    )


def check_stoch_sum(nu, us, params: IrfParams) -> CheckReport:
    """Stochastic sum-to-one at the pack's lambda0, with the monitored tail of ``stoch_B_sum``."""
    total, tail = stoch_B_sum(nu, params.lambda0, list(us), params)
    return CheckReport(
        name=f"stoch-sum-to-one-{tuple(nu)}-k{len(us)}",
        parameters={"nu": tuple(nu), "us": [_c(u) for u in us], "lam": _c(params.lambda0)},
        lhs=total,
        rhs=1.0 + 0.0j,
        tolerance=1e-6,
        truncation_info=tail,
    )


def check_nested_sum_lemma(n: int, Ts: Sequence[int], Y) -> CheckReport:
    """Brute-force distinct-tuple sum with inv-shifted indices vs the product.

    Stated and used for weakly increasing bounds T_1 <= ... <= T_n (that is
    the shape the height function produces); the product side is 0 when a
    factor's index range is empty (T_j < j).
    """
    n = _as_int(n, "the factor count n", 0, 5)
    Ts = tuple(_as_int(t, "a bound T_j", high=8) for t in Ts)
    if any(Ts[i] > Ts[i + 1] for i in range(len(Ts) - 1)):
        raise InvalidParameterError("nested-sum lemma needs weakly increasing T's")
    if len(Ts) != n:
        raise InvalidParameterError("need one T per factor")
    if len(Y) < n or any(len(Y[j]) < Ts[j] for j in range(n)):
        raise InvalidParameterError("Y needs n rows, row j holding at least T_j values")

    def y(j: int, t: int) -> float:
        return float(Y[j - 1][t - 1])

    lhs = 0.0
    for tup in itertools.product(*[range(1, T + 1) for T in Ts]):
        if len(set(tup)) != n:
            continue
        term = 1.0
        for i in range(1, n + 1):
            inv = sum(1 for j in range(i - 1) if tup[j] > tup[i - 1])
            term *= y(i, tup[i - 1] + inv)
        lhs += term
    rhs = 1.0
    for j in range(1, n + 1):
        if Ts[j - 1] < j:
            rhs = 0.0
            break
        rhs *= sum(y(j, t) for t in range(j, Ts[j - 1] + 1))
    return CheckReport(
        name=f"nested-sum-n{n}",
        parameters={"n": n, "Ts": list(Ts)},
        lhs=lhs,
        rhs=rhs,
        tolerance=1e-12,
    )


# Random-draw batteries; a caller can thread one Generator through several.
WEIGHT_DRAWS = SINE_DRAWS = 1000
HAT_DRAWS, DEGENERATE_DRAWS, ORACLE_DRAWS, CSTRING_DRAWS, STOCH_DRAWS = 200, 50, 50, 15, 50


class _Worst:
    """Running max(worst, residual) and the parameters of the draw that set it."""

    def __init__(self):
        self.value, self.draw = 0.0, None

    def see(self, residual, draw) -> None:
        """``draw()`` builds the draw's parameters; it runs only when they are kept."""
        if residual > self.value or self.draw is None:
            self.draw = draw()
        self.value = max(self.value, residual)

    def report(self, name: str, parameters: dict, tolerance: float) -> CheckReport:
        return CheckReport(name, {**parameters, **(self.draw or {})}, self.value, 0.0, tolerance)


def _random_plaquette(rng: np.random.Generator, mode: FunctionMode) -> WeightContext:
    lam, w, z, L = rng.standard_normal(4) * 0.4 + 1j * rng.standard_normal(4) * 0.15
    eta = rng.standard_normal() * 0.08 + 1j * rng.standard_normal() * 0.03
    return WeightContext(lam, w, z, L, eta, mode)


def _plaquette_draw(i: int, k: int, ctx: WeightContext) -> dict:
    return {"worst_draw": i, "k": k, "lam": _c(ctx.lam), "w": _c(ctx.w), "z": _c(ctx.z), "Lambda": _c(ctx.Lambda), "eta": _c(ctx.eta)}


def check_stochasticity(rng: np.random.Generator, mode: FunctionMode) -> CheckReport:
    """Stochastic sum rules B + D = 1 and, for k >= 1, A + C = 1 over random plaquettes."""
    worst = _Worst()
    for i in range(WEIGHT_DRAWS):
        ctx = _random_plaquette(rng, mode)
        k = int(rng.integers(0, 4))
        draw = lambda: _plaquette_draw(i, k, ctx)
        wt = lambda kind: weight(kind, k, ctx, stochastic=True)
        worst.see(_rel(wt("B") + wt("D"), 1), draw)
        if k >= 1:
            worst.see(_rel(wt("A") + wt("C"), 1), draw)
    return worst.report(f"stochasticity-{WEIGHT_DRAWS}draws-{mode.kind}", {"draws": WEIGHT_DRAWS, "mode": mode.kind}, TOL_CLOSED)


def check_sine_identity(rng: np.random.Generator) -> CheckReport:
    """f(B-C) f(w-A) = f(A-C) f(w-B) - f(A-B) f(w-C) for f = sin at random points (A, B, C, w)."""
    f = FunctionMode.trigonometric().f
    worst = _Worst()
    for i in range(SINE_DRAWS):
        A, B, C, w = rng.standard_normal(4) * 0.7 + 1j * rng.standard_normal(4) * 0.3
        rhs = f(A - C) * f(w - B) - f(A - B) * f(w - C)
        worst.see(_rel(f(B - C) * f(w - A), rhs), lambda: {"worst_draw": i, "points": [_c(x) for x in (A, B, C, w)]})
    return worst.report(f"sine-identity-{SINE_DRAWS}draws", {"draws": SINE_DRAWS}, TOL_CLOSED)


def check_hat_ratios(rng: np.random.Generator) -> CheckReport:
    """hat_ratio times the plain weight against the stochastic weight, all four
    kinds, over random trigonometric plaquettes with k in 1..3."""
    worst = _Worst()
    for i in range(HAT_DRAWS):
        ctx = _random_plaquette(rng, FunctionMode.trigonometric())
        k = int(rng.integers(1, 4))
        for kind in "ABCD":
            got = hat_ratio(kind, k, ctx.lam, ctx.Lambda, ctx.eta, ctx.mode) * weight(kind, k, ctx)
            worst.see(_rel(got, weight(kind, k, ctx, stochastic=True)), lambda: _plaquette_draw(i, k, ctx))
    return worst.report("hat-ratio-consistency", {"draws": HAT_DRAWS}, 1e-12)


# each non-trivial spin-1/2 symbol and the stochastic weight (kind, k) it degenerates at Lambda = 1
_SPIN_HALF = {"vertical": ("A", 1), "turn_up": ("B", 0), "turn_right": ("C", 1), "horizontal": ("D", 0)}


def check_degenerate_weights(rng: np.random.Generator) -> list:
    """The two spin-1/2 closed forms against ``weight(kind, k, ctx,
    stochastic=True)`` at Lambda = 1, the four non-trivial symbols over
    random plaquettes: ``dyn6v_weight`` at q = exp(-4 pi i eta), xi =
    exp(2 pi i z), u = exp(2 pi i (eta - w)) in trigonometric mode, with
    |Re eta| <= 0.2, as its principal sqrt(q) is exp(-2 pi i eta) only for
    |Re eta| < 1/4, and ``rational_weight`` in rational mode at eta = 1/2.
    Both run at TOL_CLOSED: the worst gaps over seeds 0-5099 were 2.1e-13
    (dyn6v, a draw with z - w + 2 eta 5e-4 from 0) and 1.8e-15 (rational),
    while a relative error of 1e-9 in either table fails."""
    worst_dyn, worst_rat = _Worst(), _Worst()
    trig, rat = FunctionMode.trigonometric(), FunctionMode.rational()
    for i in range(DEGENERATE_DRAWS):
        lam, w, z = rng.standard_normal(3) * 0.4 + 1j * rng.standard_normal(3) * 0.15
        eta = rng.uniform(-0.2, 0.2) + 1j * rng.standard_normal() * 0.03
        dyn, rational = WeightContext(lam, w, z, 1.0, eta, trig), WeightContext(lam, w, z, 1.0, 0.5, rat)
        q, xi, u = np.exp(-4j * np.pi * eta), np.exp(2j * np.pi * z), np.exp(2j * np.pi * (eta - w))
        for symbol, (kind, k) in _SPIN_HALF.items():
            got = dyn6v_weight(symbol, lam, q, xi, u)
            worst_dyn.see(_rel(got, weight(kind, k, dyn, stochastic=True)), lambda: {**_plaquette_draw(i, k, dyn), "symbol": symbol})
            got = rational_weight(symbol, lam, z, w)
            worst_rat.see(_rel(got, weight(kind, k, rational, stochastic=True)), lambda: {**_plaquette_draw(i, k, rational), "symbol": symbol})
    return [
        worst_dyn.report(f"dyn6v-weights-{DEGENERATE_DRAWS}draws", {"draws": DEGENERATE_DRAWS}, TOL_CLOSED),
        worst_rat.report(f"rational-weights-{DEGENERATE_DRAWS}draws", {"draws": DEGENERATE_DRAWS}, TOL_CLOSED),
    ]


def check_oracle_formulas(rng: np.random.Generator) -> list:
    """B, D and c-string reports: closed forms against the operator oracle on
    random packs, trigonometric at odd draws and elliptic (tau = 1.4i) at even
    ones; a c-string draw with sum(ks) outside 1..3 is skipped."""
    worst_b, worst_d, worst_c = _Worst(), _Worst(), _Worst()
    pack = lambda i: random_pack(rng, FunctionMode.trigonometric() if i % 2 else FunctionMode.elliptic(1.4j))
    points = lambda n: [complex(a, b) for a, b in 0.3 + 0.2 * rng.standard_normal((n, 2))]
    signature = lambda: tuple(sorted(rng.integers(0, 5, size=rng.integers(1, 4)))[::-1])

    def draw(i, P, lam, sig_key, sig, points_key, pts):
        return {"worst_draw": i, "pack": params_to_json_dict(P), "lam": _c(lam), sig_key: [int(p) for p in sig], points_key: [_c(x) for x in pts]}

    for i in range(ORACLE_DRAWS):
        P = pack(i)
        lam = complex(0.3 + 0.2 * rng.standard_normal(), 0.15 + 0.1 * rng.standard_normal())
        mu = signature()
        us = points(len(mu))
        worst_b.see(_rel(B_mu(mu, lam, us, P), skew_B_oracle(mu, (), lam, us, P)), lambda: draw(i, P, lam, "mu", mu, "us", us))
        nu = signature()
        vs = points(int(rng.integers(max(1, len([p for p in nu if p > 0])), 4)))
        worst_d.see(_rel(D_nu(nu, lam, vs, P), skew_D_oracle(nu, (0,) * len(nu), lam, vs, P)), lambda: draw(i, P, lam, "nu", nu, "vs", vs))
    for i in range(CSTRING_DRAWS):
        P = pack(i)
        lam = complex(0.3 + 0.2 * rng.standard_normal(), 0.15)
        ks = tuple(int(v) for v in rng.integers(0, 3, size=int(rng.integers(1, 4))))
        if not 1 <= sum(ks) <= 3:
            continue
        ws = points(sum(ks))
        worst_c.see(_rel(c_matrix_formula(ws, ks, lam, P), c_matrix_element(ws, ks, lam, P)), lambda: draw(i, P, lam, "ks", ks, "ws", ws))
    return [
        worst_b.report(f"oracle-B-symmetrization-{ORACLE_DRAWS}draws", {"draws": ORACLE_DRAWS}, 1e-8),
        worst_d.report(f"oracle-D-symmetrization-{ORACLE_DRAWS}draws", {"draws": ORACLE_DRAWS}, 1e-8),
        worst_c.report("oracle-c-string-formula", {"draws": CSTRING_DRAWS}, 1e-8),
    ]


def _near(rng: np.random.Generator, center: complex, sd_re: float, sd_im: float, k: int) -> list:
    """k points center + (sd_re * N, sd_im * N), two standard normals each, real part first."""
    return [center + complex(sd_re * rng.standard_normal(), sd_im * rng.standard_normal()) for _ in range(k)]


def check_stochastic_weights(rng: np.random.Generator) -> list:
    """Stochastic-weight theorem on trig-admissible, lam = 0.41 + 0.23i, u's
    near p_1: the lattice DP of B^stoch_{kappa/nu}, kappa = nu plus k extra
    parts, against its conjugation formula (``nonzero_draws`` counts the
    draws where either is nonzero), then three :func:`check_stoch_sum`."""
    P, lam = preset("trig-admissible"), 0.41 + 0.23j
    by_p1 = (rng, complex(pq_grid(P).p[1]), 0.002, 0.0015)  # _near draws by p_1

    worst, nonzero = _Worst(), 0
    for i in range(STOCH_DRAWS):
        k = int(rng.integers(1, 4))
        ell_nu = int(rng.integers(0, 3))
        nu = tuple(sorted(rng.integers(1, 5, size=ell_nu))[::-1]) if ell_nu else ()
        kappa = tuple(sorted(nu + tuple(rng.integers(1, 7, size=k)), reverse=True))
        us = _near(*by_p1, k)
        dp = skew_B_lattice(kappa, nu, lam, us, P, stochastic=True)
        formula = stoch_B_formula(kappa, nu, lam, us, P)
        nonzero += bool(dp or formula)
        worst.see(_rel(dp, formula), lambda: {"worst_draw": i, "kappa": [int(p) for p in kappa], "nu": [int(p) for p in nu], "us": [_c(u) for u in us]})
    reports = [worst.report(f"stoch-B-two-routes-{STOCH_DRAWS}draws", {"draws": STOCH_DRAWS, "nonzero_draws": nonzero, "lam": _c(lam)}, 1e-8)]
    for nu, k in (((), 1), ((2,), 1), ((3, 1), 2)):
        reports.append(check_stoch_sum(nu, _near(*by_p1, k), P.with_lambda0(lam)))
    return reports


def _weights_battery(rng: np.random.Generator, pack: IrfParams) -> list:
    """The weight sum rules in each mode, sine identity, hat ratios and spin-1/2 tables; ``pack`` is unread."""
    reports = [check_stochasticity(rng, mode) for mode in (FunctionMode.trigonometric(), FunctionMode.rational(), FunctionMode.elliptic(6j))]
    return reports + [check_sine_identity(rng), check_hat_ratios(rng), *check_degenerate_weights(rng)]


def _identity_battery(rng: np.random.Generator, params: IrfParams) -> list:
    """The symmetrization, skew-Cauchy, Pieri, Cauchy, orthogonality, integral
    and nested-sum reports over ``params``; the rho-specialized reports on
    ``params`` run only in trigonometric mode, where rho is defined."""
    grid, rho = pq_grid(params), params.mode.kind == "trigonometric"
    p0, q0 = (complex(np.mean(np.array(side))) for side in (grid.p, grid.q))
    by_p, by_q = (rng, p0, 0.002, 0.0015), (rng, q0 + 0.03 + 0.01j, 0.004, 0.004)  # _near draws by the p and off the q cluster

    reports = []
    # symmetrization, trig and elliptic
    for m in (1, 3, 6):
        vs = [complex(a, b) for a, b in 0.4 * rng.standard_normal((m, 2))]
        beta = complex(0.23 + 0.1 * rng.standard_normal(), 0.11)
        reports.append(check_symmetrization_lemma(m, vs, beta, params.mode))
        reports.append(check_symmetrization_lemma(m, vs, beta, FunctionMode.elliptic(1.5j)))
    # skew-Cauchy at k = l = 1 and at k = l = 2
    u1, v1 = _near(*by_p, 1), _near(*by_q, 1)
    reports.append(check_skew_cauchy((1,), (), u1, v1, params))
    reports.append(check_skew_cauchy((2, 1), (1,), u1, v1, params))
    reports.append(check_skew_cauchy((2, 1), (), _near(*by_p, 2), _near(*by_q, 2), params))
    # Pieri rules and Cauchy
    reports.append(check_pieri2((2,), _near(*by_p, 1)[0], _near(*by_q, 2), params))
    reports.append(check_pieri2((), _near(*by_p, 1)[0], _near(*by_q, 1), params))
    reports.append(check_pieri((2, 1), _near(*by_p, 2), _near(*by_q, 1)[0], params))
    reports.append(check_cauchy(_near(*by_p, 1), _near(*by_q, 1), params))
    reports.append(check_cauchy(_near(*by_p, 2), _near(*by_q, 2), params))
    # rho-Cauchy, distinct and coincident arguments
    if rho:
        reports += [check_cauchy_rho(1, _near(*by_p, 1), params), check_cauchy_rho(2, _near(*by_p, 2), params), check_cauchy_rho(2, _near(*by_p, 1) * 2, params)]
    # orthogonality / integral representations; M >= 2 uses the wide pack,
    # whose larger p/q separation admits the nested (strong) circle
    # families those integrals require
    wide = preset("trig-admissible-wide")
    reports.append(check_orthogonality((1,), (1,), params))
    reports.append(check_orthogonality((2,), (1,), params))
    reports.append(check_orthogonality((2, 1), (2, 1), wide))
    reports.append(check_orthogonality((2, 1, 1), (2, 1, 1), wide))
    reports.append(check_orthogonality((3, 1, 1), (2, 1, 1), wide))
    reports.append(check_D_integral((1,), 1, _near(*by_q, 1), params))
    reports.append(check_D_integral((2, 1), 2, _near(rng, complex(np.mean(np.array(pq_grid(wide).q))) + 0.05 + 0.02j, 0.005, 0.005, 2), wide))
    if rho:
        reports += [check_D_rho_integral(nu, params) for nu in ((1,), (2, 0))]
    reports.append(check_D_rho_integral((2, 1), wide))
    # nested-sum lemma (the stochastic sum-to-one reports come from
    # check_stochastic_weights)
    reports.append(check_nested_sum_lemma(3, (2, 3, 5), rng.standard_normal((3, 8))))
    return reports


# verify seeds each battery with seed ^ salt; the lambdas look their check up
# at call time, so a function patched on the module (a tracer) sees the call
SUITES = {
    "weights": (0xA11CE, _weights_battery),
    "oracle": (0x0AC1E, lambda rng, pack: check_oracle_formulas(rng)),
    "stochastic": (0x570C4, lambda rng, pack: check_stochastic_weights(rng)),
    "identities": (0x5D1F, _identity_battery),
}
